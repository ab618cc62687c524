// batch_mixed: an offline job issuing seeded MatchBatch calls under
// ExecPolicy::Serial. Each batch holds fresh plain kStrongPlus patterns
// (two of them twice), plus kRegexStrong items whose pattern carries one
// single-hop wildcard atom; the first plain item streams through a
// BatchItem::sink. The traced run repeats every batch under Parallel(2) on
// a second engine: that measures the parallel executor and its MPSC ring,
// and its answers must equal the serial ones.
#include <map>
#include <optional>

#include "bench.h"
#include "common/logging.h"
#include "common/random.h"
#include "extensions/regex_pattern.h"
#include "extensions/regex_strong.h"
#include "graph/generator.h"

namespace perfbench {
namespace {

using gpm::Graph;
using gpm::NodeId;

constexpr uint32_t kGraphNodes = 6000;
constexpr double kGraphAlpha = 1.2;
constexpr uint32_t kGraphLabels = 200;
constexpr uint64_t kGraphSeed = 20110303;  // the graph is fixed; ops vary
// The timed batches run Serial. Under Parallel(2) the reference host gave
// the two workers one core's worth of CPU for minutes at a time (process
// CPU over wall fell from 1.3 to 1.0 while the one-thread probe held its
// speed), which moved the latency of one seed by 30% between runs.
constexpr size_t kParallelThreads = 2;
constexpr size_t kPlainPerBatch = 6;
constexpr size_t kRegexPerBatch = 3;
// Plain items repeated within their batch (they share per-ball relations).
constexpr size_t kRepeated[] = {1, 3};
constexpr size_t kItemsPerBatch =
    kPlainPerBatch + std::size(kRepeated) + kRegexPerBatch;
// Node count and ball radius of each plain and regex item: every batch has
// the same shapes (see ExtractPatternWithDiameter). Per node count they
// reproduce the radius mix gpm::ExtractPattern draws on this graph
// (`--census 2000`, README.md): 4 nodes 32/68% radius 2/3, 5 nodes
// 8/58/34% radius 2/3/4.
constexpr uint32_t kPlainNodes[kPlainPerBatch] = {4, 5, 4, 5, 4, 5};
constexpr uint32_t kPlainRadius[kPlainPerBatch] = {3, 3, 2, 4, 3, 3};
constexpr uint32_t kRegexNodes = 4;
constexpr uint32_t kRegexRadius[kRegexPerBatch] = {2, 3, 3};
constexpr size_t kWarmupBatches = 2;
// The warm-up draws the same patterns for every --seed, so every set-up
// does the same work.
constexpr uint64_t kWarmupSeed = 7;
// List length: about four times the rate on the reference host.
constexpr double kBatchesPerSecond = 100;

struct Item {
  bool regex = false;
  bool streamed = false;
  size_t duplicate_of = SIZE_MAX;  // index of the item this one repeats
  Graph pattern;                   // plain items
  std::optional<gpm::RegexQuery> query;  // regex items
};

using Batch = std::vector<Item>;

class BatchMixed : public Workload {
 public:
  BatchMixed(uint64_t seed, double seconds) : seed_(seed), seconds_(seconds) {}

  void Setup() override {
    g_ = gpm::MakeUniform(kGraphNodes, kGraphAlpha, kGraphLabels, kGraphSeed);
    engine_ = gpm::Engine();
    parallel_engine_ = gpm::Engine();
    gpm::Rng rng(kWarmupSeed);
    for (size_t b = 0; b < kWarmupBatches; ++b) {
      std::vector<uint64_t> hashes;
      GPM_CHECK(RunBatch(MakeBatch(&rng), &engine_, 1, nullptr, &hashes));
    }
  }

  void GenerateOps() override {
    gpm::Rng rng(seed_);
    const size_t total =
        static_cast<size_t>(std::max(1.0, seconds_) * kBatchesPerSecond);
    batches_.clear();
    for (size_t b = 0; b < total; ++b) batches_.push_back(MakeBatch(&rng));
    next_ = 0;
  }

  void Run(double seconds, size_t max_ops, Tracer* tracer,
           PhaseResult* out) override {
    first_ = next_;
    hashes_.clear();
    layers_ = LayerStats();
    shared_ = {0, 0, 0, 0};
    busy_seconds_ = 0;
    batch_seconds_ = 0;
    if (tracer != nullptr && csr_.num_nodes() == 0) {
      Tracer::Scope span(tracer, "graph.csr_build", 0);
      csr_ = gpm::CsrGraph::FromGraph(g_);
    }
    const double cpu0 = ProcessCpuSeconds();
    const double start = NowSeconds();
    const double deadline = start + seconds;
    size_t done = 0;
    for (; next_ < batches_.size() && done < max_ops && NowSeconds() < deadline;
         ++next_, ++done) {
      const Batch& batch = batches_[next_];
      std::vector<uint64_t> hashes;
      out->attempted += batch.size();
      int64_t span = -1;
      if (tracer != nullptr) span = tracer->Begin("api.match_batch", next_);
      BatchTiming timing;
      const bool ok = RunBatch(batch, &engine_, 1, &timing, &hashes);
      if (tracer != nullptr) tracer->End(span);
      hashes_.push_back(hashes);
      out->failed += ok ? timing.failed : batch.size();
      if (!ok) continue;
      out->latency.Add(timing.seconds);
      out->fresh.Add(timing.seconds);
      if (timing.first > 0) out->first_result.Add(timing.first);
      out->requests += batch.size() - timing.failed;
      if (tracer != nullptr) {
        // The same batch under Parallel(2), outside the request span; the
        // second engine's caches have not seen it.
        std::vector<uint64_t> parallel_hashes;
        BatchTiming parallel;
        if (!RunBatch(batch, &parallel_engine_, kParallelThreads, &parallel,
                      &parallel_hashes) ||
            parallel_hashes != hashes) {
          ++out->mismatches;
          ++out->failed;
        }
        busy_seconds_ += parallel.busy;
        batch_seconds_ += parallel.seconds;
        Tracer::Scope root(tracer, "replay", next_);
        for (size_t i = 0; i < batch.size(); ++i) {
          const Item& item = batch[i];
          if (item.duplicate_of != SIZE_MAX) {
            if (hashes[i] != hashes[item.duplicate_of]) {
              ++out->mismatches;
              ++out->failed;
            }
            continue;
          }
          std::vector<gpm::PerfectSubgraph> replayed;
          if (item.regex) {
            replayed = ReplayRegex(*item.query,
                                   gpm::DefaultRegexRadius(*item.query),
                                   g_, csr_, tracer, next_, root.id(),
                                   &layers_);
          } else {
            auto prep = gpm::PreparePattern(item.pattern, /*minimize=*/true);
            GPM_CHECK(prep.ok());
            replayed = ReplayStrongPlus(item.pattern, *prep, g_, csr_, tracer,
                                        next_, root.id(), &layers_);
          }
          if (AnswerHash(std::move(replayed), item.streamed) != hashes[i]) {
            ++out->mismatches;
            ++out->failed;
          }
        }
      }
    }
    out->wall_seconds = NowSeconds() - start;
    out->cpu_seconds = ProcessCpuSeconds() - cpu0;
    out->operations = out->requests;
    out->exhausted = next_ == batches_.size();
    ops_done_ = done;
    if (tracer != nullptr) self_ = tracer->SelfTimesByName();
  }

  void Verify(PhaseResult* out) override {
    const gpm::Engine reference = CachelessEngine();
    const size_t wrong = CountMismatches(ops_done_ * kItemsPerBatch, [&](size_t k) {
      const size_t b = k / kItemsPerBatch;
      const size_t i = k % kItemsPerBatch;
      const Item& item = batches_[first_ + b][i];
      if (hashes_[b][i] == 0) return false;  // failed in the run, counted
      gpm::MatchRequest request;
      gpm::Result<gpm::MatchResponse> truth = gpm::Status::Internal("unset");
      if (item.regex) {
        request.algo = gpm::Algo::kRegexStrong;
        auto pq = reference.Prepare(*item.query);
        if (pq.ok()) truth = reference.Match(*pq, g_, request);
      } else {
        truth = reference.Match(item.pattern, g_, request);
      }
      return !truth.ok() ||
             AnswerHash(std::move(truth->subgraphs), item.streamed) !=
                 hashes_[b][i];
    });
    out->mismatches += wrong;
    out->failed += wrong;
  }

  void LayerMetrics(std::vector<Metric>* out) const override {
    auto self_median = [this](const char* name, double scale) {
      auto it = self_.find(name);
      return it == self_.end() ? 0.0 : it->second.Median() * scale;
    };
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0; };
    out->push_back({"extensions.regex_filter_ms",
                    self_median("extensions.regex_filter", 1e3), "ms"});
    out->push_back({"extensions.regex_refine_us",
                    layers_.Get("extensions.regex_refine_us"), "us"});
    out->push_back({"api.balls_shared_ratio", ratio(shared_[0], shared_[1]),
                    "ratio"});
    out->push_back({"api.dual_relations_shared_ratio",
                    ratio(shared_[2], shared_[3]), "ratio"});
    out->push_back({"matching.parallel_busy_ratio",
                    ratio(busy_seconds_, batch_seconds_ * kParallelThreads),
                    "ratio"});
  }

  size_t ops_done() const override { return ops_done_; }
  double tail_percentile() const override { return 90; }

  void Census(size_t draws) override {
    g_ = gpm::MakeUniform(kGraphNodes, kGraphAlpha, kGraphLabels, kGraphSeed);
    PrintShapeCensus("batch_mixed", g_, {4, 5}, draws);
  }

  std::vector<std::string> Notes() const override {
    char line[200];
    std::snprintf(line, sizeof(line),
                  "batch_mixed: |V|=%zu |E|=%zu, %zu batches run of %zu "
                  "generated, %zu items each, Serial",
                  g_.num_nodes(), g_.num_edges(), ops_done_, batches_.size(),
                  kItemsPerBatch);
    return {line};
  }

 private:
  struct BatchTiming {
    double seconds = 0;
    double first = 0;  // 0 when the streamed item delivered nothing
    double busy = 0;   // MatchStats ball-build + refine + emit seconds
    uint64_t failed = 0;
  };

  Batch MakeBatch(gpm::Rng* rng) {
    Batch batch;
    for (size_t i = 0; i < kPlainPerBatch; ++i) {
      Item item;
      item.pattern =
          ExtractPatternWithDiameter(g_, kPlainNodes[i], kPlainRadius[i], rng);
      item.streamed = i == 0;
      batch.push_back(std::move(item));
    }
    for (size_t original : kRepeated) {
      Item repeat;
      repeat.pattern = batch[original].pattern;
      repeat.duplicate_of = original;
      batch.push_back(std::move(repeat));
    }
    for (size_t i = 0; i < kRegexPerBatch; ++i) {
      gpm::RegexQuery query(
          ExtractPatternWithDiameter(g_, kRegexNodes, kRegexRadius[i], rng));
      // One single-hop wildcard atom on one pattern edge.
      const Graph& pattern = query.pattern();
      for (NodeId u = 0; u < pattern.num_nodes(); ++u) {
        if (pattern.OutDegree(u) == 0) continue;
        GPM_CHECK(query.SetConstraint(u, pattern.OutNeighbors(u)[0],
                                      {gpm::RegexAtom{gpm::kAnyEdgeLabel, 1, 1}})
                      .ok());
        break;
      }
      Item item;
      item.regex = true;
      item.query.emplace(std::move(query));
      batch.push_back(std::move(item));
    }
    return batch;
  }

  // Prepares and runs one batch on `engine`, Serial when `threads` is 1;
  // fills one answer hash per item (0 for a failed item). Returns false
  // when the batch could not be issued.
  bool RunBatch(const Batch& batch, gpm::Engine* engine, size_t threads,
                BatchTiming* timing, std::vector<uint64_t>* hashes) {
    hashes->assign(batch.size(), 0);
    std::vector<std::shared_ptr<const gpm::PreparedQuery>> prepared;
    for (const Item& item : batch) {
      if (item.regex) {
        auto pq = engine->Prepare(*item.query);
        if (!pq.ok()) return false;
        prepared.push_back(std::make_shared<const gpm::PreparedQuery>(std::move(*pq)));
      } else {
        auto pq = engine->PrepareCached(item.pattern);
        if (!pq.ok()) return false;
        prepared.push_back(*pq);
      }
    }
    std::vector<gpm::PerfectSubgraph> streamed;
    double first = 0;
    std::vector<gpm::BatchItem> items(batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      items[i].query = prepared[i].get();
      items[i].request.algo =
          batch[i].regex ? gpm::Algo::kRegexStrong : gpm::Algo::kStrongPlus;
      items[i].request.policy = threads > 1
                                    ? gpm::ExecPolicy::Parallel(threads)
                                    : gpm::ExecPolicy::Serial();
      if (batch[i].streamed) {
        items[i].sink = [&streamed, &first](gpm::PerfectSubgraph&& s) {
          if (streamed.empty()) first = NowSeconds();
          streamed.push_back(std::move(s));
          return true;
        };
      }
    }
    const double t0 = NowSeconds();
    std::vector<gpm::Result<gpm::MatchResponse>> responses =
        engine->MatchBatch(g_, items);
    const double t1 = NowSeconds();
    BatchTiming local;
    local.seconds = t1 - t0;
    local.first = streamed.empty() ? 0 : first - t0;
    for (size_t i = 0; i < batch.size(); ++i) {
      if (!responses[i].ok()) {
        ++local.failed;
        continue;
      }
      const gpm::MatchStats& stats = responses[i]->stats;
      local.busy +=
          stats.ball_build_seconds + stats.refine_seconds + stats.emit_seconds;
      if (threads == 1) {  // sharing counts come from the serial batches
        shared_[0] += static_cast<double>(stats.balls_shared);
        shared_[1] += static_cast<double>(stats.balls_considered);
        if (!batch[i].regex) {
          shared_[2] += static_cast<double>(stats.dual_relations_shared);
          shared_[3] += static_cast<double>(stats.balls_considered);
        }
      }
      (*hashes)[i] = batch[i].streamed
                         ? AnswerHash(std::move(streamed), /*center_agnostic=*/true)
                         : AnswerHash(std::move(responses[i]->subgraphs));
    }
    if (timing != nullptr) *timing = local;
    return true;
  }

  const uint64_t seed_;
  const double seconds_;
  Graph g_;
  gpm::CsrGraph csr_;  // traced replays only
  gpm::Engine engine_;
  gpm::Engine parallel_engine_;  // traced runs' Parallel(2) repeats
  std::vector<Batch> batches_;
  size_t next_ = 0;
  size_t first_ = 0;
  size_t ops_done_ = 0;
  std::vector<std::vector<uint64_t>> hashes_;
  LayerStats layers_;
  std::map<std::string, Samples> self_;
  // balls shared, balls considered, relations shared, plain balls considered
  std::vector<double> shared_ = {0, 0, 0, 0};
  double busy_seconds_ = 0;
  double batch_seconds_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeBatchMixed(uint64_t seed, double seconds) {
  return std::make_unique<BatchMixed>(seed, seconds);
}

}  // namespace perfbench
