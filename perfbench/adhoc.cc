// adhoc: one analyst session on one thread. A stream of distinct 4-8 node
// kStrongPlus patterns, each compiled with PrepareCached and matched with
// a Serial streaming Match, against a fixed amazon-like graph whose hubs
// give a heavy-tailed ball cost. A seeded share of the stream refines an
// earlier query: grows it by a node (contained in it, so its dual filter
// can be seeded), shrinks it by a node, or renames its nodes (isomorphic,
// so PrepareCached and the memos can serve it).
#include <unordered_set>

#include "bench.h"
#include "common/logging.h"
#include "common/random.h"
#include "graph/generator.h"
#include "matching/containment.h"

namespace perfbench {
namespace {

using gpm::Graph;
using gpm::NodeId;

constexpr uint32_t kGraphNodes = 20000;
constexpr uint64_t kGraphSeed = 20110901;  // the graph is fixed; ops vary
constexpr size_t kWarmupQueries = 16;
// The warm-up draws the same patterns for every --seed, so every set-up
// does the same work.
constexpr uint64_t kWarmupSeed = 7;
// List length: about four times the rate on the reference host.
constexpr double kOpsPerSecond = 600;
constexpr double kRefineShare = 0.3;    // grow, shrink, rename: 0.1 each
constexpr uint64_t kMaxRefineGap = 8;   // within the filter memo's reach
// Consecutive fresh queries rotate through 4-8 nodes. For each node count
// the eight ball radii below, cycled, reproduce the radius mix that
// gpm::ExtractPattern draws on this graph (`--census 2000`, README.md):
// 4 nodes 40/60% radius 2/3; 5 nodes 18/56/26% radius 2-4; 6 nodes
// 8/39/44/9% radius 2-5; 7 nodes 5/24/46/22/4% radius 2-6; 8 nodes
// 2/13/43/33/8/1% radius 2-7. Fixing the mix instead of drawing it keeps
// the share of expensive queries the same in every run.
constexpr uint32_t kMinNodes = 4;
constexpr uint32_t kRadiiByNodes[5][8] = {
    {3, 2, 3, 3, 2, 3, 3, 2},  // 4 nodes
    {3, 4, 2, 3, 3, 4, 2, 3},  // 5 nodes
    {4, 3, 2, 4, 3, 5, 4, 3},  // 6 nodes
    {4, 3, 5, 4, 4, 3, 5, 4},  // 7 nodes
    {4, 5, 3, 5, 4, 6, 5, 4}};  // 8 nodes

enum class Kind { kFresh, kGrow, kShrink, kRename };

struct Op {
  Graph pattern;
  Kind kind = Kind::kFresh;
  /// Index of the op this one refines (or the previous op for a fresh
  /// query): the pattern the containment probe compares against.
  size_t related = 0;
};

Graph WithoutLastNode(const Graph& p) {
  std::vector<NodeId> keep(p.num_nodes() - 1);
  for (size_t i = 0; i < keep.size(); ++i) keep[i] = static_cast<NodeId>(i);
  return p.InducedSubgraph(keep);
}

class Adhoc : public Workload {
 public:
  Adhoc(uint64_t seed, double seconds) : seed_(seed), seconds_(seconds) {}

  void Setup() override {
    g_ = gpm::MakeAmazonLike(kGraphNodes, kGraphSeed);
    engine_ = gpm::Engine();
    gpm::Rng rng(kWarmupSeed);
    gpm::MatchRequest request;
    for (size_t i = 0; i < kWarmupQueries; ++i) {
      auto p = gpm::ExtractPattern(g_, 4 + static_cast<uint32_t>(i % 5), &rng);
      GPM_CHECK(p.ok());
      auto pq = engine_.PrepareCached(*p);
      GPM_CHECK(pq.ok());
      GPM_CHECK(engine_.Match(**pq, g_, request).ok());
    }
  }

  void Run(double seconds, size_t max_ops, Tracer* tracer,
           PhaseResult* out) override {
    hashes_.clear();
    ok_.clear();
    layers_ = LayerStats();
    const gpm::EngineCacheStats before = engine_.cache_stats();
    gpm::MatchRequest request;  // kStrongPlus, Serial
    if (tracer != nullptr && csr_.num_nodes() == 0) {
      Tracer::Scope span(tracer, "graph.csr_build", 0);
      csr_ = gpm::CsrGraph::FromGraph(g_);
    }
    const double cpu0 = ProcessCpuSeconds();
    const double start = NowSeconds();
    const double deadline = start + seconds;
    size_t i = 0;
    for (; i < ops_.size() && i < max_ops && NowSeconds() < deadline; ++i) {
      const Op& op = ops_[i];
      std::vector<gpm::PerfectSubgraph> got;
      double first = 0;
      int64_t request_span = -1;
      if (tracer != nullptr) request_span = tracer->Begin("api.request", i);
      const double t0 = NowSeconds();
      auto pq = engine_.PrepareCached(op.pattern);
      bool ok = pq.ok();
      if (ok) {
        auto response = engine_.Match(
            **pq, g_, request, [&](gpm::PerfectSubgraph&& s) {
              if (got.empty()) first = NowSeconds();
              got.push_back(std::move(s));
              return true;
            });
        ok = response.ok();
      }
      const double t1 = NowSeconds();
      if (tracer != nullptr) tracer->End(request_span);
      ++out->attempted;
      ok_.push_back(ok);
      if (!ok) {
        ++out->failed;
        hashes_.push_back(0);
        continue;
      }
      out->latency.Add(t1 - t0);
      // Streaming calls bypass the result cache: every query is fresh.
      out->fresh.Add(t1 - t0);
      if (!got.empty()) out->first_result.Add(first - t0);
      hashes_.push_back(AnswerHash(std::move(got)));
      ++out->requests;
      if (tracer != nullptr && !ReplayMatches(op, i, tracer)) {
        ++out->mismatches;
        ++out->failed;
      }
    }
    out->wall_seconds = NowSeconds() - start;
    out->cpu_seconds = ProcessCpuSeconds() - cpu0;
    out->operations = i;
    out->exhausted = i == ops_.size();
    ops_done_ = i;
    const gpm::EngineCacheStats after = engine_.cache_stats();
    prepared_lookups_ = after.prepared.lookups - before.prepared.lookups;
    prepared_hits_ = after.prepared.hits - before.prepared.hits;
    seeds_ = after.containment_filter_seeds - before.containment_filter_seeds;
    if (tracer != nullptr) self_ = tracer->SelfTimesByName();
  }

  void Verify(PhaseResult* out) override {
    const gpm::Engine reference = CachelessEngine();
    const size_t wrong = CountMismatches(ops_done_, [&](size_t i) {
      if (!ok_[i]) return false;
      auto truth = reference.Match(ops_[i].pattern, g_, gpm::MatchRequest{});
      return !truth.ok() || AnswerHash(std::move(truth->subgraphs)) != hashes_[i];
    });
    out->mismatches += wrong;
    out->failed += wrong;
  }

  void LayerMetrics(std::vector<Metric>* out) const override {
    auto median = [this](const char* name, double scale) {
      auto it = self_.find(name);
      return it == self_.end() ? 0.0 : it->second.Median() * scale;
    };
    out->push_back({"api.prepared_hit_ratio",
                    Ratio(prepared_hits_, prepared_lookups_), "ratio"});
    out->push_back({"api.containment_seed_ratio",
                    Ratio(seeds_, ops_done_), "ratio"});
    out->push_back({"matching.prepare_ms", median("matching.prepare", 1e3),
                    "ms"});
    out->push_back({"matching.fingerprint_us",
                    median("matching.fingerprint", 1e6), "us"});
    out->push_back({"matching.containment_us",
                    median("matching.containment", 1e6), "us"});
    out->push_back({"matching.dual_filter_ms",
                    median("matching.dual_filter", 1e3), "ms"});
    out->push_back({"matching.aux_build_ms",
                    median("matching.aux_build", 1e3), "ms"});
    out->push_back({"matching.dedup_ms", median("matching.dedup", 1e3), "ms"});
    for (const char* name :
         {"matching.filter_survivor_ratio", "matching.aux_edge_ratio",
          "matching.aux_bytes_per_edge", "matching.index_skip_ratio",
          "matching.ball_build_us", "matching.ball_nodes_mean",
          "matching.refine_us", "matching.ball_yield_ratio",
          "matching.duplicate_ratio"}) {
      out->push_back({name, layers_.Get(name), UnitOf(name)});
    }
  }

  size_t ops_done() const override { return ops_done_; }
  double tail_percentile() const override { return 95; }

  void Census(size_t draws) override {
    g_ = gpm::MakeAmazonLike(kGraphNodes, kGraphSeed);
    PrintShapeCensus("adhoc", g_, {4, 5, 6, 7, 8}, draws);
  }

  std::vector<std::string> Notes() const override {
    size_t kinds[4] = {0, 0, 0, 0};
    for (size_t i = 0; i < ops_done_; ++i) {
      ++kinds[static_cast<int>(ops_[i].kind)];
    }
    char line[200];
    std::snprintf(line, sizeof(line),
                  "adhoc: |V|=%zu |E|=%zu, %zu queries run of %zu generated "
                  "(fresh %zu, grow %zu, shrink %zu, rename %zu)",
                  g_.num_nodes(), g_.num_edges(), ops_done_, ops_.size(),
                  kinds[0], kinds[1], kinds[2], kinds[3]);
    return {line};
  }

 private:
  static double Ratio(double num, double den) { return den > 0 ? num / den : 0; }
  static const char* UnitOf(const std::string& name) {
    if (name.ends_with("_us")) return "us";
    if (name.ends_with("_mean")) return "nodes";
    if (name.ends_with("_per_edge")) return "B/edge";
    return "ratio";
  }

  // Builds the whole query stream before anything is timed.
  void GenerateOps() override {
    gpm::Rng rng(seed_);
    const size_t total =
        static_cast<size_t>(std::max(1.0, seconds_) * kOpsPerSecond);
    ops_.clear();
    ops_.reserve(total);
    std::unordered_set<uint64_t> seen;
    std::vector<std::pair<size_t, Op>> scheduled;  // (due position, op)
    size_t slot = 0;
    auto push = [&](Op op) -> bool {
      if (!seen.insert(op.pattern.ContentHash()).second) return false;
      ops_.push_back(std::move(op));
      return true;
    };
    while (ops_.size() < total) {
      auto due = std::find_if(scheduled.begin(), scheduled.end(),
                              [&](const auto& s) { return s.first <= ops_.size(); });
      if (due != scheduled.end()) {
        Op op = std::move(due->second);
        scheduled.erase(due);
        push(std::move(op));
        continue;
      }
      const uint32_t* radii = kRadiiByNodes[slot % std::size(kRadiiByNodes)];
      const uint32_t nodes = kMinNodes + slot % std::size(kRadiiByNodes);
      const uint32_t radius = radii[(slot / std::size(kRadiiByNodes)) % 8];
      ++slot;
      const double roll = rng.NextDouble();
      const size_t gap = 1 + rng.Uniform(kMaxRefineGap);
      Graph p = ExtractPatternWithDiameter(g_, nodes, radius, &rng);
      const size_t prev = ops_.empty() ? 0 : ops_.size() - 1;
      if (roll < kRefineShare / 3 && nodes >= 5) {
        // Grow: the smaller query now, the refinement that adds a node
        // later (it is dual-contained in the earlier one).
        Op small{WithoutLastNode(p), Kind::kFresh, prev};
        const size_t at = ops_.size();
        if (push(std::move(small))) {
          scheduled.push_back({at + gap, Op{std::move(p), Kind::kGrow, at}});
        }
      } else if (roll < 2 * kRefineShare / 3 && nodes >= 5) {
        Graph smaller = WithoutLastNode(p);
        const size_t at = ops_.size();
        if (push(Op{std::move(p), Kind::kFresh, prev})) {
          scheduled.push_back({at + gap, Op{std::move(smaller), Kind::kShrink, at}});
        }
      } else if (roll < kRefineShare) {
        Graph renamed = RenamedCopy(p, &rng);
        const size_t at = ops_.size();
        if (push(Op{std::move(p), Kind::kFresh, prev})) {
          scheduled.push_back({at + gap, Op{std::move(renamed), Kind::kRename, at}});
        }
      } else {
        push(Op{std::move(p), Kind::kFresh, prev});
      }
    }
  }

  // The traced replay of op i: prepare, fingerprint and containment probe
  // as the engine's PrepareCached/Dispatch would run them, then the match
  // pipeline stage by stage. True iff the answers agree.
  bool ReplayMatches(const Op& op, size_t i, Tracer* tracer) {
    Tracer::Scope root(tracer, "replay", i);
    gpm::PatternPrep prep;
    {
      Tracer::Scope span(tracer, "matching.prepare", i, root.id());
      auto prepared = gpm::PreparePattern(op.pattern, /*minimize=*/true);
      GPM_CHECK(prepared.ok());
      prep = std::move(*prepared);
    }
    {
      Tracer::Scope span(tracer, "matching.fingerprint", i, root.id());
      std::vector<NodeId> order;
      if (gpm::CanonicalOrder(op.pattern, &order)) {
        (void)gpm::CanonicalFingerprint(op.pattern, order);
      }
    }
    {
      Tracer::Scope span(tracer, "matching.containment", i, root.id());
      (void)gpm::CheckDualContainment(ops_[op.related].pattern, op.pattern);
    }
    std::vector<gpm::PerfectSubgraph> replayed = ReplayStrongPlus(
        op.pattern, prep, g_, csr_, tracer, i, root.id(), &layers_);
    return AnswerHash(std::move(replayed)) == hashes_[i];
  }

  const uint64_t seed_;
  const double seconds_;
  Graph g_;
  gpm::CsrGraph csr_;  // traced replays only
  gpm::Engine engine_;
  std::vector<Op> ops_;
  std::vector<uint64_t> hashes_;
  std::vector<bool> ok_;
  size_t ops_done_ = 0;
  uint64_t prepared_lookups_ = 0;
  uint64_t prepared_hits_ = 0;
  uint64_t seeds_ = 0;
  LayerStats layers_;
  std::map<std::string, Samples> self_;
};

}  // namespace

std::unique_ptr<Workload> MakeAdhoc(uint64_t seed, double seconds) {
  return std::make_unique<Adhoc>(seed, seconds);
}

}  // namespace perfbench
