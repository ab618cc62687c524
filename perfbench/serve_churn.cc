// serve_churn: a GpmServer over a uniform graph with a small fixed query
// set that fits every engine cache. One thread issues a seeded read
// sequence and, after every kReadsPerWrite reads, applies one ApplyEdits
// batch of seeded feasible edits. Most reads are result-cache hits; the
// first read of each query after each publish recomputes. The fixed
// interleaving makes the hit/miss sequence identical on every run.
#include <optional>
#include <thread>

#include "bench.h"
#include "common/logging.h"
#include "common/random.h"
#include "graph/generator.h"
#include "graph/mutable_graph.h"
#include "serving/server.h"

namespace perfbench {
namespace {

using gpm::Graph;
using gpm::GraphEdit;
using gpm::NodeId;

constexpr uint32_t kGraphNodes = 20000;
constexpr double kGraphAlpha = 1.2;
constexpr uint32_t kGraphLabels = 200;
constexpr uint64_t kGraphSeed = 20111024;    // graph and query set are fixed
constexpr uint64_t kQuerySeed = 8111;
constexpr size_t kQueries = 6;               // below every cache capacity
constexpr size_t kReadsPerWrite = 32;
constexpr size_t kEditsPerWrite = 4;
// List length: about four times the rate on the reference host.
constexpr double kCyclesPerSecond = 80;

struct Op {
  bool write = false;
  uint32_t query = 0;
  std::vector<GraphEdit> edits;
};

struct ReadRecord {
  size_t op = 0;  // position in the operation list
  bool ok = false;
  uint32_t version = 0;
  uint32_t query = 0;
  uint64_t hash = 0;
};

class ServeChurn : public Workload {
 public:
  ServeChurn(uint64_t seed, double seconds) : seed_(seed), seconds_(seconds) {}

  void Setup() override {
    server_.reset();
    g_ = gpm::MakeUniform(kGraphNodes, kGraphAlpha, kGraphLabels, kGraphSeed);
    gpm::Engine engine;
    queries_.clear();
    gpm::Rng qrng(kQuerySeed);
    while (queries_.size() < kQueries) {
      auto p = gpm::ExtractPattern(g_, 4 + static_cast<uint32_t>(queries_.size() % 2),
                                   &qrng);
      GPM_CHECK(p.ok());
      auto pq = engine.PrepareCached(*p);
      GPM_CHECK(pq.ok());
      queries_.push_back(*pq);
    }
    // The writer session maintains the query with the smallest ball radius
    // (2 here; the others have radius 3 or 4). Its repair of the balls a
    // write touches then costs less than the O(V+E) snapshot publish, so
    // a write measures the publish and CSR rebuild rather than one query's
    // repair: about 45 ms per write on the reference host, against about
    // 450 ms with a radius-3 writer, which leaves too few writes per run
    // to measure.
    gpm::serving::ServerOptions options;
    for (size_t q = 1; q < queries_.size(); ++q) {
      if (queries_[q]->diameter() < queries_[options.writer_query_index]->diameter()) {
        options.writer_query_index = q;
      }
    }
    writer_query_ = options.writer_query_index;
    auto server = gpm::serving::GpmServer::Create(engine, queries_, g_, options);
    GPM_CHECK(server.ok());
    server_.emplace(std::move(*server));
    auto client = server_->Connect();
    GPM_CHECK(client.ok());
    client_ = std::move(*client);
    // Warm-up: one read of every query against the first version.
    for (uint32_t q = 0; q < kQueries; ++q) {
      GPM_CHECK(server_->Serve(client_, q).ok());
    }
    version_ = 0;
    last_read_version_.assign(kQueries, 0);
    version_hash_.assign(kQueries, 0);
    known_hash_.assign(kQueries, false);
    next_op_ = 0;
  }

  void Run(double seconds, size_t max_ops, Tracer* tracer,
           PhaseResult* out) override {
    reads_.clear();
    layers_ = LayerStats();
    std::optional<gpm::IncrementalSession> replica;
    std::vector<gpm::PatternPrep> preps;
    if (tracer != nullptr) {
      auto session = CachelessEngine().OpenIncremental(*queries_[writer_query_], g_);
      GPM_CHECK(session.ok());
      replica.emplace(std::move(*session));
      for (const auto& q : queries_) {
        auto prep = gpm::PreparePattern(q->pattern(), /*minimize=*/true);
        GPM_CHECK(prep.ok());
        preps.push_back(std::move(*prep));
      }
    }
    Samples read_self, write_self, repair, snapshot, affected;
    const gpm::EngineCacheStats before = server_->engine().cache_stats();
    uint64_t csr_version = UINT64_MAX;
    gpm::CsrGraph csr;
    const double cpu0 = ProcessCpuSeconds();
    const double start = NowSeconds();
    const double deadline = start + seconds;
    size_t done = 0;
    for (; next_op_ < ops_.size() && done < max_ops && NowSeconds() < deadline;
         ++next_op_, ++done) {
      const Op& op = ops_[next_op_];
      ++out->attempted;
      if (op.write) {
        int64_t span = -1;
        if (tracer != nullptr) span = tracer->Begin("serving.apply_edits", next_op_);
        const double t0 = NowSeconds();
        const gpm::Status status = server_->ApplyEdits(op.edits);
        const double t1 = NowSeconds();
        if (tracer != nullptr) tracer->End(span);
        ++version_;
        if (!status.ok()) {
          ++out->failed;
          continue;
        }
        out->write.Add(t1 - t0);
        if (tracer != nullptr) {
          const double r0 = NowSeconds();
          {
            Tracer::Scope s(tracer, "extensions.incremental_repair", next_op_);
            GPM_CHECK(replica->ApplyBatch(op.edits).ok());
          }
          const double r1 = NowSeconds();
          {
            Tracer::Scope s(tracer, "graph.snapshot", next_op_);
            (void)replica->PublishSnapshot();
          }
          const double r2 = NowSeconds();
          repair.Add(r1 - r0);
          snapshot.Add(r2 - r1);
          write_self.Add((t1 - t0) - (r2 - r0));
          affected.Add(static_cast<double>(replica->last_update().affected_centers));
        }
        continue;
      }
      int64_t span = -1;
      if (tracer != nullptr) span = tracer->Begin("serving.serve", next_op_);
      const double t0 = NowSeconds();
      auto response = server_->Serve(client_, op.query);
      const double t1 = NowSeconds();
      if (tracer != nullptr) tracer->End(span);
      if (!response.ok()) {
        ++out->failed;
        reads_.push_back(
            {next_op_, false, static_cast<uint32_t>(version_), op.query, 0});
        continue;
      }
      const bool fresh = last_read_version_[op.query] != version_;
      last_read_version_[op.query] = version_;
      out->latency.Add(t1 - t0);
      if (fresh) out->fresh.Add(t1 - t0);
      if (!response->match.subgraphs.empty()) out->first_result.Add(t1 - t0);
      ++out->requests;
      const uint64_t hash = AnswerHash(response->match.subgraphs);
      reads_.push_back(
          {next_op_, true, static_cast<uint32_t>(version_), op.query, hash});
      // Every read of one version must agree with that version's first.
      if (fresh || !known_hash_[op.query]) {
        version_hash_[op.query] = hash;
        known_hash_[op.query] = true;
      } else if (version_hash_[op.query] != hash) {
        ++out->mismatches;
        ++out->failed;
      }
      if (tracer == nullptr) continue;
      read_self.Add((t1 - t0) - response->match.seconds);
      if (!fresh) continue;
      Tracer::Scope root(tracer, "replay", next_op_);
      if (csr_version != version_) {
        Tracer::Scope s(tracer, "graph.csr_build", next_op_, root.id());
        csr = gpm::CsrGraph::FromGraph(*response->graph);
        csr_version = version_;
      }
      std::vector<gpm::PerfectSubgraph> replayed = ReplayStrongPlus(
          queries_[op.query]->pattern(), preps[op.query], *response->graph,
          csr, tracer, next_op_, root.id(), &layers_);
      if (AnswerHash(std::move(replayed)) != hash) {
        ++out->mismatches;
        ++out->failed;
      }
    }
    out->wall_seconds = NowSeconds() - start;
    out->cpu_seconds = ProcessCpuSeconds() - cpu0;
    out->operations = done;
    out->exhausted = next_op_ == ops_.size();
    ops_done_ = done;
    const gpm::EngineCacheStats after = server_->engine().cache_stats();
    auto ratio = [](const gpm::CacheStats& a, const gpm::CacheStats& b) {
      const double lookups = static_cast<double>(a.lookups - b.lookups);
      return lookups > 0 ? static_cast<double>(a.hits - b.hits) / lookups : 0;
    };
    hit_ratios_ = {ratio(after.results, before.results),
                   ratio(after.filter, before.filter),
                   ratio(after.csr, before.csr), ratio(after.aux, before.aux)};
    if (tracer != nullptr) {
      const Tail write_tail = TailOf(out->write, tail_percentile());
      layer_values_ = {
          {"graph.csr_bytes_per_edge",
           static_cast<double>(csr.MemoryBytes()) /
               static_cast<double>(std::max<size_t>(1, csr.num_edges())),
           "B/edge"},
          {"extensions.incremental_repair_ms", repair.Median() * 1e3, "ms"},
          {"extensions.affected_centers_per_batch", affected.Mean(), "count"},
          {"graph.snapshot_ms", snapshot.Median() * 1e3, "ms"},
          {"serving.read_self_us", read_self.Median() * 1e6, "us"},
          {"serving.write_self_ms", write_self.Median() * 1e3, "ms"},
          {"serving.write_p50_ms", out->write.Median() * 1e3, "ms"},
          {"serving.write_tail_ms", write_tail.value * 1e3, "ms"},
      };
      const auto self = tracer->SelfTimesByName();
      auto it = self.find("graph.csr_build");
      layer_values_.push_back({"graph.csr_build_ms",
                               it == self.end() ? 0 : it->second.Median() * 1e3,
                               "ms"});
    }
  }

  // Two threads each check one half of the reads, version by version.
  void Verify(PhaseResult* out) override {
    const size_t half = reads_.size() / 2;
    size_t wrong_second = 0;
    std::thread second([&] { wrong_second = VerifyReads(half, reads_.size()); });
    size_t wrong = VerifyReads(0, half);
    second.join();
    wrong += wrong_second;
    out->mismatches += wrong;
    out->failed += wrong;
  }

  void LayerMetrics(std::vector<Metric>* out) const override {
    out->insert(out->end(), layer_values_.begin(), layer_values_.end());
    out->push_back({"api.result_hit_ratio", hit_ratios_[0], "ratio"});
    out->push_back({"api.filter_hit_ratio", hit_ratios_[1], "ratio"});
    out->push_back({"api.csr_hit_ratio", hit_ratios_[2], "ratio"});
    out->push_back({"api.aux_hit_ratio", hit_ratios_[3], "ratio"});
    out->push_back({"api.cache_entry_kb", layers_.Get("api.cache_entry_kb"), "KB"});
  }

  size_t ops_done() const override { return ops_done_; }
  double tail_percentile() const override { return 99; }

  void Census(size_t draws) override {
    g_ = gpm::MakeUniform(kGraphNodes, kGraphAlpha, kGraphLabels, kGraphSeed);
    PrintShapeCensus("serve_churn", g_, {4, 5}, draws);
  }

  std::vector<std::string> Notes() const override {
    char line[200];
    std::snprintf(line, sizeof(line),
                  "serve_churn: |V|=%zu |E|=%zu, %zu queries, %zu ops run "
                  "(%u publishes), %zu reads/write, %zu edits/write",
                  g_.num_nodes(), g_.num_edges(), queries_.size(), ops_done_,
                  static_cast<unsigned>(version_), kReadsPerWrite,
                  kEditsPerWrite);
    std::string radii = "serve_churn: query radii";
    for (const auto& q : queries_) {
      radii.push_back(' ');
      radii.append(std::to_string(q->diameter()));
    }
    radii.append(", writer session on query ");
    radii.append(std::to_string(writer_query_));
    return {line, radii};
  }

 private:
  // Recomputes reads_[begin, end) on a cache-less engine and returns how
  // many differ. Every write before a read is replayed from the start of
  // the list (warm-up and earlier phases included) on a MutableGraph, so
  // each version is rebuilt exactly as published.
  size_t VerifyReads(size_t begin, size_t end) const {
    const gpm::Engine reference = CachelessEngine();
    gpm::MutableGraph data(g_);
    uint32_t version = 0;
    std::optional<Graph> snapshot;
    std::vector<std::optional<uint64_t>> truth(kQueries);
    size_t wrong = 0;
    size_t i = 0;
    for (size_t r = begin; r < end; ++r) {
      const ReadRecord& read = reads_[r];
      for (; i < read.op; ++i) {
        if (!ops_[i].write) continue;
        for (const GraphEdit& e : ops_[i].edits) {
          const gpm::Status s =
              e.kind == GraphEdit::Kind::kInsertEdge
                  ? data.InsertEdge(e.from, e.to, e.edge_label)
                  : data.RemoveEdge(e.from, e.to, e.edge_label);
          GPM_CHECK(s.ok());
        }
        ++version;
        snapshot.reset();
        truth.assign(kQueries, std::nullopt);
      }
      GPM_CHECK_EQ(read.version, version);
      if (!read.ok) continue;
      if (!truth[read.query].has_value()) {
        if (!snapshot.has_value()) snapshot.emplace(data.Snapshot());
        auto answer = reference.Match(*queries_[read.query], *snapshot);
        truth[read.query] = answer.ok() ? AnswerHash(std::move(answer->subgraphs)) : 0;
      }
      if (*truth[read.query] != read.hash) ++wrong;
    }
    return wrong;
  }

  // The read sequence and the edit batches, simulated on an adjacency
  // copy so every edit is feasible when it is applied.
  void GenerateOps() override {
    gpm::Rng rng(seed_);
    const size_t n = g_.num_nodes();
    std::vector<std::vector<NodeId>> out(n);
    for (NodeId v = 0; v < n; ++v) {
      auto targets = g_.OutNeighbors(v);
      out[v].assign(targets.begin(), targets.end());
    }
    auto has_edge = [&](NodeId a, NodeId b) {
      return std::find(out[a].begin(), out[a].end(), b) != out[a].end();
    };
    const size_t cycles =
        static_cast<size_t>(std::max(1.0, seconds_) * kCyclesPerSecond);
    ops_.clear();
    ops_.reserve(cycles * (kReadsPerWrite + 1));
    for (size_t c = 0; c < cycles; ++c) {
      for (size_t r = 0; r < kReadsPerWrite; ++r) {
        ops_.push_back(Op{false, static_cast<uint32_t>(rng.Uniform(kQueries)), {}});
      }
      Op write{true, 0, {}};
      while (write.edits.size() < kEditsPerWrite) {
        const NodeId a = static_cast<NodeId>(rng.Uniform(n));
        if (rng.Bernoulli(0.55) || out[a].empty()) {
          const NodeId b = static_cast<NodeId>(rng.Uniform(n));
          if (a == b || has_edge(a, b)) continue;
          out[a].push_back(b);
          write.edits.push_back(GraphEdit::InsertEdge(a, b));
        } else {
          const size_t k = rng.Uniform(out[a].size());
          const NodeId b = out[a][k];
          out[a][k] = out[a].back();
          out[a].pop_back();
          write.edits.push_back(GraphEdit::RemoveEdge(a, b));
        }
      }
      ops_.push_back(std::move(write));
    }
  }

  const uint64_t seed_;
  const double seconds_;
  Graph g_;
  std::vector<std::shared_ptr<const gpm::PreparedQuery>> queries_;
  size_t writer_query_ = 0;
  std::vector<Op> ops_;
  std::optional<gpm::serving::GpmServer> server_;
  gpm::serving::GpmServer::Client client_;
  uint64_t version_ = 0;
  std::vector<uint64_t> last_read_version_;
  std::vector<uint64_t> version_hash_;  // first answer at the current version
  std::vector<bool> known_hash_;
  size_t next_op_ = 0;
  size_t ops_done_ = 0;
  std::vector<ReadRecord> reads_;
  std::vector<double> hit_ratios_ = {0, 0, 0, 0};
  std::vector<Metric> layer_values_;
  LayerStats layers_;
};

}  // namespace

std::unique_ptr<Workload> MakeServeChurn(uint64_t seed, double seconds) {
  return std::make_unique<ServeChurn>(seed, seconds);
}

}  // namespace perfbench
