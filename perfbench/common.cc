// Shared pieces of the benchmark: clocks, order statistics, the span
// tracer, answer hashing, and the stage-by-stage replays of the matching
// pipeline that the traced mode checks the engine against.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <thread>
#include <unordered_map>

#include "bench.h"
#include "common/logging.h"
#include "common/random.h"
#include "extensions/regex_strong.h"
#include "graph/generator.h"
#include "matching/aux_graph.h"
#include "matching/strong_simulation_internal.h"
#include "serving/load_driver.h"

namespace perfbench {

using gpm::NodeId;

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double Samples::Mean() const {
  if (values_.empty()) return 0;
  double sum = 0;
  for (double v : values_) sum += v;
  return sum / static_cast<double>(values_.size());
}

Tail TailOf(const Samples& samples, double max_percentile) {
  Tail tail;
  tail.samples = samples.size();
  tail.percentile = 75;
  for (double p : {90.0, 95.0, 99.0}) {
    if (p > max_percentile) break;
    const double beyond =
        (1.0 - p / 100.0) * static_cast<double>(samples.size());
    if (beyond + 1e-9 >= 10.0) tail.percentile = p;
  }
  tail.value = samples.Quantile(tail.percentile / 100.0);
  return tail;
}

int64_t Tracer::Begin(const char* name, uint64_t request, int64_t parent) {
  Span span;
  span.name = name;
  span.request = request;
  span.parent = parent;
  span.start = NowSeconds();
  spans_.push_back(span);
  return static_cast<int64_t>(spans_.size()) - 1;
}

void Tracer::End(int64_t id) { spans_[id].end = NowSeconds(); }

std::vector<double> Tracer::SelfTimes() const {
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end - spans_[i].start;
  }
  for (const Span& span : spans_) {
    if (span.parent >= 0) self[span.parent] -= span.end - span.start;
  }
  return self;
}

std::map<std::string, Samples> Tracer::SelfTimesByName() const {
  const std::vector<double> self = SelfTimes();
  std::map<std::string, Samples> out;
  for (size_t i = 0; i < spans_.size(); ++i) out[spans_[i].name].Add(self[i]);
  return out;
}

double Tracer::CoverageRatio(const char* request_span,
                             const char* replay_root) const {
  const std::vector<double> self = SelfTimes();
  const std::string root_name = replay_root;
  const std::string request_name = request_span;
  std::unordered_map<uint64_t, double> covered;   // request -> layer self
  std::unordered_map<uint64_t, double> engine;    // request -> engine wall
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.name == request_name) {
      engine[span.request] += span.end - span.start;
      continue;
    }
    // Walk up to the root; count the span iff it hangs under a replay.
    int64_t root = static_cast<int64_t>(i);
    while (spans_[root].parent >= 0) root = spans_[root].parent;
    if (root != static_cast<int64_t>(i) && spans_[root].name == root_name) {
      covered[span.request] += self[i];
    }
  }
  Samples ratios;
  for (const auto& [request, layer_seconds] : covered) {
    auto it = engine.find(request);
    if (it != engine.end() && it->second > 0) {
      ratios.Add(layer_seconds / it->second);
    }
  }
  return ratios.Median();
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id\tparent\trequest\tname\tstart_us\tend_us\n");
  const double origin = spans_.empty() ? 0 : spans_.front().start;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu\t%lld\t%llu\t%s\t%.3f\t%.3f\n", i,
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.name,
                 (s.start - origin) * 1e6, (s.end - origin) * 1e6);
  }
  return std::fclose(f) == 0;
}

uint64_t AnswerHash(std::vector<gpm::PerfectSubgraph> subgraphs,
                    bool center_agnostic) {
  if (center_agnostic) {
    for (gpm::PerfectSubgraph& s : subgraphs) s.center = 0;
  }
  std::vector<std::pair<std::pair<NodeId, uint64_t>, size_t>> order;
  order.reserve(subgraphs.size());
  for (size_t i = 0; i < subgraphs.size(); ++i) {
    order.push_back({{subgraphs[i].center, subgraphs[i].ContentHash()}, i});
  }
  std::sort(order.begin(), order.end());
  gpm::MatchResponse response;
  response.matched = !subgraphs.empty();
  response.subgraphs.reserve(subgraphs.size());
  for (const auto& entry : order) {
    response.subgraphs.push_back(std::move(subgraphs[entry.second]));
  }
  return gpm::serving::ResponseContentHash(response);
}

gpm::Engine CachelessEngine() {
  gpm::EngineOptions options;
  options.prepared_cache_capacity = 0;
  options.filter_cache_capacity = 0;
  options.regex_filter_cache_capacity = 0;
  options.result_cache_capacity = 0;
  options.csr_snapshot_cache_capacity = 0;
  options.aux_graph_cache_capacity = 0;
  return gpm::Engine(options);
}

size_t CountMismatches(size_t n, const std::function<bool(size_t)>& wrong) {
  constexpr size_t kVerifyThreads = 2;
  std::atomic<size_t> next{0};
  std::atomic<size_t> count{0};
  auto work = [&] {
    for (size_t i = next++; i < n; i = next++) {
      if (wrong(i)) ++count;
    }
  };
  std::vector<std::thread> threads;
  for (size_t t = 1; t < kVerifyThreads; ++t) threads.emplace_back(work);
  work();
  for (std::thread& t : threads) t.join();
  return count.load();
}

gpm::Graph RenamedCopy(const gpm::Graph& pattern, gpm::Rng* rng) {
  const size_t n = pattern.num_nodes();
  std::vector<NodeId> to_new(n);
  for (size_t i = 0; i < n; ++i) to_new[i] = static_cast<NodeId>(i);
  rng->Shuffle(&to_new);
  std::vector<NodeId> to_old(n);
  for (size_t i = 0; i < n; ++i) to_old[to_new[i]] = static_cast<NodeId>(i);
  gpm::Graph out;
  for (size_t i = 0; i < n; ++i) out.AddNode(pattern.label(to_old[i]));
  for (NodeId u = 0; u < n; ++u) {
    auto targets = pattern.OutNeighbors(u);
    auto labels = pattern.OutEdgeLabels(u);
    for (size_t k = 0; k < targets.size(); ++k) {
      out.AddEdge(to_new[u], to_new[targets[k]], labels[k]);
    }
  }
  out.Finalize();
  return out;
}

gpm::Graph ExtractPatternWithDiameter(const gpm::Graph& g, uint32_t nodes,
                                      uint32_t diameter, gpm::Rng* rng) {
  for (;;) {
    auto extracted = gpm::ExtractPattern(g, nodes, rng);
    GPM_CHECK(extracted.ok());
    auto prep = gpm::PreparePattern(*extracted, /*minimize=*/false);
    if (prep.ok() && prep->diameter == diameter) return std::move(*extracted);
  }
}

void PrintShapeCensus(const char* label, const gpm::Graph& g,
                      const std::vector<uint32_t>& node_counts, size_t draws) {
  gpm::Rng rng(1);
  for (uint32_t nodes : node_counts) {
    std::map<uint32_t, size_t> radii;
    for (size_t i = 0; i < draws; ++i) {
      auto extracted = gpm::ExtractPattern(g, nodes, &rng);
      GPM_CHECK(extracted.ok());
      auto prep = gpm::PreparePattern(*extracted, /*minimize=*/false);
      GPM_CHECK(prep.ok());
      ++radii[prep->diameter];
    }
    std::printf("census %s: %u nodes, %zu draws:", label, nodes, draws);
    for (const auto& [radius, count] : radii) {
      std::printf(" radius %u %.1f%%", radius,
                  100.0 * static_cast<double>(count) / static_cast<double>(draws));
    }
    std::printf("\n");
  }
}

namespace {

size_t FilterBytes(const gpm::DualFilterResult& filter) {
  size_t bytes = filter.centers.capacity() * sizeof(NodeId);
  for (const gpm::DynamicBitset& b : filter.bits) bytes += (b.size() + 7) / 8;
  return bytes;
}

// The ball loop shared by both replays: build every surviving center's
// ball over the aux adjacency, refine it with `refine`, and dedup the way
// the serial executors do (smallest center wins).
template <typename RefineFn>
std::vector<gpm::PerfectSubgraph> ReplayBallLoop(
    const gpm::CsrGraph& csr, const gpm::AuxGraphResult& aux,
    uint32_t radius, const char* refine_metric, RefineFn refine,
    Tracer* tracer, uint64_t request, int64_t parent, LayerStats* layers) {
  std::vector<gpm::PerfectSubgraph> raw;
  Mean build, refined, nodes;
  {
    Tracer::Scope loop(tracer, "matching.ball_loop", request, parent);
    gpm::AuxBallBuilder builder(csr, aux);
    gpm::Ball ball;
    for (NodeId center : aux.centers) {
      const double t0 = NowSeconds();
      builder.Build(center, radius, &ball);
      const double t1 = NowSeconds();
      std::optional<gpm::PerfectSubgraph> pg = refine(ball);
      const double t2 = NowSeconds();
      build.Add((t1 - t0) * 1e6);
      refined.Add((t2 - t1) * 1e6);
      nodes.Add(static_cast<double>(ball.graph.num_nodes()));
      if (pg.has_value()) raw.push_back(std::move(*pg));
    }
  }
  layers->Add("matching.ball_build_us", build.sum, build.count);
  layers->Add(refine_metric, refined.sum, refined.count);
  layers->Add("matching.ball_nodes_mean", nodes.sum, nodes.count);
  layers->Add("matching.ball_yield_ratio", static_cast<double>(raw.size()),
              static_cast<double>(aux.centers.size()));
  size_t removed = 0;
  {
    Tracer::Scope dedup(tracer, "matching.dedup", request, parent);
    removed = gpm::CanonicalizeSubgraphs(/*dedup=*/true, &raw);
  }
  layers->Add("matching.duplicate_ratio", static_cast<double>(removed),
              static_cast<double>(raw.size() + removed));
  return raw;
}

void RecordAux(const gpm::CsrGraph& csr, const gpm::DualFilterResult& filter,
               const gpm::AuxGraphResult& aux, LayerStats* layers) {
  const double edges = static_cast<double>(std::max<size_t>(1, csr.num_edges()));
  layers->Add("matching.aux_edge_ratio",
              static_cast<double>(aux.out_targets.size()) / edges);
  layers->Add("matching.aux_bytes_per_edge",
              static_cast<double>(aux.MemoryBytes()) / edges);
  layers->Add("matching.index_skip_ratio",
              static_cast<double>(aux.centers_skipped_index),
              static_cast<double>(filter.centers.size()));
  layers->Add("api.cache_entry_kb",
              static_cast<double>(aux.MemoryBytes() + FilterBytes(filter) +
                                  csr.MemoryBytes()) /
                  1024.0,
              3);
}

}  // namespace

std::vector<gpm::PerfectSubgraph> ReplayStrongPlus(
    const gpm::Graph& pattern, const gpm::PatternPrep& prep,
    const gpm::Graph& g, const gpm::CsrGraph& csr, Tracer* tracer,
    uint64_t request, int64_t parent, LayerStats* layers) {
  const gpm::MatchOptions options = gpm::MatchPlusOptions();
  gpm::DualFilterResult filter;
  {
    Tracer::Scope span(tracer, "matching.dual_filter", request, parent);
    auto computed = gpm::ComputeDualFilter(pattern, g,
                                           options.minimize_query, &prep);
    GPM_CHECK(computed.ok());
    filter = std::move(*computed);
  }
  layers->Add("matching.filter_survivor_ratio",
              static_cast<double>(filter.centers.size()),
              static_cast<double>(g.num_nodes()));
  if (filter.proven_empty) return {};

  gpm::internal::RunState state;
  gpm::MatchStats stats;
  GPM_CHECK(gpm::internal::BuildRunState(pattern, g, options, prep, &state,
                                         &stats, &filter)
                .ok());
  if (state.proven_empty) return {};
  gpm::internal::MatchContext context;
  context.original_pattern = &pattern;
  context.effective_pattern = state.effective_pattern;
  context.class_of = state.class_of;
  context.global_bits = state.global_bits;
  context.radius = state.radius;
  context.options = options;

  gpm::AuxGraphResult aux;
  {
    Tracer::Scope span(tracer, "matching.aux_build", request, parent);
    aux = gpm::BuildAuxGraph(csr, filter, state.radius);
  }
  RecordAux(csr, filter, aux, layers);
  gpm::internal::MatchScratch scratch;
  return ReplayBallLoop(
      csr, aux, state.radius, "matching.refine_us",
      [&](const gpm::Ball& ball) {
        return gpm::internal::ProcessBall(context, ball, &stats, &scratch);
      },
      tracer, request, parent, layers);
}

std::vector<gpm::PerfectSubgraph> ReplayRegex(
    const gpm::RegexQuery& query, uint32_t radius, const gpm::Graph& g,
    const gpm::CsrGraph& csr, Tracer* tracer, uint64_t request,
    int64_t parent, LayerStats* layers) {
  gpm::DualFilterResult filter;
  {
    Tracer::Scope span(tracer, "extensions.regex_filter", request, parent);
    auto computed = gpm::ComputeRegexFilter(query, g);
    GPM_CHECK(computed.ok());
    filter = std::move(*computed);
  }
  gpm::internal::RegexRunState state;
  gpm::MatchStats stats;
  GPM_CHECK(
      gpm::internal::BuildRegexRunState(query, g, radius, &filter, &state,
                                        &stats)
          .ok());
  if (state.proven_empty) return {};
  gpm::AuxGraphResult aux;
  {
    Tracer::Scope span(tracer, "matching.aux_build", request, parent);
    aux = gpm::BuildRegexAuxGraph(query, csr, filter, state.context.radius);
  }
  gpm::internal::RegexBallScratch scratch;
  return ReplayBallLoop(
      csr, aux, state.context.radius, "extensions.regex_refine_us",
      [&](const gpm::Ball& ball) {
        return gpm::internal::ProcessRegexBall(state.context, ball, &stats,
                                               &scratch);
      },
      tracer, request, parent, layers);
}

}  // namespace perfbench
