// The repository benchmark: three closed-loop workloads driven through the
// public API (gpm::Engine, gpm::serving::GpmServer), an untraced mode that
// reports the end-to-end metrics, and a traced mode that replays the same
// requests stage by stage through the layer functions and reports the
// per-layer metrics. See README.md in this directory for the workloads,
// the metric definitions and the layer -> end-to-end predictions.
#ifndef GPM_PERFBENCH_BENCH_H_
#define GPM_PERFBENCH_BENCH_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "api/engine.h"
#include "common/random.h"
#include "graph/csr_graph.h"

namespace perfbench {

/// Monotonic wall clock in seconds.
double NowSeconds();
/// CPU time of the whole process (all threads) in seconds.
double ProcessCpuSeconds();
/// Peak resident set of the process so far, in MB.
double PeakRssMb();

/// \brief A bag of samples with the order statistics the metrics use.
class Samples {
 public:
  void Add(double x) { values_.push_back(x); }
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  /// Linearly interpolated quantile, q in [0, 1]; 0 when empty.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }
  double Mean() const;

 private:
  std::vector<double> values_;
};

/// \brief The latency tail: the highest of p90, p95 and p99, up to
/// `max_percentile`, that has at least ten samples beyond it (p75 when
/// even p90 has fewer). Each workload caps the percentile at the one its
/// calibrated rate supports, so a faster program does not move the tail
/// to a higher percentile.
struct Tail {
  double percentile = 0;
  double value = 0;
  size_t samples = 0;
};
Tail TailOf(const Samples& samples, double max_percentile = 99);

/// \brief Running sum and count of a per-item quantity (per-ball costs,
/// which are far too many to keep one by one).
struct Mean {
  double sum = 0;
  double count = 0;
  void Add(double x, double n = 1) {
    sum += x;
    count += n;
  }
  double Get() const { return count > 0 ? sum / count : 0; }
};

/// \brief Spans of one traced run, kept in memory and written out at exit.
///
/// A span wraps one call into a layer: name, start, end, the span that
/// caused it, and the request it belongs to. A layer's self time is its
/// duration minus the part its child spans cover (children of one span
/// never overlap: the benchmark records from one thread).
class Tracer {
 public:
  struct Span {
    const char* name = "";
    double start = 0;
    double end = 0;
    int64_t parent = -1;
    uint64_t request = 0;
  };

  /// Opens a span and returns its id.
  int64_t Begin(const char* name, uint64_t request, int64_t parent = -1);
  void End(int64_t id);

  /// RAII span.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, uint64_t request,
          int64_t parent = -1)
        : tracer_(tracer), id_(tracer->Begin(name, request, parent)) {}
    ~Scope() { tracer_->End(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    int64_t id() const { return id_; }

   private:
    Tracer* tracer_;
    int64_t id_;
  };

  /// Self time of every closed span, in span-id order.
  std::vector<double> SelfTimes() const;
  /// Per-name self-time samples (seconds), one per span.
  std::map<std::string, Samples> SelfTimesByName() const;
  /// Median over requests of (self time of every span under the
  /// request's roots named `replay_root`) / (duration of the request's
  /// spans named `request_span`).
  double CoverageRatio(const char* request_span,
                       const char* replay_root) const;
  /// Writes one tab-separated line per span; false on I/O failure.
  bool Write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// \brief Everything one timed phase measured.
struct PhaseResult {
  Samples latency;       ///< per request (a MatchBatch call counts once)
  Samples first_result;  ///< call -> first subgraph at the caller
  Samples fresh;         ///< requests the result cache could not answer
  Samples write;         ///< ApplyEdits calls (serve_churn only)
  uint64_t requests = 0;    ///< completed requests (batch items in batches)
  uint64_t operations = 0;  ///< all timed calls, the CPU-per-op divisor
  uint64_t attempted = 0;   ///< requests + writes attempted
  uint64_t failed = 0;      ///< errors and verification mismatches
  uint64_t mismatches = 0;  ///< verification mismatches alone
  double wall_seconds = 0;
  double cpu_seconds = 0;
  double peak_rss_mb = 0;
  /// The pre-generated operation list ran out before the time did.
  bool exhausted = false;
};

/// \brief One named metric as printed in the result line.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Hash of an answer (gpm::serving::ResponseContentHash over the
/// subgraphs sorted by (center, content hash)). `center_agnostic` zeroes
/// the centers first: a parallel stream keeps whichever duplicate arrived
/// first, so only its node/edge sets are comparable.
uint64_t AnswerHash(std::vector<gpm::PerfectSubgraph> subgraphs,
                    bool center_agnostic = false);

/// An engine with every cache disabled: the reference the answers are
/// recomputed on.
gpm::Engine CachelessEngine();

/// Calls `wrong(i)` for every i in [0, n) on two threads and returns how
/// many returned true. The reference recomputations of a run are
/// independent, so verification need not take as long as the run.
size_t CountMismatches(size_t n, const std::function<bool(size_t)>& wrong);

/// The pattern with node ids permuted by `rng` (an isomorphic copy).
gpm::Graph RenamedCopy(const gpm::Graph& pattern, gpm::Rng* rng);

/// A connected `nodes`-node pattern extracted from g whose diameter (the
/// strong-simulation ball radius) is `diameter`. The ball radius sets a
/// query's cost by orders of magnitude, so the workloads fix the mix of
/// radii instead of drawing it: otherwise the share of expensive queries
/// in a run, and with it the median, would move from seed to seed.
gpm::Graph ExtractPatternWithDiameter(const gpm::Graph& g, uint32_t nodes,
                                      uint32_t diameter, gpm::Rng* rng);

/// Prints, for each node count, how the diameters of `draws` patterns
/// drawn by gpm::ExtractPattern from g are distributed: the natural
/// radius mix that the workloads' fixed shape cycles reproduce.
void PrintShapeCensus(const char* label, const gpm::Graph& g,
                      const std::vector<uint32_t>& node_counts, size_t draws);

/// Per-layer quantities the replays accumulate.
struct LayerStats {
  std::map<std::string, Mean> means;
  void Add(const std::string& name, double x, double n = 1) {
    means[name].Add(x, n);
  }
  double Get(const std::string& name) const {
    auto it = means.find(name);
    return it == means.end() ? 0 : it->second.Get();
  }
};

/// Replays a kStrongPlus request stage by stage — dual filter, aux graph,
/// ball build, per-ball refinement, dedup — through the matching layer's
/// own functions, recording one span per stage under `parent` and the
/// per-ball costs into `layers`. Returns the answer.
std::vector<gpm::PerfectSubgraph> ReplayStrongPlus(
    const gpm::Graph& pattern, const gpm::PatternPrep& prep,
    const gpm::Graph& g, const gpm::CsrGraph& csr, Tracer* tracer,
    uint64_t request, int64_t parent, LayerStats* layers);

/// Same for a kRegexStrong request: regex filter, regex aux graph, balls,
/// regex refinement, dedup.
std::vector<gpm::PerfectSubgraph> ReplayRegex(
    const gpm::RegexQuery& query, uint32_t radius, const gpm::Graph& g,
    const gpm::CsrGraph& csr, Tracer* tracer, uint64_t request,
    int64_t parent, LayerStats* layers);

/// \brief One workload: inputs made from the seed, a timed closed loop,
/// a cache-less recomputation of every answer, and, after a traced run,
/// the per-layer metrics it owns.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the graph (and query set), stands up the engine or server and
  /// runs the untimed warm-up: what setup_s measures.
  virtual void Setup() = 0;
  /// Generates the whole operation list from the seed, after Setup. Its
  /// length is sized from the rate on the reference host with a margin,
  /// so it is the benchmark's cost, not the program's, and stays out of
  /// setup_s.
  virtual void GenerateOps() = 0;
  /// Runs operations in list order until `seconds` pass or `max_ops`
  /// operations ran. With a tracer, every call is wrapped in a span and
  /// its answer is replayed stage by stage; a replay that differs from
  /// the engine's answer counts as a mismatch.
  virtual void Run(double seconds, size_t max_ops, Tracer* tracer,
                   PhaseResult* out) = 0;
  /// Recomputes every answer of the last Run on a cache-less Serial
  /// engine; each mismatch counts as failed.
  virtual void Verify(PhaseResult* out) = 0;
  /// The per-layer metrics this workload owns, from the last traced Run.
  virtual void LayerMetrics(std::vector<Metric>* out) const = 0;
  /// Operations the last Run completed (the traced re-run repeats them).
  virtual size_t ops_done() const = 0;
  /// Lines describing the last Run beyond the metrics (printed, not
  /// parsed).
  virtual std::vector<std::string> Notes() const = 0;
  /// The highest percentile latency_tail_ms may report (see Tail).
  virtual double tail_percentile() const = 0;
  /// Builds the workload's graph and prints its PrintShapeCensus.
  virtual void Census(size_t draws) = 0;
};

std::unique_ptr<Workload> MakeAdhoc(uint64_t seed, double seconds);
std::unique_ptr<Workload> MakeServeChurn(uint64_t seed, double seconds);
std::unique_ptr<Workload> MakeBatchMixed(uint64_t seed, double seconds);

}  // namespace perfbench

#endif  // GPM_PERFBENCH_BENCH_H_
