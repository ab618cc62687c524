// gpm_perfbench: the repository benchmark's main program.
//
//   gpm_perfbench --workload adhoc|serve_churn|batch_mixed --seed N
//                 --seconds S --trace 0|1 [--trace-out DIR]
//   gpm_perfbench --workload NAME --census DRAWS
//
// --trace 0 sets the workload up several times (setup_s is the median),
// runs its timed closed loop for S seconds, recomputes every answer on a
// cache-less Serial engine, and prints the end-to-end metrics.
// --trace 1 prints the per-layer metrics instead: the named workload runs
// untraced and then traced over the same operations (the latency ratio is
// the tracing overhead); the other two workloads run traced briefly so
// every layer is measured. Traced answers are replayed stage by stage and
// must equal the engine's. Spans go to DIR, one file per workload.
//
// --census prints the diameter mix that gpm::ExtractPattern yields on the
// workload's graph for its node counts, the measurement the workload's
// fixed shape cycle reproduces (README.md, "Workloads").
//
// Every line but the last is a human-readable note; the last line is one
// JSON object {"correct", "attempted", "failed", "metrics"}. The exit code
// is nonzero when any answer was wrong or any operation failed.
#include <malloc.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "bench.h"
#include "common/bounded_queue.h"
#include "extensions/regex_strong.h"
#include "matching/strong_simulation_internal.h"

namespace perfbench {
namespace {

constexpr int kSetupRepeats = 5;
constexpr double kTracedShare = 0.25;  // of --seconds, per traced phase

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out = ".bench_build/perfbench-trace";
  size_t census = 0;  // draws per node count; 0 runs the benchmark
};

const char* kWorkloads[] = {"adhoc", "serve_churn", "batch_mixed"};

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       double seconds) {
  if (name == "adhoc") return MakeAdhoc(seed, seconds);
  if (name == "serve_churn") return MakeServeChurn(seed, seconds);
  if (name == "batch_mixed") return MakeBatchMixed(seed, seconds);
  return nullptr;
}

// The span that wraps one engine or server call of each workload.
const char* RequestSpan(const std::string& name) {
  if (name == "serve_churn") return "serving.serve";
  if (name == "batch_mixed") return "api.match_batch";
  return "api.request";
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value);
    } else if (key == "--trace") {
      args->trace = std::strcmp(value, "0") != 0;
    } else if (key == "--trace-out") {
      args->trace_out = value;
    } else if (key == "--census") {
      args->census = std::strtoull(value, nullptr, 10);
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && args->seconds > 0 &&
         MakeWorkload(args->workload, 1, 1) != nullptr;
}

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) < 0x80000004) return "unknown";
  for (unsigned int i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  std::string model(reinterpret_cast<const char*>(regs), sizeof(regs));
  model = model.c_str();  // drop the NUL padding
  const size_t first = model.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : model.substr(first);
#else
  return "unknown";
#endif
}

// A fixed amount of dependent integer work; its rate shows how fast the
// host ran just then. Diagnostic only: it never scales another metric.
double ProbeMops() {
  constexpr uint64_t kIterations = uint64_t{1} << 26;
  uint64_t x = 0x9E3779B97F4A7C15ULL;
  const double start = NowSeconds();
  for (uint64_t i = 0; i < kIterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x += i;
  }
  const double elapsed = NowSeconds() - start;
  static std::atomic<uint64_t> sink;
  sink.store(x, std::memory_order_relaxed);
  return static_cast<double>(kIterations) / elapsed / 1e6;
}

// Bytes per slot of a BoundedQueue<PerfectSubgraph> ring, as the queue
// itself allocates them: the heap its constructor takes for a large ring,
// divided by the slot count (the slot type is private to the queue).
double RingSlotBytes() {
  constexpr size_t kSlots = size_t{1} << 16;
  const auto heap = [] {
    const struct mallinfo2 info = mallinfo2();
    return info.uordblks + info.hblkhd;
  };
  const size_t before = heap();
  const gpm::BoundedQueue<gpm::PerfectSubgraph> queue(kSlots);
  return static_cast<double>(heap() - before) / static_cast<double>(kSlots);
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

void PrintPhase(const char* label, const PhaseResult& phase,
                double tail_percentile) {
  const Tail tail = TailOf(phase.latency, tail_percentile);
  std::printf("%s: %llu requests in %.3f s, latency p50 %.4f ms, p%.4g "
              "%.4f ms over %zu samples, %llu failed, %llu mismatches%s\n",
              label, static_cast<unsigned long long>(phase.requests),
              phase.wall_seconds, phase.latency.Median() * 1e3,
              tail.percentile, tail.value * 1e3, tail.samples,
              static_cast<unsigned long long>(phase.failed),
              static_cast<unsigned long long>(phase.mismatches),
              phase.exhausted ? " (operation list exhausted)" : "");
  if (!phase.write.empty()) {
    const Tail write_tail = TailOf(phase.write, tail_percentile);
    std::printf("%s: writes p50 %.4f ms, p%.4g %.4f ms over %zu samples\n",
                label, phase.write.Median() * 1e3, write_tail.percentile,
                write_tail.value * 1e3, write_tail.samples);
  }
}

int RunUntraced(const Args& args) {
  Samples setup;
  std::unique_ptr<Workload> workload;
  for (int r = 0; r < kSetupRepeats; ++r) {
    workload.reset();
    const double start = NowSeconds();
    workload = MakeWorkload(args.workload, args.seed, args.seconds);
    workload->Setup();
    setup.Add(NowSeconds() - start);
  }
  const double generate_start = NowSeconds();
  workload->GenerateOps();
  const double generate_seconds = NowSeconds() - generate_start;
  const double probe_before = ProbeMops();
  PhaseResult phase;
  workload->Run(args.seconds, SIZE_MAX, nullptr, &phase);
  phase.peak_rss_mb = PeakRssMb();
  const double probe_after = ProbeMops();
  workload->Verify(&phase);

  for (const std::string& note : workload->Notes()) {
    std::printf("%s\n", note.c_str());
  }
  PrintPhase(args.workload.c_str(), phase, workload->tail_percentile());
  std::printf("host.probe_mops_before %.1f, host.probe_mops_after %.1f\n",
              probe_before, probe_after);
  std::printf("setup_s: median of %d set-ups %.4f s; operation list "
              "generated once in %.4f s, outside setup_s\n",
              kSetupRepeats, setup.Median(), generate_seconds);

  const Tail tail = TailOf(phase.latency, workload->tail_percentile());
  const double attempted = static_cast<double>(phase.attempted);
  std::vector<Metric> metrics = {
      {"latency_p50_ms", phase.latency.Median() * 1e3, "ms"},
      {"latency_tail_ms", tail.value * 1e3, "ms"},
      {"first_result_p50_ms", phase.first_result.Median() * 1e3, "ms"},
      {"throughput_qps",
       static_cast<double>(phase.requests) / phase.wall_seconds, "1/s"},
      {"fresh_read_p50_ms", phase.fresh.Median() * 1e3, "ms"},
      {"success_rate",
       attempted > 0 ? (attempted - static_cast<double>(phase.failed)) /
                           attempted
                     : 0,
       "ratio"},
      {"cpu_ms_per_op",
       phase.cpu_seconds * 1e3 /
           static_cast<double>(std::max<uint64_t>(1, phase.operations)),
       "ms"},
      {"peak_rss_mb", phase.peak_rss_mb, "MB"},
      {"setup_s", setup.Median(), "s"},
  };
  const bool correct = phase.failed == 0 && phase.attempted > 0;
  PrintResult(correct, phase.attempted, phase.failed, metrics);
  return correct ? 0 : 1;
}

int RunTraced(const Args& args) {
  const double probe_before = ProbeMops();
  std::vector<Metric> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double coverage = 0;
  double overhead = 0;
  std::vector<std::string> order = {args.workload};
  for (const char* name : kWorkloads) {
    if (args.workload != name) order.push_back(name);
  }
  const double budget = args.seconds * kTracedShare;
  for (const std::string& name : order) {
    const bool named = name == args.workload;
    std::unique_ptr<Workload> workload;
    PhaseResult untraced;
    size_t max_ops = SIZE_MAX;
    double seconds = budget;
    if (named) {
      // The same operations untraced, on their own instance, for the
      // overhead ratio.
      workload = MakeWorkload(name, args.seed, args.seconds);
      workload->Setup();
      workload->GenerateOps();
      workload->Run(budget, SIZE_MAX, nullptr, &untraced);
      max_ops = workload->ops_done();
      seconds = 1e9;
    }
    workload = MakeWorkload(name, args.seed, args.seconds);
    workload->Setup();
    workload->GenerateOps();
    Tracer tracer;
    PhaseResult traced;
    workload->Run(seconds, max_ops, &tracer, &traced);
    PrintPhase((name + " traced").c_str(), traced, workload->tail_percentile());
    attempted += traced.attempted;
    failed += traced.failed;
    workload->LayerMetrics(&metrics);
    if (named) {
      PrintPhase((name + " untraced").c_str(), untraced,
                 workload->tail_percentile());
      coverage = tracer.CoverageRatio(RequestSpan(name), "replay");
      overhead = untraced.latency.Median() > 0
                     ? traced.latency.Median() / untraced.latency.Median()
                     : 0;
    }
    const std::string path =
        args.trace_out + "/" + name + "-seed" + std::to_string(args.seed) + ".tsv";
    if (!tracer.Write(path)) {
      std::printf("note: could not write spans to %s\n", path.c_str());
    }
  }
  const double probe_after = ProbeMops();
  metrics.push_back({"trace.coverage_ratio", coverage, "ratio"});
  metrics.push_back({"trace.overhead_ratio", overhead, "ratio"});
  metrics.push_back({"common.ring_item_bytes", RingSlotBytes(), "B"});
  metrics.push_back({"matching.scratch_bytes",
                     static_cast<double>(sizeof(gpm::internal::MatchScratch)),
                     "B"});
  metrics.push_back({"extensions.regex_scratch_bytes",
                     static_cast<double>(sizeof(gpm::internal::RegexBallScratch)),
                     "B"});
  metrics.push_back({"host.probe_mops_before", probe_before, "Mops/s"});
  metrics.push_back({"host.probe_mops_after", probe_after, "Mops/s"});
  const bool correct = failed == 0 && attempted > 0;
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload adhoc|serve_churn|batch_mixed "
                 "--seed N --seconds S --trace 0|1 [--trace-out DIR]\n"
                 "       %s --workload NAME --census DRAWS\n",
                 argv[0], argv[0]);
    return 2;
  }
  std::printf("host: nproc %u, cpu \"%s\", compiler \"g++ %s\", build %s\n",
              std::thread::hardware_concurrency(), CpuModel().c_str(),
              __VERSION__, PERFBENCH_BUILD_TYPE);
  std::printf("run: workload %s, seed %llu, seconds %g, trace %d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  if (args.census > 0) {
    MakeWorkload(args.workload, args.seed, args.seconds)->Census(args.census);
    return 0;
  }
  return args.trace ? RunTraced(args) : RunUntraced(args);
}
