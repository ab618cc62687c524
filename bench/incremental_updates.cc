// Incremental-maintenance benchmark: the continuous-query serving path
// (Engine::OpenIncremental) under a stream of single-edge updates.
//
//   1. update vs full recompute: mean per-update repair time against a
//      from-scratch MatchStrong of the same graph — the saving incremental
//      maintenance exists for.
//   2. locality: mean affected/total center ratio (each update recomputes
//      only the balls within dQ of the touched endpoints).
//   3. size independence: the same update workload and pattern on a graph
//      4x larger — per-update latency tracks ball sizes, not |V|, because
//      no update ever re-materializes or re-finalizes the full graph. The
//      workload holds ball sizes fixed across |V| (constant average
//      degree, same pattern, same label count), so the claim is isolated.
//   4. batch vs one-by-one: ApplyBatch collects affected centers once
//      across the batch, so overlapping neighborhoods repair cheaper.
//   5. snapshot_publish: every version a serving writer publishes is one
//      MutableGraph::Snapshot(), built in one bulk pass; timed against
//      the AddEdge + Finalize() rebuild of the same content, kept here as
//      the reference.
//
// Emits BENCH_incremental_updates.json for tools/bench_trend.py.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "bench/bench_util.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "graph/generator.h"
#include "graph/mutable_graph.h"
#include "quality/table_printer.h"

namespace {

using namespace gpm;

constexpr uint32_t kLabels = 40;       // fixed across sizes: fixed ball
constexpr double kAvgDegree = 3.0;     // match density at every |V|

// Uniform graph with ~kAvgDegree * n edges regardless of n (the paper's
// generator takes the density exponent, so solve n^alpha = d * n).
Graph MakeFixedDegreeGraph(uint32_t n, uint64_t seed) {
  const double alpha =
      std::log(kAvgDegree * n) / std::log(static_cast<double>(n));
  return MakeUniform(n, alpha, kLabels, seed);
}

struct UpdateRun {
  double mean_update_seconds = 0;
  double mean_affected_ratio = 0;  // affected_centers / total_centers
  double full_match_seconds = 0;
  size_t updates_applied = 0;
  size_t final_matches = 0;
};

// Applies `count` random updates (70% insert / 30% remove) through the
// session, timing each; returns the aggregate.
UpdateRun DriveUpdates(const Engine& engine, const PreparedQuery& prepared,
                       const Graph& g, size_t count, uint64_t seed) {
  UpdateRun run;
  auto session = engine.OpenIncremental(prepared, g);
  if (!session.ok()) {
    std::printf("error: %s\n", session.status().ToString().c_str());
    return run;
  }
  Rng rng(seed);
  double total_seconds = 0, total_ratio = 0;
  while (run.updates_applied < count) {
    const NodeId a = static_cast<NodeId>(rng.Uniform(g.num_nodes()));
    const NodeId b = static_cast<NodeId>(rng.Uniform(g.num_nodes()));
    if (a == b) continue;
    const bool ok = rng.Bernoulli(0.7) ? session->InsertEdge(a, b).ok()
                                       : session->RemoveEdge(a, b).ok();
    if (!ok) continue;
    const auto& stats = session->last_update();
    total_seconds += stats.seconds;
    total_ratio += static_cast<double>(stats.affected_centers) /
                   static_cast<double>(stats.total_centers);
    ++run.updates_applied;
  }
  run.mean_update_seconds = total_seconds / static_cast<double>(count);
  run.mean_affected_ratio = total_ratio / static_cast<double>(count);
  run.final_matches = session->CurrentMatches().size();

  // The from-scratch cost the maintained path avoids paying per update.
  const auto snapshot = session->Snapshot();
  Timer full_timer;
  auto full = MatchStrong(prepared.pattern(), *snapshot);
  run.full_match_seconds = full_timer.Seconds();
  if (!full.ok() || full->size() != run.final_matches) {
    std::printf("error: from-scratch result disagrees with maintained\n");
    run.updates_applied = 0;
  }
  return run;
}

// The reference MutableGraph::Snapshot() is timed against: every edge
// pushed through AddEdge, then Finalize().
Graph SnapshotThroughFinalize(const MutableGraph& m) {
  Graph g;
  for (NodeId v = 0; v < m.num_nodes(); ++v) g.AddNode(m.label(v));
  for (NodeId v = 0; v < m.num_nodes(); ++v) {
    const auto nbrs = m.OutNeighbors(v);
    const auto elabels = m.OutEdgeLabels(v);
    for (size_t i = 0; i < nbrs.size(); ++i) g.AddEdge(v, nbrs[i], elabels[i]);
  }
  g.Finalize();
  return g;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

}  // namespace

int main() {
  const BenchScale scale = BenchScale::FromEnv();
  bench::PrintHeader("Incremental updates",
                     "continuous-query maintenance vs full recompute",
                     scale);

  const uint32_t n_small = scale.Pick(6000, 12500);
  const uint32_t n_large = 4 * n_small;  // 50k at full scale
  const size_t kUpdates = 40;
  bench::JsonReport report("incremental_updates");
  // Caches off: this harness measures the maintenance path itself.
  const Engine engine = bench::MeasurementEngine();

  // One pattern shared by every size, so the ball radius dQ is identical
  // across the |V| sweep.
  std::vector<Label> pool{0, 1, 2, 3};
  const Graph pattern = RandomPattern(4, 1.2, pool, /*seed=*/19);
  auto prepared = engine.Prepare(pattern);
  if (!prepared.ok()) {
    std::printf("error: %s\n", prepared.status().ToString().c_str());
    return 1;
  }
  std::printf("pattern: %zu nodes, %zu edges, dQ = %u; data: uniform, "
              "avg degree %.1f, %u labels\n\n",
              pattern.num_nodes(), pattern.num_edges(), prepared->diameter(),
              kAvgDegree, kLabels);

  TablePrinter table({"|V|", "mean update(ms)", "affected/total",
                      "full match(s)", "speedup"});
  std::vector<UpdateRun> runs;
  for (const uint32_t n : {n_small, n_large}) {
    const Graph g = MakeFixedDegreeGraph(n, /*seed=*/71);
    const UpdateRun run = DriveUpdates(engine, *prepared, g, kUpdates, 73);
    if (run.updates_applied == 0) return 1;
    runs.push_back(run);

    const double speedup =
        run.mean_update_seconds > 0
            ? run.full_match_seconds / run.mean_update_seconds
            : 0;
    table.AddRow({WithThousandsSeparators(g.num_nodes()),
                  FormatDouble(run.mean_update_seconds * 1e3, 3),
                  FormatDouble(run.mean_affected_ratio, 4),
                  FormatDouble(run.full_match_seconds, 4),
                  FormatDouble(speedup, 1) + "x"});
    const std::string size_tag = "V=" + std::to_string(g.num_nodes());
    report.Add("update_mean/" + size_tag, run.mean_update_seconds);
    report.Add("full_match/" + size_tag, run.full_match_seconds);
    report.Add("affected_ratio/" + size_tag, run.mean_affected_ratio);
  }
  std::printf("%s", table.Render().c_str());

  // -- batch vs one-by-one ------------------------------------------------
  // A clustered edit set (10 edges around one node's 2-hop neighborhood)
  // as one ApplyBatch vs 10 single updates: the batch collects affected
  // centers once across all edits.
  const Graph g = MakeFixedDegreeGraph(n_small, /*seed=*/71);
  std::vector<GraphEdit> edits;
  for (NodeId hub = 10; edits.size() < 10 && hub < g.num_nodes(); ++hub) {
    for (NodeId v : g.OutNeighbors(hub)) {
      for (NodeId w : g.OutNeighbors(v)) {
        if (w != hub && !g.HasEdge(hub, w) && edits.size() < 10) {
          edits.push_back(GraphEdit::InsertEdge(hub, w));
        }
      }
    }
  }
  auto batch_session = engine.OpenIncremental(*prepared, g);
  auto single_session = engine.OpenIncremental(*prepared, g);
  if (!batch_session.ok() || !single_session.ok()) return 1;
  Timer batch_timer;
  if (!batch_session->ApplyBatch(edits).ok()) {
    std::printf("error: batch failed\n");
    return 1;
  }
  const double batch_seconds = batch_timer.Seconds();
  const size_t batch_affected = batch_session->last_update().affected_centers;
  Timer singles_timer;
  size_t singles_affected = 0;
  for (const GraphEdit& edit : edits) {
    if (!single_session->InsertEdge(edit.from, edit.to).ok()) {
      std::printf("error: single insert failed\n");
      return 1;
    }
    singles_affected += single_session->last_update().affected_centers;
  }
  const double singles_seconds = singles_timer.Seconds();
  std::printf("\nbatch of %zu edits: %.3f ms, %zu balls repaired "
              "(one-by-one: %.3f ms, %zu balls)\n",
              edits.size(), batch_seconds * 1e3, batch_affected,
              singles_seconds * 1e3, singles_affected);
  report.Add("batch_10_edits", batch_seconds);
  report.Add("singles_10_edits", singles_seconds);

  // -- snapshot_publish ---------------------------------------------------
  // The serving writer's graph shape (20k uniform nodes, alpha 1.2, 200
  // labels) after 200 random labeled edits, so some rows are out of order
  // and some targets carry parallel labels. The two builds are
  // interleaved and each takes the median of its repetitions.
  constexpr uint32_t kSnapshotNodes = 20000;
  constexpr int kSnapshotReps = 9;
  MutableGraph live(MakeUniform(kSnapshotNodes, 1.2, 200, /*seed=*/29));
  Rng edit_rng(31);
  for (int applied = 0; applied < 200;) {
    const NodeId u = static_cast<NodeId>(edit_rng.Uniform(kSnapshotNodes));
    const NodeId v = static_cast<NodeId>(edit_rng.Uniform(kSnapshotNodes));
    const EdgeLabel label = static_cast<EdgeLabel>(edit_rng.Uniform(3));
    const bool ok = edit_rng.Bernoulli(0.7) || live.OutDegree(u) == 0
                        ? live.InsertEdge(u, v, label).ok()
                        : live.RemoveEdge(u, live.OutNeighbors(u)[0],
                                          live.OutEdgeLabels(u)[0])
                              .ok();
    applied += ok;
  }
  const bool snapshots_equal = [&live] {
    const Graph bulk = live.Snapshot();
    const Graph reference = SnapshotThroughFinalize(live);
    return bulk.StructurallyEqual(reference, /*compare_edge_labels=*/true) &&
           bulk.ContentHash() == reference.ContentHash();
  }();
  // Each timed graph is freed outside its timer; the order alternates so
  // neither build always runs on the heap the other just released.
  const auto seconds_of = [&live](auto build) {
    Timer timer;
    const Graph built = build(live);
    return timer.Seconds();
  };
  std::vector<double> bulk_seconds, reference_seconds;
  for (int rep = 0; rep < kSnapshotReps; ++rep) {
    const auto time_bulk = [&] {
      bulk_seconds.push_back(
          seconds_of([](const MutableGraph& m) { return m.Snapshot(); }));
    };
    const auto time_reference = [&] {
      reference_seconds.push_back(seconds_of(SnapshotThroughFinalize));
    };
    if (rep % 2 == 0) {
      time_bulk();
      time_reference();
    } else {
      time_reference();
      time_bulk();
    }
  }
  const double bulk_median = Median(bulk_seconds);
  const double reference_median = Median(reference_seconds);
  const double snapshot_speedup =
      bulk_median > 0 ? reference_median / bulk_median : 0;
  std::printf("\nsnapshot of %s nodes, %s edges: bulk %.2f ms, "
              "AddEdge + Finalize %.2f ms (%.1fx; median of %d)\n",
              WithThousandsSeparators(live.num_nodes()).c_str(),
              WithThousandsSeparators(live.num_edges()).c_str(),
              bulk_median * 1e3, reference_median * 1e3, snapshot_speedup,
              kSnapshotReps);
  const std::string snapshot_tag = "V=" + std::to_string(kSnapshotNodes);
  report.Add("snapshot_bulk/" + snapshot_tag, bulk_median);
  report.Add("snapshot_finalize_reference/" + snapshot_tag, reference_median);

  // -- SHAPE-CHECK --------------------------------------------------------
  const double size_blowup =
      runs[0].mean_update_seconds > 0
          ? runs[1].mean_update_seconds / runs[0].mean_update_seconds
          : 0;
  std::printf("\nper-update latency %0.2fx at 4x |V| "
              "(O(affected balls), not O(V+E))\n",
              size_blowup);
  bench::ShapeCheck(runs[0].full_match_seconds >
                        5 * runs[0].mean_update_seconds &&
                        runs[1].full_match_seconds >
                            5 * runs[1].mean_update_seconds,
                    "repairing an update beats a full recompute by > 5x at "
                    "both sizes");
  bench::ShapeCheck(runs[0].mean_affected_ratio < 0.1 &&
                        runs[1].mean_affected_ratio < 0.1,
                    "an update recomputes < 10% of the balls (locality)");
  bench::ShapeCheck(size_blowup < 2.5,
                    "per-update latency does not scale with |V| (4x nodes "
                    "-> < 2.5x latency; ball sizes dominate)");
  bench::ShapeCheck(
      batch_affected <= singles_affected,
      "ApplyBatch repairs overlapping neighborhoods at most once");
  bench::ShapeCheck(snapshots_equal,
                    "the bulk snapshot equals the AddEdge + Finalize() "
                    "rebuild (edges, edge labels, content hash)");
  bench::ShapeCheck(snapshot_speedup >= 2.0,
                    "the bulk snapshot is >= 2x faster than the AddEdge + "
                    "Finalize() rebuild");
  return 0;
}
