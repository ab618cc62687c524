// Streaming watchlist: keep a strong-simulation result live while the
// graph changes — the paper's §6 "incremental methods" future-work item.
//
// Scenario: a fraud-style triangle pattern (account -> mule -> cashout ->
// account) watched over a growing transaction graph. Each inserted edge
// repairs only the balls near its endpoints (strong simulation's
// locality), and the watcher reports newly appearing matches.

#include <cstdio>

#include "api/engine.h"
#include "extensions/incremental.h"
#include "graph/generator.h"

int main() {
  using namespace gpm;

  LabelDictionary labels;
  const Label kAccount = labels.Intern("account");
  const Label kMule = labels.Intern("mule");
  const Label kCashout = labels.Intern("cashout");

  Graph q;
  NodeId acc = q.AddNode(kAccount);
  NodeId mule = q.AddNode(kMule);
  NodeId cash = q.AddNode(kCashout);
  q.AddEdge(acc, mule);
  q.AddEdge(mule, cash);
  q.AddEdge(cash, acc);
  q.Finalize();

  // Background graph: accounts/mules/cashouts with random transfers, but
  // no complete triangle yet.
  Graph g;
  Rng rng(81);
  const int kNodes = 3000;
  for (int i = 0; i < kNodes; ++i) {
    const double roll = rng.NextDouble();
    g.AddNode(roll < 0.7 ? kAccount : (roll < 0.9 ? kMule : kCashout));
  }
  for (int e = 0; e < 3 * kNodes; ++e) {
    NodeId a = static_cast<NodeId>(rng.Uniform(kNodes));
    NodeId b = static_cast<NodeId>(rng.Uniform(kNodes));
    // Never close a cashout->account edge in the base graph.
    if (a != b && !(g.label(a) == kCashout && g.label(b) == kAccount)) {
      g.AddEdge(a, b);
    }
  }
  g.Finalize();

  // Initial sweep through the facade's streaming path: each ring is
  // handed to the sink as its ball completes, without materializing Θ —
  // the shape a production watcher forwards alerts in.
  Engine engine;
  auto prepared = engine.Prepare(q);
  if (!prepared.ok()) {
    std::printf("error: %s\n", prepared.status().ToString().c_str());
    return 1;
  }
  MatchRequest request;
  request.algo = Algo::kStrong;
  size_t streamed = 0;
  auto scan = engine.Match(*prepared, g, request,
                           [&streamed](PerfectSubgraph&&) {
                             ++streamed;
                             return true;  // false would stop the scan
                           });
  if (!scan.ok()) {
    std::printf("error: %s\n", scan.status().ToString().c_str());
    return 1;
  }

  // Parallel streaming mode: the same sweep fanned out over the cores.
  // Ball workers hand completed rings through a bounded queue, so the
  // first alert fires while most of the graph is still being scanned —
  // compare first-delivery latency against the total wall time.
  request.policy = ExecPolicy::Parallel();
  size_t streamed_parallel = 0;
  auto parallel_scan = engine.Match(*prepared, g, request,
                                    [&streamed_parallel](PerfectSubgraph&&) {
                                      ++streamed_parallel;
                                      return true;
                                    });
  if (!parallel_scan.ok()) {
    std::printf("error: %s\n", parallel_scan.status().ToString().c_str());
    return 1;
  }
  if (streamed_parallel > 0) {
    std::printf("parallel streaming sweep: first of %zu result(s) delivered "
                "at %.2f ms of %.2f ms total\n",
                streamed_parallel,
                parallel_scan->stats.seconds_to_first_subgraph * 1e3,
                parallel_scan->stats.total_seconds * 1e3);
  } else {
    std::printf("parallel streaming sweep: no matches yet (%.2f ms)\n",
                parallel_scan->stats.total_seconds * 1e3);
  }

  // Open a continuous query through the facade: the prepared pattern is
  // maintained over a mutable copy of g, and every update streams its net
  // {added, removed} rings to the delta sink — the alerting channel.
  size_t alerts = 0;
  IncrementalOptions session_options;
  session_options.delta_sink = [&alerts](SubgraphDelta&& delta) {
    if (delta.kind == SubgraphDelta::Kind::kAdded) {
      ++alerts;
      std::printf("  ALERT: new ring around node %u (%zu nodes)\n",
                  delta.subgraph.center, delta.subgraph.nodes.size());
    }
    return true;  // false would mute the stream
  };
  auto session = engine.OpenIncremental(*prepared, g, session_options);
  if (!session.ok()) {
    std::printf("error: %s\n", session.status().ToString().c_str());
    return 1;
  }
  std::printf("watching %zu-node transaction graph; initial matches: %zu "
              "(streaming scan saw %zu)\n\n",
              g.num_nodes(), session->CurrentMatches().size(), streamed);

  // Stream suspicious edges: walk account -> mule -> cashout chains and
  // close them with a cashout -> account transfer — exactly the watched
  // ring. Each insert repairs only nearby balls.
  int closed = 0;
  for (NodeId a = 0; a < session->data().num_nodes() && closed < 3; ++a) {
    const MutableGraph& data = session->data();
    if (data.label(a) != kAccount) continue;
    NodeId found_cash = kInvalidNode;
    for (NodeId m : data.OutNeighbors(a)) {
      if (data.label(m) != kMule) continue;
      for (NodeId c : data.OutNeighbors(m)) {
        if (data.label(c) == kCashout && !data.HasEdge(c, a)) {
          found_cash = c;
          break;
        }
      }
      if (found_cash != kInvalidNode) break;
    }
    if (found_cash == kInvalidNode) continue;
    const size_t alerts_before = alerts;
    if (!session->InsertEdge(found_cash, a).ok()) continue;
    const auto& stats = session->last_update();
    if (alerts > alerts_before) {
      ++closed;
      std::printf("edge cashout#%u -> account#%u completed a ring "
                  "(repaired %zu of %zu balls in %.1f ms)\n",
                  found_cash, a, stats.affected_centers, stats.total_centers,
                  stats.seconds * 1e3);
    }
  }

  const auto matches = session->CurrentMatches();
  std::printf("\n%zu ring(s) live\n", matches.size());
  return 0;
}
