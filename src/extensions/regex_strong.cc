#include "extensions/regex_strong.h"

#include <algorithm>
#include <utility>

#include "common/bitset.h"
#include "common/logging.h"
#include "common/timer.h"
#include "graph/components.h"
#include "graph/csr_graph.h"
#include "matching/aux_graph.h"
#include "matching/ball.h"
#include "matching/ball_executor.h"

namespace gpm {

namespace {

// Reverses a constraint: parent witnesses walk the reversed graph, so the
// atom order flips (labels and repetition bounds are unchanged).
RegexPath ReversePath(const RegexPath& path) {
  return RegexPath(path.rbegin(), path.rend());
}

// Fills the scratch's reversed-constraint-path cache for `query`:
// reversed_paths[in_path_offsets[u] + i] reverses the constraint on the
// pattern edge (InNeighbors(u)[i], u). Cached on query identity so the
// fixpoint's backward checks stop re-reversing atom lists per candidate.
void EnsureReversedPaths(const RegexQuery& query,
                         internal::RegexBallScratch* ws) {
  if (ws->paths_for_query == &query) return;
  const Graph& q = query.pattern();
  const size_t nq = q.num_nodes();
  ws->reversed_paths.clear();
  ws->in_path_offsets.assign(nq + 1, 0);
  for (NodeId u = 0; u < nq; ++u) {
    ws->in_path_offsets[u] = ws->reversed_paths.size();
    for (NodeId u2 : q.InNeighbors(u)) {
      ws->reversed_paths.push_back(ReversePath(query.ConstraintFor(u2, u)));
    }
  }
  ws->in_path_offsets[nq] = ws->reversed_paths.size();
  ws->paths_for_query = &query;
}

// The greatest-fixpoint core shared by the global relation and the
// per-ball evaluation: consumes ws->cand (per-query-node candidate lists,
// sorted ascending) and removes pairs violating the child or parent
// regex-witness condition until stable, writing the result to *out. Any
// start set sandwiched between the maximum relation and the label classes
// converges to the maximum relation, which is what lets balls start from
// the projected global filter. On return ws->member[u] exactly mirrors
// out->sim[u]. All workspace buffers (the transpose graph, the membership
// bitmaps, the relation's inner vectors) are reused across calls.
void RegexDualFixpointInto(const RegexQuery& query, const Graph& g,
                           internal::RegexBallScratch* ws,
                           MatchRelation* out) {
  const Graph& q = query.pattern();
  GPM_CHECK(g.finalized());
  const size_t nq = q.num_nodes();
  const size_t n = g.num_nodes();
  g.ReversedInto(&ws->reversed);  // carries edge labels
  const Graph& reversed = ws->reversed;
  EnsureReversedPaths(query, ws);

  out->sim.resize(nq);
  if (ws->member.size() < nq) ws->member.resize(nq);
  auto& member = ws->member;
  for (NodeId u = 0; u < nq; ++u) {
    // Swap (not move) so the candidate vector keeps its capacity for the
    // next ball.
    out->sim[u].swap(ws->cand[u]);
    member[u].Reinit(n);
    for (NodeId v : out->sim[u]) member[u].Set(v);
  }

  auto has_forward_witness = [&](NodeId v, const RegexPath& path,
                                 const DynamicBitset& targets) {
    for (NodeId w : internal::RegexReachableSet(g, v, path)) {
      if (targets.Test(w)) return true;
    }
    return false;
  };
  auto has_backward_witness = [&](NodeId v, const RegexPath& rpath,
                                  const DynamicBitset& sources) {
    // A path from some source to v spelling the constraint is a
    // reversed-graph path from v spelling the reversed atom sequence.
    for (NodeId w : internal::RegexReachableSet(reversed, v, rpath)) {
      if (sources.Test(w)) return true;
    }
    return false;
  };

  bool changed = true;
  while (changed) {
    changed = false;
    for (NodeId u = 0; u < nq; ++u) {
      auto& sim_u = out->sim[u];
      const size_t before = sim_u.size();
      auto parents = q.InNeighbors(u);
      const size_t path_base = ws->in_path_offsets[u];
      std::erase_if(sim_u, [&](NodeId v) {
        for (NodeId u2 : q.OutNeighbors(u)) {
          if (!has_forward_witness(v, query.ConstraintFor(u, u2),
                                   member[u2])) {
            member[u].Clear(v);
            return true;
          }
        }
        for (size_t i = 0; i < parents.size(); ++i) {
          if (!has_backward_witness(v, ws->reversed_paths[path_base + i],
                                    member[parents[i]])) {
            member[u].Clear(v);
            return true;
          }
        }
        return false;
      });
      if (sim_u.size() != before) changed = true;
    }
  }
}

std::vector<std::vector<NodeId>> LabelClassCandidates(const RegexQuery& query,
                                                      const Graph& g) {
  const Graph& q = query.pattern();
  std::vector<std::vector<NodeId>> cand(q.num_nodes());
  for (NodeId u = 0; u < q.num_nodes(); ++u) {
    auto cls = g.NodesWithLabel(q.label(u));
    cand[u].assign(cls.begin(), cls.end());
  }
  return cand;
}

Status ValidateRegexPattern(const RegexQuery& query) {
  const Graph& q = query.pattern();
  if (q.num_nodes() == 0)
    return Status::InvalidArgument("pattern graph is empty");
  if (!IsConnected(q))
    return Status::InvalidArgument("pattern graph must be connected");
  return Status::OK();
}

}  // namespace

MatchRelation ComputeRegexDualSimulation(const RegexQuery& query,
                                         const Graph& g) {
  internal::RegexBallScratch scratch;
  scratch.cand = LabelClassCandidates(query, g);
  MatchRelation rel;
  RegexDualFixpointInto(query, g, &scratch, &rel);
  return rel;
}

uint32_t DefaultRegexRadius(const RegexQuery& query, uint32_t unbounded_cap) {
  const Graph& q = query.pattern();
  const size_t nq = q.num_nodes();
  if (nq == 0) return 0;
  auto edge_weight = [&](NodeId u, NodeId u2) -> uint64_t {
    uint64_t total = 0;
    for (const RegexAtom& atom : query.ConstraintFor(u, u2)) {
      total += atom.max_reps == kUnboundedReps
                   ? std::max(atom.min_reps, unbounded_cap)
                   : atom.max_reps;
    }
    return std::max<uint64_t>(total, 1);
  };

  // Floyd-Warshall over the undirected weighted pattern (patterns are
  // small; §2.1 assumes them connected).
  constexpr uint64_t kInf = UINT64_MAX / 4;
  std::vector<std::vector<uint64_t>> dist(nq, std::vector<uint64_t>(nq, kInf));
  for (NodeId u = 0; u < nq; ++u) dist[u][u] = 0;
  for (NodeId u = 0; u < nq; ++u) {
    for (NodeId u2 : q.OutNeighbors(u)) {
      const uint64_t w = edge_weight(u, u2);
      dist[u][u2] = std::min(dist[u][u2], w);
      dist[u2][u] = std::min(dist[u2][u], w);
    }
  }
  for (size_t k = 0; k < nq; ++k) {
    for (size_t i = 0; i < nq; ++i) {
      for (size_t j = 0; j < nq; ++j) {
        dist[i][j] = std::min(dist[i][j], dist[i][k] + dist[k][j]);
      }
    }
  }
  uint64_t diameter = 0;
  for (size_t i = 0; i < nq; ++i) {
    for (size_t j = 0; j < nq; ++j) {
      if (dist[i][j] < kInf) diameter = std::max(diameter, dist[i][j]);
    }
  }
  return static_cast<uint32_t>(diameter);
}

Result<DualFilterResult> ComputeRegexFilter(const RegexQuery& query,
                                            const Graph& g) {
  GPM_CHECK(g.finalized());
  GPM_RETURN_NOT_OK(ValidateRegexPattern(query));
  Timer timer;
  const MatchRelation global = ComputeRegexDualSimulation(query, g);
  DualFilterResult out;
  if (!global.IsTotal()) {
    // Every ball's relation is contained in the global one, so an empty
    // global sim list empties it in every ball: Θ = ∅.
    out.proven_empty = true;
    out.seconds = timer.Seconds();
    return out;
  }
  const size_t nq = query.pattern().num_nodes();
  out.bits.assign(nq, DynamicBitset(g.num_nodes()));
  DynamicBitset any_match(g.num_nodes());
  for (size_t u = 0; u < nq; ++u) {
    for (NodeId v : global.sim[u]) {
      out.bits[u].Set(v);
      any_match.Set(v);
    }
  }
  any_match.ForEach(
      [&](size_t v) { out.centers.push_back(static_cast<NodeId>(v)); });
  out.seconds = timer.Seconds();
  return out;
}

namespace internal {

Status BuildRegexRunState(const RegexQuery& query, const Graph& g,
                          uint32_t radius, const DualFilterResult* filter,
                          RegexRunState* state, MatchStats* stats) {
  GPM_CHECK(g.finalized());
  GPM_RETURN_NOT_OK(ValidateRegexPattern(query));
  if (radius == 0) radius = DefaultRegexRadius(query);
  state->context.query = &query;
  state->context.radius = radius;
  stats->pattern_diameter = radius;

  if (filter == nullptr) {
    // The global regex filter is always on (the regex analog of §4.2's
    // dual filter): when the caller has no memoized result, compute one
    // here. Sound per the ComputeRegexFilter contract — every ball's
    // relation is contained in the global one, so pruned centers cannot
    // yield perfect subgraphs and results are unchanged.
    GPM_ASSIGN_OR_RETURN(state->filter_storage, ComputeRegexFilter(query, g));
    stats->global_filter_seconds += state->filter_storage.seconds;
    filter = &state->filter_storage;
  }

  if (filter->proven_empty) {
    stats->balls_skipped_filter = g.num_nodes();
    state->proven_empty = true;
    return Status::OK();
  }
  GPM_CHECK_EQ(filter->bits.size(), query.pattern().num_nodes());
  state->context.global_bits = &filter->bits;
  state->centers = &filter->centers;
  stats->balls_skipped_filter = g.num_nodes() - filter->centers.size();
  return Status::OK();
}

std::optional<PerfectSubgraph> ProcessRegexBall(
    const RegexMatchContext& context, const Ball& ball, MatchStats* stats,
    RegexBallScratch* scratch) {
  RegexBallScratch local_scratch;
  if (scratch == nullptr) scratch = &local_scratch;
  ScopedSecondsAccumulator stage(&stats->refine_seconds);
  const RegexQuery& query = *context.query;
  const Graph& q = query.pattern();
  const size_t nq = q.num_nodes();
  const size_t bn = ball.graph.num_nodes();
  ++stats->balls_considered;

  // Initial candidates (local ids): the global filter projected into the
  // ball when one ran, label classes otherwise. Either start set contains
  // the ball's maximum relation, so the fixpoint lands on the same Sw.
  auto& cand = scratch->cand;
  if (cand.size() < nq) cand.resize(nq);
  for (size_t u = 0; u < nq; ++u) cand[u].clear();
  if (context.global_bits != nullptr) {
    for (size_t u = 0; u < nq; ++u) {
      const DynamicBitset& bits = (*context.global_bits)[u];
      for (NodeId local = 0; local < bn; ++local) {
        if (bits.Test(ball.to_global[local])) cand[u].push_back(local);
      }
    }
  } else {
    for (NodeId u = 0; u < nq; ++u) {
      auto cls = ball.graph.NodesWithLabel(q.label(u));
      cand[u].assign(cls.begin(), cls.end());
    }
  }
  for (size_t u = 0; u < nq; ++u) {
    stats->candidate_pairs_refined += cand[u].size();
  }

  RegexDualFixpointInto(query, ball.graph, scratch, &scratch->sw);
  const MatchRelation& sw = scratch->sw;
  if (!sw.IsTotal()) {
    ++stats->balls_center_unmatched;
    return std::nullopt;
  }
  // Post-fixpoint, scratch->member[u] mirrors sw.sim[u] exactly.
  const NodeId center = ball.LocalCenter();
  bool center_matched = false;
  for (size_t u = 0; u < nq; ++u) {
    if (scratch->member[u].Test(center)) {
      center_matched = true;
      break;
    }
  }
  if (!center_matched) {
    ++stats->balls_center_unmatched;
    return std::nullopt;
  }

  // Virtual match graph: (v, v') for every regex witness pair, dense
  // undirected adjacency over local ids.
  auto& adj = scratch->adj;
  if (adj.size() < bn) adj.resize(bn);
  for (size_t v = 0; v < bn; ++v) adj[v].clear();
  auto& virtual_edges = scratch->virtual_edges;
  virtual_edges.clear();
  for (NodeId u = 0; u < nq; ++u) {
    for (NodeId u2 : q.OutNeighbors(u)) {
      const RegexPath& path = query.ConstraintFor(u, u2);
      for (NodeId v : sw.sim[u]) {
        for (NodeId t : internal::RegexReachableSet(ball.graph, v, path)) {
          if (!scratch->member[u2].Test(t)) continue;
          virtual_edges.emplace_back(v, t);
          adj[v].push_back(t);
          adj[t].push_back(v);
        }
      }
    }
  }

  // Component of the center over virtual edges.
  DynamicBitset& in_component = scratch->in_component;
  in_component.Reinit(bn);
  in_component.Set(center);
  auto& stack = scratch->stack;
  stack.clear();
  stack.push_back(center);
  while (!stack.empty()) {
    NodeId v = stack.back();
    stack.pop_back();
    for (NodeId x : adj[v]) {
      if (!in_component.Test(x)) {
        in_component.Set(x);
        stack.push_back(x);
      }
    }
  }

  PerfectSubgraph pg;
  pg.center = ball.center;
  pg.radius = context.radius;
  pg.relation = MatchRelation(nq);
  for (NodeId u = 0; u < nq; ++u) {
    for (NodeId v : sw.sim[u]) {
      if (in_component.Test(v)) {
        pg.relation.sim[u].push_back(ball.to_global[v]);
        pg.nodes.push_back(ball.to_global[v]);
      }
    }
    std::sort(pg.relation.sim[u].begin(), pg.relation.sim[u].end());
  }
  std::sort(pg.nodes.begin(), pg.nodes.end());
  pg.nodes.erase(std::unique(pg.nodes.begin(), pg.nodes.end()),
                 pg.nodes.end());
  for (const auto& [a, b] : virtual_edges) {
    if (in_component.Test(a) && in_component.Test(b)) {
      pg.edges.emplace_back(ball.to_global[a], ball.to_global[b]);
    }
  }
  std::sort(pg.edges.begin(), pg.edges.end());
  pg.edges.erase(std::unique(pg.edges.begin(), pg.edges.end()),
                 pg.edges.end());
  return pg;
}

}  // namespace internal

AuxGraphResult BuildRegexAuxGraph(const RegexQuery& query, const CsrGraph& csr,
                                  const DualFilterResult& filter,
                                  uint32_t radius) {
  // The kept-edge rule: the union of constraint-atom labels across every
  // pattern edge — ConstraintFor supplies the one-wildcard-hop default for
  // unconstrained edges, so those (and any explicit wildcard atom) force
  // the keep-everything rule.
  AuxEdgeRule rule;
  rule.by_label = true;
  const Graph& q = query.pattern();
  for (NodeId u = 0; u < q.num_nodes() && !rule.any_label; ++u) {
    for (NodeId u2 : q.OutNeighbors(u)) {
      for (const RegexAtom& atom : query.ConstraintFor(u, u2)) {
        if (atom.label == kAnyEdgeLabel) {
          rule.any_label = true;
          break;
        }
        rule.labels.push_back(atom.label);
      }
      if (rule.any_label) break;
    }
  }
  if (rule.any_label) {
    rule.labels.clear();
  } else {
    std::sort(rule.labels.begin(), rule.labels.end());
    rule.labels.erase(std::unique(rule.labels.begin(), rule.labels.end()),
                      rule.labels.end());
  }
  return BuildAuxGraph(csr, filter, radius, rule);
}

namespace {

// One lone regex run on `threads` ball workers: run-state setup, then the
// query as the single program of one RunBallPrograms loop, streamed into
// `sink` (first-arrival dedup when `dedup`).
Result<size_t> StreamStrongRegex(const RegexQuery& query, const Graph& g,
                                 uint32_t radius, size_t threads, bool dedup,
                                 const SubgraphSink& sink, MatchStats* stats,
                                 const DualFilterResult* filter,
                                 const CsrGraph* csr,
                                 const AuxGraphResult* aux) {
  Timer total_timer;
  MatchStats local_stats;
  internal::RegexRunState state;
  GPM_RETURN_NOT_OK(internal::BuildRegexRunState(query, g, radius, filter,
                                                 &state, &local_stats));
  size_t delivered = 0;
  if (!state.proven_empty) {
    CsrGraph local_csr;
    if (csr == nullptr) {
      local_csr = CsrGraph::FromGraph(g);
      csr = &local_csr;
    }
    // The regex filter is always on, so the ball loop always runs over
    // the pruned constraint-label adjacency: the caller's memoized one if
    // provided, a local build otherwise.
    AuxGraphResult local_aux;
    if (aux == nullptr) {
      const DualFilterResult* source =
          filter != nullptr ? filter : &state.filter_storage;
      local_aux =
          BuildRegexAuxGraph(query, *csr, *source, state.context.radius);
      local_stats.global_filter_seconds += local_aux.seconds;
      aux = &local_aux;
    }
    GPM_CHECK_EQ(aux->radius, state.context.radius);
    local_stats.balls_skipped_index = aux->centers_skipped_index;

    internal::BallProgram program;
    program.context = state.context;
    program.aux = aux;
    program.stats = &local_stats;
    delivered =
        internal::RunLoneProgram(program, *csr, state.context.radius, threads,
                                 dedup, sink, total_timer);
  }
  local_stats.total_seconds = total_timer.Seconds();
  if (stats != nullptr) *stats = local_stats;
  return delivered;
}

// Materializes a lone regex run on `threads` workers as the canonical
// batch result.
Result<std::vector<PerfectSubgraph>> CollectStrongRegex(
    const RegexQuery& query, const Graph& g, uint32_t radius, size_t threads,
    MatchStats* stats, const DualFilterResult* filter, const CsrGraph* csr,
    const AuxGraphResult* aux, bool dedup) {
  return internal::CollectCanonical(
      dedup, stats, [&](const SubgraphSink& sink, MatchStats* raw) {
        return StreamStrongRegex(query, g, radius, threads, /*dedup=*/false,
                                 sink, raw, filter, csr, aux);
      });
}

}  // namespace

Result<size_t> MatchStrongRegexStream(const RegexQuery& query, const Graph& g,
                                      uint32_t radius, const SubgraphSink& sink,
                                      MatchStats* stats,
                                      const DualFilterResult* filter,
                                      const CsrGraph* csr,
                                      const AuxGraphResult* aux, bool dedup) {
  return StreamStrongRegex(query, g, radius, /*threads=*/1, dedup, sink,
                           stats, filter, csr, aux);
}

Result<std::vector<PerfectSubgraph>> MatchStrongRegex(
    const RegexQuery& query, const Graph& g, uint32_t radius,
    MatchStats* stats, const DualFilterResult* filter, const CsrGraph* csr,
    const AuxGraphResult* aux, bool dedup) {
  return CollectStrongRegex(query, g, radius, /*threads=*/1, stats, filter,
                            csr, aux, dedup);
}

Result<size_t> MatchStrongRegexParallelStream(
    const RegexQuery& query, const Graph& g, uint32_t radius,
    size_t num_threads, const SubgraphSink& sink, MatchStats* stats,
    const DualFilterResult* filter, const CsrGraph* csr,
    const AuxGraphResult* aux, bool dedup) {
  return StreamStrongRegex(query, g, radius,
                           internal::ResolveThreads(num_threads), dedup, sink,
                           stats, filter, csr, aux);
}

Result<std::vector<PerfectSubgraph>> MatchStrongRegexParallel(
    const RegexQuery& query, const Graph& g, uint32_t radius,
    size_t num_threads, MatchStats* stats, const DualFilterResult* filter,
    const CsrGraph* csr, const AuxGraphResult* aux, bool dedup) {
  return CollectStrongRegex(query, g, radius,
                            internal::ResolveThreads(num_threads), stats,
                            filter, csr, aux, dedup);
}

}  // namespace gpm
