// Strong simulation with regular-expression edges — the paper's first §6
// future-work item ("extend strong simulation by incorporating regular
// expressions on edge types, along the same lines as [18]"), realized:
// dual regex-simulation (child AND parent regex witnesses) evaluated in
// balls, with the perfect subgraph extracted from the *virtual* match
// graph whose edges connect regex-witness pairs.
//
// Notes vs the plain-edge case:
//  - intermediate path nodes are not part of a match (only matched nodes
//    are, as in [18]'s result graphs);
//  - the ball radius must account for edge-constraint path lengths;
//    DefaultRegexRadius computes the weighted pattern diameter, counting
//    each constraint as the sum of its atoms' maximum repetitions
//    (unbounded atoms counted as max(min_reps, unbounded_cap)).
//
// Like plain strong simulation, matching is ball-local (Theorem 5.1's
// data locality carries over to weighted-radius balls), so the whole
// executor family of the strong path applies: the per-ball pipeline is
// internal::ProcessRegexBall, driven serially, across cores and inside
// Engine::MatchBatch by the one ball executor shared with plain queries
// (matching/ball_executor.h), and by the §4.3 BSP runtime in
// distributed/distributed_match.h. Every executor returns/delivers the
// same dedup'd Θ; the batch forms are byte-identical (min-center dedup
// representative, (center, content-hash) order).

#ifndef GPM_EXTENSIONS_REGEX_STRONG_H_
#define GPM_EXTENSIONS_REGEX_STRONG_H_

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/bitset.h"
#include "common/result.h"
#include "extensions/regex_pattern.h"
#include "matching/ball.h"
#include "matching/match_relation.h"
#include "matching/strong_simulation.h"

namespace gpm {

/// Maximum dual regex-simulation relation: ComputeRegexSimulation's child
/// condition plus the parent condition — for every pattern edge (u2, u)
/// with constraint R, a match v of u needs an *incoming* path spelling a
/// word of L(R) from some match of u2.
MatchRelation ComputeRegexDualSimulation(const RegexQuery& query,
                                         const Graph& g);

/// Weighted pattern diameter used as the ball radius: undirected
/// all-pairs over the pattern with edge weight = total maximum length of
/// the edge's constraint.
uint32_t DefaultRegexRadius(const RegexQuery& query,
                            uint32_t unbounded_cap = 4);

/// The regex analog of ComputeDualFilter: the global dual
/// regex-simulation relation on (query, g), packed as per-query-node
/// candidate bitmaps over V(G) plus the surviving ball centers. Sound for
/// the same reason as Prop 5: every witness path inside a ball is a path
/// in G, so each ball's maximum relation is contained in the global one —
/// pruned centers cannot yield perfect subgraphs, and the per-ball
/// fixpoint started from the projected bitmaps converges to the same
/// relation as one started from label classes. The memoizable per-(regex
/// pattern, data) product behind the engine's regex-filter cache.
Result<DualFilterResult> ComputeRegexFilter(const RegexQuery& query,
                                            const Graph& g);

/// Strong simulation under regex constraints: one maximum perfect
/// subgraph per ball whose center is matched, dedup'd (min-center
/// representative) and sorted by (center, content hash); `radius` 0 means
/// DefaultRegexRadius. PerfectSubgraph::edges holds the *virtual*
/// regex-witness edges between matched nodes. InvalidArgument if the
/// pattern is empty or disconnected. The global regex filter is always
/// applied: `filter`, when non-null, supplies a memoized
/// ComputeRegexFilter result for the same (query, g); when null the run
/// computes it itself (charged to MatchStats::global_filter_seconds).
/// Either way the ball loop visits only surviving centers and the pruned
/// rest is reported in MatchStats::balls_skipped_filter. `csr`, when
/// non-null, supplies a memoized CsrGraph::FromGraph(g) snapshot the ball
/// builders read; when null the run converts locally. `aux`, when
/// non-null, supplies a memoized BuildRegexAuxGraph result for the same
/// (query, filter, csr) at the run's radius — the pruned adjacency holding
/// only constraint-atom-labeled edges plus the landmark-filtered center
/// list; when null the run builds one locally (the ball loop always
/// executes over it). `dedup` mirrors MatchOptions::dedup: when cleared,
/// the raw one-result-per-ball stream is returned. Results are identical
/// with or without the memoized arguments.
Result<std::vector<PerfectSubgraph>> MatchStrongRegex(
    const RegexQuery& query, const Graph& g, uint32_t radius = 0,
    MatchStats* stats = nullptr, const DualFilterResult* filter = nullptr,
    const CsrGraph* csr = nullptr, const AuxGraphResult* aux = nullptr,
    bool dedup = true);

/// MatchStrongRegex semantics with each perfect subgraph handed to `sink`
/// as its ball completes (ball-center order, first-arrival dedup) instead
/// of materialized into Θ. Returns the number delivered (undercounts Θ
/// iff the sink stopped the scan).
Result<size_t> MatchStrongRegexStream(const RegexQuery& query, const Graph& g,
                                      uint32_t radius, const SubgraphSink& sink,
                                      MatchStats* stats = nullptr,
                                      const DualFilterResult* filter = nullptr,
                                      const CsrGraph* csr = nullptr,
                                      const AuxGraphResult* aux = nullptr,
                                      bool dedup = true);

/// MatchStrongRegex computed on `num_threads` ball workers
/// (0 = hardware concurrency) — byte-identical to the serial result for
/// every thread count.
Result<std::vector<PerfectSubgraph>> MatchStrongRegexParallel(
    const RegexQuery& query, const Graph& g, uint32_t radius = 0,
    size_t num_threads = 0, MatchStats* stats = nullptr,
    const DualFilterResult* filter = nullptr, const CsrGraph* csr = nullptr,
    const AuxGraphResult* aux = nullptr, bool dedup = true);

/// MatchStrongRegexStream on `num_threads` workers: ball workers push
/// completed subgraphs into a bounded queue, the calling thread dedups
/// (shared seen-hash set) and invokes `sink` in arrival order — which
/// varies run to run; the delivered *set* does not. A false return from
/// the sink cancels outstanding shards. Returns the number delivered.
Result<size_t> MatchStrongRegexParallelStream(
    const RegexQuery& query, const Graph& g, uint32_t radius,
    size_t num_threads, const SubgraphSink& sink, MatchStats* stats = nullptr,
    const DualFilterResult* filter = nullptr, const CsrGraph* csr = nullptr,
    const AuxGraphResult* aux = nullptr, bool dedup = true);

/// The regex analog of BuildAuxGraph (matching/aux_graph.h): the pruned
/// adjacency keeps edges whose label appears in some constraint atom of
/// `query` (every edge when any atom — including the one-wildcard-hop
/// default of unconstrained pattern edges — is the any-label wildcard;
/// RegexReachableSet never walks anything else), and the landmark index
/// filters `filter`'s centers at `radius`. `filter` must be a
/// non-proven-empty ComputeRegexFilter result for the same (query, g).
AuxGraphResult BuildRegexAuxGraph(const RegexQuery& query, const CsrGraph& csr,
                                  const DualFilterResult& filter,
                                  uint32_t radius);

namespace internal {

/// Immutable per-run context of one regex match run, shared by every
/// ball — the regex analog of internal::MatchContext.
struct RegexMatchContext {
  const RegexQuery* query = nullptr;
  uint32_t radius = 0;
  /// Global regex-filter bitmaps (ComputeRegexFilter), or null to seed
  /// each ball from label classes.
  const std::vector<DynamicBitset>* global_bits = nullptr;
};

/// Per-run preprocessing of one regex query: the resolved radius and the center list (the regex
/// filter's surviving centers — computed into `filter_storage` when the
/// caller has no memoized one). Owns the storage `context` points into;
/// keep it alive (and unmoved) for the whole run.
struct RegexRunState {
  RegexMatchContext context;
  std::vector<NodeId> centers_storage;
  const std::vector<NodeId>* centers = nullptr;
  /// ComputeRegexFilter result computed by BuildRegexRunState when the
  /// caller supplied none — the filter is always on.
  DualFilterResult filter_storage;
  /// The filter proved Θ = ∅; skip the ball loop.
  bool proven_empty = false;
};

/// Validates (non-empty, connected pattern), resolves `radius` (0 means
/// DefaultRegexRadius), and fills the center list from the global regex
/// filter. `filter`, when non-null, must come from ComputeRegexFilter on
/// the same (query, g); when null the filter is computed here (into
/// `state->filter_storage`, charged to stats->global_filter_seconds), so
/// every executor prunes centers and reports balls_skipped_filter.
Status BuildRegexRunState(const RegexQuery& query, const Graph& g,
                          uint32_t radius, const DualFilterResult* filter,
                          RegexRunState* state, MatchStats* stats);

/// Per-worker scratch for ProcessRegexBall — the regex mirror of
/// internal::MatchScratch. All buffers grow to the worker's high-water
/// ball size and are reused verbatim; a worker processing thousands of
/// balls allocates only while the high-water mark still rises. The
/// reversed constraint paths are cached per query identity so backward
/// witness checks stop re-reversing atom lists per candidate.
struct RegexBallScratch {
  std::vector<std::vector<NodeId>> cand;
  /// Ball transpose for backward witness walks (built via ReversedInto).
  Graph reversed;
  MatchRelation sw;
  /// Candidate membership bitmaps; after the fixpoint these exactly
  /// mirror sw.sim (pairs are cleared as they are removed), so the
  /// match-graph stage reads them directly.
  std::vector<DynamicBitset> member;
  const RegexQuery* paths_for_query = nullptr;
  std::vector<RegexPath> reversed_paths;
  std::vector<size_t> in_path_offsets;
  /// Virtual match graph, dense per local node id.
  std::vector<std::vector<NodeId>> adj;
  std::vector<std::pair<NodeId, NodeId>> virtual_edges;
  DynamicBitset in_component;
  std::vector<NodeId> stack;
};

/// The per-ball pipeline — the regex mirror of internal::ProcessBall:
/// dual regex-simulation on one prebuilt weighted-radius ball (seeded
/// from the projected global filter when the context carries one), the
/// virtual match graph over regex-witness pairs, and the center's
/// component extracted as the perfect subgraph (global ids). Returns
/// nullopt when the ball yields none. The ball must come from
/// BallBuilder::Build on the run's data graph with context.radius.
/// `scratch`, when non-null, supplies reusable buffers (one per worker;
/// not thread-safe); elapsed time is charged to stats->refine_seconds.
std::optional<PerfectSubgraph> ProcessRegexBall(
    const RegexMatchContext& context, const Ball& ball, MatchStats* stats,
    RegexBallScratch* scratch = nullptr);

}  // namespace internal

}  // namespace gpm

#endif  // GPM_EXTENSIONS_REGEX_STRONG_H_
