// Multi-threaded Match: the Fig. 3 loop is embarrassingly parallel over
// ball centers (every ball is processed independently; Theorem 1 makes
// the result set order-insensitive). The paper exploits this across
// machines (§4.3); these entry points exploit it across cores, sharing the
// one-time preprocessing (minQ, global dual filter).
//
// They are the serial MatchStrong / MatchStrongStream run with a thread
// count: the same run state and the same single-program RunBallPrograms
// loop (matching/ball_executor.h), whose workers shard the centers and
// push each perfect subgraph into one bounded queue the calling thread
// drains. MatchStrongParallelStream forwards each subgraph to a
// SubgraphSink as it arrives — time-to-first-result is one ball, not the
// whole run — and MatchStrongParallel collects the stream into the
// deterministic batch result. Both are defined in strong_simulation.cc.

#ifndef GPM_MATCHING_PARALLEL_MATCH_H_
#define GPM_MATCHING_PARALLEL_MATCH_H_

#include <cstddef>

#include "matching/strong_simulation.h"

namespace gpm {

/// MatchStrong semantics, computed with `num_threads` workers
/// (0 = hardware concurrency). Returns the identical dedup'd result set,
/// sorted by (center, content hash) — byte-identical to the sequential
/// MatchStrong output for every thread count (when dedup keeps one of
/// several content-equal subgraphs, the smallest-center instance is kept,
/// exactly as the sequential center-order scan does). `prep`, when
/// non-null, supplies the precomputed per-pattern state (from
/// PreparePattern on the same pattern).
/// `filter`, when non-null and options.dual_filter is set, supplies a
/// memoized ComputeDualFilter result for the same (q, g,
/// options.minimize_query), skipping the global fixpoint. `csr`, when
/// non-null, supplies a memoized CSR snapshot of g (CsrGraph::FromGraph on
/// the same finalized graph) that all workers build balls from; a local
/// conversion is made otherwise. `aux`, when non-null, supplies a memoized
/// BuildAuxGraph result (pruned adjacency + landmark-filtered centers) for
/// the same (filter, csr) at the run's radius; dual-filtered runs build
/// one locally otherwise. Results are identical either way.
Result<std::vector<PerfectSubgraph>> MatchStrongParallel(
    const Graph& q, const Graph& g, const MatchOptions& options = {},
    size_t num_threads = 0, MatchStats* stats = nullptr,
    const PatternPrep* prep = nullptr, const DualFilterResult* filter = nullptr,
    const CsrGraph* csr = nullptr, const AuxGraphResult* aux = nullptr);

/// MatchStrongStream semantics on `num_threads` workers: ball workers push
/// perfect subgraphs into a bounded queue as each ball completes, and the
/// calling thread dedups (shared seen-hash set) and invokes `sink` in
/// order of arrival — which varies run to run; the delivered *set* does
/// not (Theorem 1). A false return from the sink cancels the outstanding
/// shards (workers observe the queue's cancellation token between balls)
/// and the call returns promptly. Returns the number delivered.
Result<size_t> MatchStrongParallelStream(
    const Graph& q, const Graph& g, const MatchOptions& options,
    size_t num_threads, const SubgraphSink& sink, MatchStats* stats = nullptr,
    const PatternPrep* prep = nullptr, const DualFilterResult* filter = nullptr,
    const CsrGraph* csr = nullptr, const AuxGraphResult* aux = nullptr);

}  // namespace gpm

#endif  // GPM_MATCHING_PARALLEL_MATCH_H_
