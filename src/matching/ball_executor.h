// The one ball executor. The Fig. 3 loop is independent per ball — the
// locality property behind §4.3 — so a single per-ball step serves every
// way this library runs it: serially, across cores, batched over several
// queries, and incrementally over the balls an edit touches.
//
//  - RunBallLoop visits an index space [0, n) and drains what the visits
//    emit: inline in the calling thread, or over contiguous shards whose
//    workers push into one BoundedQueue that the calling thread drains.
//  - RunBallPrograms is the per-center body of every strong-family
//    executor (lone plain and regex runs, MatchBatch radius groups): one
//    ball build per center shared by every program that wants it, one
//    refinement per identical per-ball pipeline, and per-program delivery
//    on the draining thread.
//
// Internal; not part of the public API.

#ifndef GPM_MATCHING_BALL_EXECUTOR_H_
#define GPM_MATCHING_BALL_EXECUTOR_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_set>
#include <utility>
#include <variant>
#include <vector>

#include "common/bitset.h"
#include "common/bounded_queue.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "extensions/regex_strong.h"
#include "graph/csr_graph.h"
#include "matching/aux_graph.h"
#include "matching/ball.h"
#include "matching/strong_simulation_internal.h"

namespace gpm::internal {

/// Backpressure window per worker: deep enough to ride out a briefly slow
/// drain, shallow enough that a stopped consumer bounds buffered items.
inline constexpr size_t kQueueDepthPerWorker = 8;

/// A caller's thread count with 0 resolved to hardware concurrency.
inline size_t ResolveThreads(size_t threads) {
  if (threads != 0) return threads;
  return std::max<size_t>(1, std::thread::hardware_concurrency());
}

/// Workers RunBallLoop uses for `n` indices on `threads`; callers size
/// their per-worker state with it.
inline size_t BallLoopWorkers(size_t n, size_t threads) {
  return std::max<size_t>(1, std::min(threads, n));
}

/// Visits every index of [0, n) once and drains the items the visits emit.
///
/// visit(worker, index, emit) handles one index on worker `worker`
/// (< BallLoopWorkers(n, threads); callers keep per-worker state indexed
/// by it) and hands results to emit(Item&&), which returns false once the
/// loop is stopping. drain(Item&&) runs on the calling thread, one item at
/// a time; returning false stops the loop.
///
/// threads <= 1: everything runs in the calling thread and each item is
/// drained inside the emit call, so drain order is index order and a false
/// drain visits nothing further. Otherwise each worker takes one
/// contiguous shard and pushes into one BoundedQueue the caller drains in
/// arrival order; a false drain cancels the queue, and workers stop at
/// their next index or push. `pool`, when non-null, is a caller-owned slot
/// the workers run on: created (or grown) here when too small, and kept
/// across calls so a caller with many small loops pays no thread spawn.
template <typename Item, typename Visit, typename Drain>
void RunBallLoop(size_t n, size_t threads, Visit&& visit, Drain&& drain,
                 std::unique_ptr<ThreadPool>* pool = nullptr) {
  if (threads <= 1) {
    bool stopped = false;
    auto emit = [&](Item&& item) {
      if (!stopped && !drain(std::move(item))) stopped = true;
      return !stopped;
    };
    for (size_t i = 0; i < n && !stopped; ++i) visit(size_t{0}, i, emit);
    return;
  }
  if (n == 0) return;
  const size_t workers = BallLoopWorkers(n, threads);
  const size_t per_worker = (n + workers - 1) / workers;
  std::unique_ptr<ThreadPool> own_pool;
  if (pool == nullptr) pool = &own_pool;
  if (*pool == nullptr || (*pool)->num_threads() < workers) {
    *pool = std::make_unique<ThreadPool>(workers);
  }
  BoundedQueue<Item> queue(workers * kQueueDepthPerWorker);
  std::atomic<size_t> producers{workers};
  for (size_t w = 0; w < workers; ++w) {
    (*pool)->Submit([&, w] {
      auto emit = [&queue](Item&& item) { return queue.Push(std::move(item)); };
      const size_t end = std::min(n, (w + 1) * per_worker);
      for (size_t i = w * per_worker; i < end; ++i) {
        if (queue.token().IsCancelled()) break;
        visit(w, i, emit);
      }
      // Last producer out closes the stream so the drainer unblocks.
      if (producers.fetch_sub(1) == 1) queue.Close();
    });
  }
  while (std::optional<Item> item = queue.Pop()) {
    if (!drain(std::move(*item))) {
      queue.Cancel();
      break;
    }
  }
  (*pool)->Wait();
}

/// Adds the counters and stage seconds a ball loop accumulates — per-ball
/// outcomes, sharing counts, build and refine time — from `from` to `to`.
/// Stage times are CPU-seconds, so merged workers sum.
inline void AddBallCounters(const MatchStats& from, MatchStats* to) {
  to->balls_considered += from.balls_considered;
  to->balls_skipped_pruning += from.balls_skipped_pruning;
  to->balls_center_unmatched += from.balls_center_unmatched;
  to->candidate_pairs_refined += from.candidate_pairs_refined;
  to->balls_shared += from.balls_shared;
  to->dual_relations_shared += from.dual_relations_shared;
  to->ball_build_seconds += from.ball_build_seconds;
  to->refine_seconds += from.refine_seconds;
}

/// Per-worker scratch of both per-ball pipelines.
struct BallScratch {
  MatchScratch plain;
  RegexBallScratch regex;
};

/// The per-ball half of one strong-family query: the context its per-ball
/// pipeline reads — plain or regex — the centers its balls are built at,
/// and where a loop leaves its ball counters. Set up from the query's run
/// state, which must outlive the loop.
struct BallProgram {
  std::variant<MatchContext, RegexMatchContext> context;
  /// The pruned auxiliary adjacency and landmark-filtered centers this
  /// program runs over, or null (full-graph balls at `centers`).
  const AuxGraphResult* aux = nullptr;
  /// The filter's surviving centers; read when `aux` is null.
  const std::vector<NodeId>* centers = nullptr;
  /// Over V(G): the centers this program wants when it shares a loop with
  /// other programs. Empty means every center of the loop.
  DynamicBitset wants;
  /// Set once this program's consumer stopped; ball workers poll it.
  /// Heap-held so programs stay movable.
  std::shared_ptr<std::atomic<bool>> stopped =
      std::make_shared<std::atomic<bool>>(false);
  /// Receives the program's ball counters when a loop ends.
  MatchStats* stats = nullptr;

  const std::vector<NodeId>& Centers() const {
    return aux != nullptr ? aux->centers : *centers;
  }

  bool Wants(NodeId center) const {
    return (wants.size() == 0 || wants.Test(center)) &&
           !stopped->load(std::memory_order_relaxed);
  }

  /// The per-ball pipeline on one prebuilt ball of the program's radius.
  std::optional<PerfectSubgraph> Process(const Ball& ball, MatchStats* delta,
                                         BallScratch* scratch) const {
    if (const auto* plain = std::get_if<MatchContext>(&context)) {
      return ProcessBall(*plain, ball, delta, &scratch->plain);
    }
    return ProcessRegexBall(std::get<RegexMatchContext>(context), ball, delta,
                            &scratch->regex);
  }
};

namespace ball_executor_detail {

// One shared per-ball evaluation in flight: the share root's subgraph and
// stats delta, handed to each member until `remaining` hits zero.
struct SharedEval {
  bool computed = false;
  size_t remaining = 0;
  std::optional<PerfectSubgraph> pg;
  MatchStats delta;
};

template <typename Builder>
struct Worker {
  std::optional<Builder> builder;  // made on the worker's first ball
  Ball ball;
  BallScratch scratch;
  std::vector<size_t> active;       // programs wanting the current ball
  std::vector<size_t> root_active;  // per share root: its active members
  std::vector<SharedEval> eval;     // per share root
  std::vector<MatchStats> stats;    // per program
};

template <typename Builder, typename Deliver, typename... BuilderArgs>
void RunBallProgramsWith(uint32_t radius, const std::vector<NodeId>& centers,
                         const std::vector<BallProgram*>& programs,
                         const std::vector<size_t>& share_root,
                         size_t threads, Deliver& deliver,
                         const BuilderArgs&... builder_args) {
  using Item = std::pair<size_t, PerfectSubgraph>;
  std::vector<Worker<Builder>> workers(
      BallLoopWorkers(centers.size(), threads));
  for (Worker<Builder>& worker : workers) {
    worker.root_active.resize(programs.size());
    worker.eval.resize(programs.size());
    worker.stats.resize(programs.size());
  }
  auto visit = [&](size_t w, size_t i, auto& emit) {
    Worker<Builder>& wk = workers[w];
    const NodeId center = centers[i];
    wk.active.clear();
    for (size_t p = 0; p < programs.size(); ++p) {
      if (programs[p]->Wants(center)) wk.active.push_back(p);
    }
    if (wk.active.empty()) return;  // every wanting program has stopped
    for (const size_t p : wk.active) wk.root_active[share_root[p]] = 0;
    for (const size_t p : wk.active) ++wk.root_active[share_root[p]];
    if (!wk.builder.has_value()) wk.builder.emplace(builder_args...);
    Timer build_timer;
    wk.builder->Build(center, radius, &wk.ball);
    // One shared build, its cost split among the programs that use it, so
    // summed stats reflect the work actually done.
    const double build_seconds =
        build_timer.Seconds() / static_cast<double>(wk.active.size());
    for (const size_t p : wk.active) {
      MatchStats& stats = wk.stats[p];
      stats.ball_build_seconds += build_seconds;
      if (wk.active.size() > 1) ++stats.balls_shared;
      // The share root refines the ball once; identical-pipeline members
      // replicate its counters (each reports the lone-run counts) and
      // split its refine time.
      const size_t r = share_root[p];
      SharedEval& ev = wk.eval[r];
      if (!ev.computed) {
        ev.computed = true;
        ev.delta = MatchStats{};
        ev.pg = programs[r]->Process(wk.ball, &ev.delta, &wk.scratch);
        ev.delta.refine_seconds /= static_cast<double>(wk.root_active[r]);
        ev.remaining = wk.root_active[r];
      }
      AddBallCounters(ev.delta, &stats);
      if (wk.root_active[r] > 1) ++stats.dual_relations_shared;
      std::optional<PerfectSubgraph> pg;
      if (--ev.remaining == 0) {
        pg = std::move(ev.pg);
        ev = SharedEval{};
      } else {
        pg = ev.pg;
      }
      if (pg.has_value()) emit(Item(p, std::move(*pg)));
    }
  };
  RunBallLoop<Item>(centers.size(), threads, visit, [&](Item&& item) {
    return deliver(item.first, std::move(item.second));
  });
  for (const Worker<Builder>& worker : workers) {
    for (size_t p = 0; p < programs.size(); ++p) {
      AddBallCounters(worker.stats[p], programs[p]->stats);
    }
  }
}

}  // namespace ball_executor_detail

/// Runs `programs` over the radius-`radius` balls at `centers` (ascending,
/// unique: the union of the programs' Centers()) on `threads` workers.
/// Each center's ball is built once — over `group_aux` when non-null
/// (every program runs over that one aux graph), the full CSR otherwise —
/// and evaluated once per share root: programs with the same share_root[p]
/// run the identical per-ball pipeline, so the root refines and the others
/// reuse its subgraph. deliver(p, subgraph) runs on the calling thread, in
/// ascending center order when threads <= 1 and in arrival order
/// otherwise; returning false stops the loop. Each program's ball counters
/// are added to its `stats` when the loop ends.
template <typename Deliver>
void RunBallPrograms(const CsrGraph& csr, const AuxGraphResult* group_aux,
                     uint32_t radius, const std::vector<NodeId>& centers,
                     const std::vector<BallProgram*>& programs,
                     const std::vector<size_t>& share_root, size_t threads,
                     Deliver&& deliver) {
  if (group_aux != nullptr) {
    ball_executor_detail::RunBallProgramsWith<AuxBallBuilder>(
        radius, centers, programs, share_root, threads, deliver, csr,
        *group_aux);
  } else {
    ball_executor_detail::RunBallProgramsWith<CsrBallBuilder>(
        radius, centers, programs, share_root, threads, deliver, csr);
  }
}

/// Streamed delivery of one program: first-arrival dedup on content hash
/// (when `dedup`), the first-result clock and emit timing, then the sink.
/// Runs on the draining thread only.
struct StreamDelivery {
  bool dedup = true;
  std::unordered_set<uint64_t> seen_hashes;
  size_t delivered = 0;

  /// The sink's verdict; true for a dropped duplicate.
  bool Deliver(PerfectSubgraph&& pg, const SubgraphSink& sink,
               const Timer& clock, MatchStats* stats) {
    ScopedSecondsAccumulator emit_stage(&stats->emit_seconds);
    if (dedup && !seen_hashes.insert(pg.ContentHash()).second) {
      ++stats->duplicates_removed;
      return true;
    }
    if (delivered == 0) stats->seconds_to_first_subgraph = clock.Seconds();
    ++delivered;
    return sink(std::move(pg));
  }
};

/// A lone query's ball loop: `program` alone over `csr` (its aux graph,
/// when it has one) on `threads` workers, streamed into `sink` through
/// StreamDelivery with `clock` as the first-result clock. Sets
/// program.stats->subgraphs_found; returns the number delivered.
inline size_t RunLoneProgram(BallProgram& program, const CsrGraph& csr,
                             uint32_t radius, size_t threads, bool dedup,
                             const SubgraphSink& sink, const Timer& clock) {
  StreamDelivery out;
  out.dedup = dedup;
  RunBallPrograms(csr, program.aux, radius, program.Centers(), {&program},
                  {0}, threads, [&](size_t, PerfectSubgraph&& pg) {
                    return out.Deliver(std::move(pg), sink, clock,
                                       program.stats);
                  });
  program.stats->subgraphs_found = out.delivered;
  return out.delivered;
}

/// Materializes a lone run as the deterministic batch result: the raw
/// stream run(sink, stats) delivers, canonicalized (min-center dedup
/// representative when `dedup`, (center, content hash) order), so the
/// result is byte-identical for every thread count.
template <typename Run>
Result<std::vector<PerfectSubgraph>> CollectCanonical(bool dedup,
                                                      MatchStats* stats,
                                                      Run&& run) {
  Timer total_timer;
  std::vector<PerfectSubgraph> results;
  MatchStats totals;
  GPM_RETURN_NOT_OK(run(
                        [&results](PerfectSubgraph&& pg) {
                          results.push_back(std::move(pg));
                          return true;
                        },
                        &totals)
                        .status());
  {
    ScopedSecondsAccumulator emit_stage(&totals.emit_seconds);
    totals.duplicates_removed = CanonicalizeSubgraphs(dedup, &results);
  }
  totals.subgraphs_found = results.size();
  totals.total_seconds = total_timer.Seconds();
  if (stats != nullptr) *stats = totals;
  return results;
}

}  // namespace gpm::internal

#endif  // GPM_MATCHING_BALL_EXECUTOR_H_
