#include "extensions/incremental.h"

#include <algorithm>
#include <numeric>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/logging.h"
#include "common/timer.h"
#include "graph/components.h"
#include "graph/diameter.h"
#include "graph/traversal.h"
#include "matching/ball.h"
#include "matching/ball_executor.h"

namespace gpm {

namespace {

bool ByCenterThenHash(const PerfectSubgraph& a, const PerfectSubgraph& b) {
  if (a.center != b.center) return a.center < b.center;
  return a.ContentHash() < b.ContentHash();
}

}  // namespace

struct IncrementalMatcher::Impl {
  Impl(Graph q, uint32_t r, const Graph& g, size_t threads)
      : pattern(std::move(q)),
        radius(r),
        num_threads(threads),
        data(g),
        nearby(g.num_nodes()) {
    for (NodeId u = 0; u < pattern.num_nodes(); ++u) {
      pattern_labels.insert(pattern.label(u));
    }
  }

  Graph pattern;
  uint32_t radius;
  size_t num_threads;
  std::set<Label> pattern_labels;

  // The live adjacency every ball build and BFS runs against. The
  // per-worker ball builders reference it; Impl lives behind a unique_ptr
  // so those references survive moves of the owning matcher.
  MutableGraph data;
  BfsWorkspace nearby;
  std::vector<BfsEntry> nearby_out;
  // Ball builders (one per ball-loop worker) and the loop's worker pool
  // persist across updates: a high-rate update stream must pay neither
  // |V|-sized builder scratch nor thread spawn/join per edit.
  std::vector<BallBuilderT<MutableGraph>> builders;
  std::unique_ptr<ThreadPool> pool;

  std::unordered_map<NodeId, PerfectSubgraph> by_center;
  // Content hash -> the centers currently holding it. Θ-level add/remove
  // events fire when a hash gains its first / loses its last holder,
  // which is what keeps delta computation O(affected) instead of O(|Θ|)
  // per update; the sorted holder set gives the deterministic min-center
  // representative FinalizeDelta resolves added entries to.
  std::unordered_map<uint64_t, std::set<NodeId>> holders;
  UpdateStats last_update;

  // Replaces center's entry with `result`, recording Θ-level transitions.
  void ApplyResult(NodeId center, std::optional<PerfectSubgraph> result,
                   MatchDelta* delta) {
    auto it = by_center.find(center);
    if (result.has_value() && it != by_center.end() &&
        result->ContentHash() == it->second.ContentHash()) {
      it->second = std::move(*result);  // content unchanged: no transition
      return;
    }
    if (it != by_center.end()) {
      const uint64_t hash = it->second.ContentHash();
      auto holding = holders.find(hash);
      GPM_CHECK(holding != holders.end());
      holding->second.erase(center);
      if (holding->second.empty()) {
        holders.erase(holding);
        delta->removed.push_back(std::move(it->second));
      }
      by_center.erase(it);
    }
    if (result.has_value()) {
      const uint64_t hash = result->ContentHash();
      if (holders[hash].insert(center).second && holders[hash].size() == 1) {
        delta->added.push_back(*result);
      }
      by_center.emplace(center, std::move(*result));
    }
  }

  // Net-change cancellation + canonical form: a content hash appearing on
  // both sides of one update (vanished at one center, reappeared at
  // another) is no change to the set Θ and cancels out. Survivors are
  // normalized so serial and parallel recomputation — whose apply order
  // differs — emit byte-identical deltas: an added subgraph is the
  // min-center holder's instance (the representative CurrentMatches
  // reports); a removed subgraph no longer has a ball holder, so it
  // carries pure content — center normalized to its smallest node, the
  // (holder-specific) relation cleared. Both sides sort by (center, hash).
  void FinalizeDelta(MatchDelta* delta) {
    std::unordered_map<uint64_t, int> net;
    for (const PerfectSubgraph& pg : delta->added) ++net[pg.ContentHash()];
    for (const PerfectSubgraph& pg : delta->removed) --net[pg.ContentHash()];
    const auto keep = [&net](std::vector<PerfectSubgraph>* list, int sign) {
      std::vector<PerfectSubgraph> kept;
      kept.reserve(list->size());
      for (PerfectSubgraph& pg : *list) {
        int& n = net[pg.ContentHash()];
        if (sign > 0 ? n > 0 : n < 0) {
          n -= sign;
          kept.push_back(std::move(pg));
        }
      }
      *list = std::move(kept);
    };
    keep(&delta->added, +1);
    keep(&delta->removed, -1);
    for (PerfectSubgraph& pg : delta->added) {
      const auto holding = holders.find(pg.ContentHash());
      GPM_CHECK(holding != holders.end() && !holding->second.empty());
      pg = by_center.at(*holding->second.begin());
    }
    for (PerfectSubgraph& pg : delta->removed) {
      GPM_CHECK(!pg.nodes.empty());
      pg.center = pg.nodes.front();  // nodes are sorted
      pg.relation = MatchRelation();
    }
    std::sort(delta->added.begin(), delta->added.end(), ByCenterThenHash);
    std::sort(delta->removed.begin(), delta->removed.end(),
              ByCenterThenHash);
  }

  // Recomputes the balls centered at `centers` (sorted, unique). Returns
  // the number of balls actually recomputed (pattern-label centers only).
  size_t RecomputeCenters(const std::vector<NodeId>& centers,
                          MatchDelta* delta) {
    std::vector<NodeId> eligible;
    eligible.reserve(centers.size());
    for (NodeId center : centers) {
      if (pattern_labels.count(data.label(center))) {
        eligible.push_back(center);
      }
      // A center with a foreign label can hold no entry (labels never
      // change), so there is nothing to clear for the rest.
    }
    // Parallel apply order differs run to run, but ApplyResult commutes
    // across distinct centers and FinalizeDelta restores a deterministic
    // delta, so the outcome is byte-identical to serial.
    using Item = std::pair<NodeId, std::optional<PerfectSubgraph>>;
    const size_t threads = std::min(num_threads, eligible.size() / 2);
    const size_t workers = internal::BallLoopWorkers(eligible.size(), threads);
    while (builders.size() < workers) builders.emplace_back(data);
    std::vector<Ball> balls(workers);
    internal::RunBallLoop<Item>(
        eligible.size(), threads,
        [&](size_t w, size_t i, auto& emit) {
          builders[w].Build(eligible[i], radius, &balls[w]);
          emit(Item(eligible[i], MatchSingleBall(pattern, balls[w])));
        },
        [&](Item&& item) {
          ApplyResult(item.first, std::move(item.second), delta);
          return true;
        },
        &pool);
    return eligible.size();
  }

  // Centers within `radius` of v in the *current* adjacency.
  void CollectNearbyCenters(NodeId v, std::set<NodeId>* centers) {
    nearby.EnsureCapacity(data.num_nodes());
    nearby.Run(data, v, EdgeDirection::kUndirected, radius, &nearby_out);
    for (const BfsEntry& e : nearby_out) centers->insert(e.node);
  }

  // Validates and applies one edit to the adjacency, accumulating the
  // centers its neighborhoods cover (before and after the mutation). Does
  // not recompute; FinishUpdate does, once per update/batch.
  Status ApplyEdit(const GraphEdit& edit, std::set<NodeId>* centers) {
    switch (edit.kind) {
      case GraphEdit::Kind::kInsertEdge: {
        if (edit.from >= data.num_nodes() || edit.to >= data.num_nodes())
          return Status::InvalidArgument("edge endpoint does not exist");
        if (data.HasEdge(edit.from, edit.to, edit.edge_label))
          return Status::AlreadyExists("edge already present with this label");
        // Affected centers: within radius of either endpoint, in the old
        // graph (balls that gain the edge / new reachability) and in the
        // new graph (balls the new edge pulls nodes into).
        CollectNearbyCenters(edit.from, centers);
        CollectNearbyCenters(edit.to, centers);
        GPM_CHECK(
            data.InsertEdge(edit.from, edit.to, edit.edge_label).ok());
        CollectNearbyCenters(edit.from, centers);
        CollectNearbyCenters(edit.to, centers);
        return Status::OK();
      }
      case GraphEdit::Kind::kRemoveEdge: {
        if (edit.from >= data.num_nodes() || edit.to >= data.num_nodes())
          return Status::InvalidArgument("edge endpoint does not exist");
        if (!data.HasEdge(edit.from, edit.to, edit.edge_label))
          return Status::NotFound("edge not present with this label");
        CollectNearbyCenters(edit.from, centers);  // old: balls that shrink
        CollectNearbyCenters(edit.to, centers);
        GPM_CHECK(
            data.RemoveEdge(edit.from, edit.to, edit.edge_label).ok());
        CollectNearbyCenters(edit.from, centers);
        CollectNearbyCenters(edit.to, centers);
        return Status::OK();
      }
      case GraphEdit::Kind::kAddNode: {
        // An isolated node can only match via its own radius-0 ball.
        centers->insert(data.AddNode(edit.node_label));
        return Status::OK();
      }
    }
    return Status::InvalidArgument("unknown edit kind");
  }

  // Recomputes the collected centers (sorted, unique), canonicalizes the
  // delta, and stamps the update's stats.
  void FinishUpdate(const std::vector<NodeId>& centers, const Timer& timer,
                    MatchDelta* delta) {
    MatchDelta local;
    MatchDelta* out = delta != nullptr ? delta : &local;
    out->added.clear();
    out->removed.clear();
    const size_t recomputed = RecomputeCenters(centers, out);
    FinalizeDelta(out);
    last_update.affected_centers = recomputed;
    last_update.candidate_centers = centers.size();
    last_update.total_centers = data.num_nodes();
    last_update.subgraphs_added = out->added.size();
    last_update.subgraphs_removed = out->removed.size();
    last_update.seconds = timer.Seconds();
  }

  Status ApplyOne(const GraphEdit& edit, MatchDelta* delta) {
    Timer timer;
    std::set<NodeId> centers;
    GPM_RETURN_NOT_OK(ApplyEdit(edit, &centers));
    FinishUpdate({centers.begin(), centers.end()}, timer, delta);
    return Status::OK();
  }
};

Result<IncrementalMatcher> IncrementalMatcher::Create(const Graph& q,
                                                      const Graph& g,
                                                      size_t num_threads) {
  GPM_CHECK(q.finalized());
  if (q.num_nodes() == 0)
    return Status::InvalidArgument("pattern graph is empty");
  if (!IsConnected(q))
    return Status::InvalidArgument("pattern graph must be connected");
  GPM_ASSIGN_OR_RETURN(uint32_t radius, Diameter(q));
  return CreateWithRadius(q, radius, g, num_threads);
}

Result<IncrementalMatcher> IncrementalMatcher::CreateWithRadius(
    const Graph& q, uint32_t radius, const Graph& g, size_t num_threads) {
  GPM_CHECK(q.finalized() && g.finalized());
  if (q.num_nodes() == 0)
    return Status::InvalidArgument("pattern graph is empty");
  auto impl = std::make_unique<Impl>(q, radius, g,
                                     internal::ResolveThreads(num_threads));
  // Initial full match: every node is a candidate center once.
  Timer timer;
  std::vector<NodeId> all(impl->data.num_nodes());
  std::iota(all.begin(), all.end(), NodeId{0});
  impl->FinishUpdate(all, timer, nullptr);
  return IncrementalMatcher(std::move(impl));
}

IncrementalMatcher::IncrementalMatcher(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}
IncrementalMatcher::IncrementalMatcher(IncrementalMatcher&&) noexcept =
    default;
IncrementalMatcher& IncrementalMatcher::operator=(
    IncrementalMatcher&&) noexcept = default;
IncrementalMatcher::~IncrementalMatcher() = default;

Status IncrementalMatcher::InsertEdge(NodeId from, NodeId to, EdgeLabel label,
                                      MatchDelta* delta) {
  return impl_->ApplyOne(GraphEdit::InsertEdge(from, to, label), delta);
}

Status IncrementalMatcher::RemoveEdge(NodeId from, NodeId to, EdgeLabel label,
                                      MatchDelta* delta) {
  return impl_->ApplyOne(GraphEdit::RemoveEdge(from, to, label), delta);
}

NodeId IncrementalMatcher::AddNode(Label label, MatchDelta* delta) {
  Timer timer;
  std::set<NodeId> centers;
  GPM_CHECK(impl_->ApplyEdit(GraphEdit::AddNode(label), &centers).ok());
  const NodeId id = *centers.begin();
  impl_->FinishUpdate({centers.begin(), centers.end()}, timer, delta);
  return id;
}

Status IncrementalMatcher::ApplyBatch(std::span<const GraphEdit> edits,
                                      MatchDelta* delta) {
  Timer timer;
  std::set<NodeId> centers;
  Status bad = Status::OK();
  size_t applied = 0;
  for (size_t i = 0; i < edits.size(); ++i) {
    Status s = impl_->ApplyEdit(edits[i], &centers);
    if (!s.ok()) {
      bad = Status(s.code(),
                   "batch edit #" + std::to_string(i) + ": " + s.message());
      break;
    }
    ++applied;
  }
  if (applied == 0) {
    // Nothing mutated (empty batch, or edit #0 rejected): the result
    // needs no repair and last_update keeps the previous real update's
    // numbers — same contract as a rejected single edit.
    if (delta != nullptr) {
      delta->added.clear();
      delta->removed.clear();
    }
    return bad;
  }
  // Repair the edits that did apply even when a later one failed: the
  // maintained == from-scratch invariant holds on every return path.
  impl_->FinishUpdate({centers.begin(), centers.end()}, timer, delta);
  return bad;
}

std::vector<PerfectSubgraph> IncrementalMatcher::CurrentMatches() const {
  std::vector<PerfectSubgraph> out;
  std::set<uint64_t> seen;
  std::vector<NodeId> centers;
  centers.reserve(impl_->by_center.size());
  for (const auto& [center, pg] : impl_->by_center) centers.push_back(center);
  std::sort(centers.begin(), centers.end());
  for (NodeId center : centers) {
    const PerfectSubgraph& pg = impl_->by_center.at(center);
    if (seen.insert(pg.ContentHash()).second) out.push_back(pg);
  }
  return out;
}

const MutableGraph& IncrementalMatcher::data() const { return impl_->data; }
Graph IncrementalMatcher::Snapshot() const { return impl_->data.Snapshot(); }
const Graph& IncrementalMatcher::pattern() const { return impl_->pattern; }
uint32_t IncrementalMatcher::radius() const { return impl_->radius; }
uint64_t IncrementalMatcher::version() const { return impl_->data.version(); }
const IncrementalMatcher::UpdateStats& IncrementalMatcher::last_update()
    const {
  return impl_->last_update;
}

}  // namespace gpm
