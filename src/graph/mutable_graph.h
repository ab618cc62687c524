// MutableGraph: a versioned, mutable adjacency over the same (NodeId,
// Label, EdgeLabel) vocabulary as Graph — the seam the incremental
// maintenance path (extensions/incremental.h) runs on.
//
// Graph is immutable after Finalize() by design: the serving-path caches
// key on that immutability (Graph::instance_id). Incremental maintenance
// needs the opposite — an adjacency that absorbs single-edge updates in
// O(degree) so each update's cost is O(affected balls), never O(V + E).
// MutableGraph provides exactly the read surface the ball machinery needs
// (num_nodes / label / OutNeighbors / InNeighbors / OutEdgeLabels), so the
// templated BfsWorkspace::Run and BallBuilderT run against it directly —
// no per-update re-materialization, no re-Finalize.
//
// Semantics vs Graph:
//   - Edges are keyed on (target, edge label): inserting (u, v, l2) next
//     to an existing (u, v, l1) is a *new* edge (labeled multigraph),
//     while an exact duplicate is AlreadyExists. Graph::Finalize() instead
//     collapses parallel edges per neighbor; Snapshot() inherits that
//     collapse, which is invisible to the node-label matching notions
//     (they ignore edge labels; only regex matching reads them).
//   - Adjacency is in insertion order, not sorted. Ball *content* is
//     order-independent, so matching results are unaffected.
//   - version() counts mutations — the cheap per-session data version the
//     incremental path keys its snapshot memo on.

#ifndef GPM_GRAPH_MUTABLE_GRAPH_H_
#define GPM_GRAPH_MUTABLE_GRAPH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "graph/graph.h"
#include "graph/types.h"

namespace gpm {

/// \brief A mutable directed multigraph with node and edge labels,
/// maintaining both adjacency directions incrementally.
class MutableGraph {
 public:
  MutableGraph() = default;

  /// Copies a finalized Graph's nodes and edges (O(V + E), once per
  /// session — updates after this are O(degree)).
  explicit MutableGraph(const Graph& g);

  /// Adds a node with the given label; returns its id (dense, increasing).
  NodeId AddNode(Label label);

  /// Inserts the edge (u, v) with `label`. InvalidArgument for unknown
  /// endpoints; AlreadyExists when the exact (u, v, label) edge is
  /// present. A parallel edge with a different label is accepted.
  Status InsertEdge(NodeId u, NodeId v, EdgeLabel label = 0);

  /// Removes the edge (u, v) with `label`. InvalidArgument for unknown
  /// endpoints; NotFound when no exact (u, v, label) edge exists.
  Status RemoveEdge(NodeId u, NodeId v, EdgeLabel label = 0);

  size_t num_nodes() const { return labels_.size(); }
  size_t num_edges() const { return num_edges_; }

  Label label(NodeId v) const { return labels_[v]; }

  /// Children of v (insertion order; may repeat a target across labels).
  std::span<const NodeId> OutNeighbors(NodeId v) const {
    return {out_[v].data(), out_[v].size()};
  }
  /// Parents of v (insertion order).
  std::span<const NodeId> InNeighbors(NodeId v) const {
    return {in_[v].data(), in_[v].size()};
  }
  /// Edge labels aligned with OutNeighbors(v).
  std::span<const EdgeLabel> OutEdgeLabels(NodeId v) const {
    return {out_labels_[v].data(), out_labels_[v].size()};
  }

  size_t OutDegree(NodeId v) const { return out_[v].size(); }
  size_t InDegree(NodeId v) const { return in_[v].size(); }

  /// True iff some edge (u, v) exists, under any edge label. O(OutDegree).
  bool HasEdge(NodeId u, NodeId v) const;

  /// True iff the exact (u, v, label) edge exists. O(OutDegree).
  bool HasEdge(NodeId u, NodeId v, EdgeLabel label) const;

  /// Mutation counter: bumped by AddNode and every successful edge
  /// insert/remove. Two equal versions of one MutableGraph imply equal
  /// content (the incremental session's snapshot-memo key).
  uint64_t version() const { return version_; }

  /// Materializes the current content as a finalized Graph (O(V + E)) —
  /// the interop point with everything keyed on immutable graphs
  /// (from-scratch matchers, the engine caches), and the cost of every
  /// version a serving writer publishes. One bulk pass: labels copied
  /// once, each out-row sorted only when it is out of order and written
  /// into a row allocated at its exact size, in-rows counted out of the
  /// deduplicated out-rows already sorted, the label index built once.
  /// No AddEdge and no Finalize(), but the same graph they would build:
  /// parallel edges collapse per neighbor to the smallest edge label,
  /// exactly as Graph::Finalize() does. Every call stamps a fresh
  /// instance_id.
  Graph Snapshot() const;

 private:
  std::vector<Label> labels_;
  std::vector<std::vector<NodeId>> out_;
  std::vector<std::vector<EdgeLabel>> out_labels_;
  std::vector<std::vector<NodeId>> in_;
  size_t num_edges_ = 0;
  uint64_t version_ = 0;
};

}  // namespace gpm

#endif  // GPM_GRAPH_MUTABLE_GRAPH_H_
