// CsrGraph: an immutable compressed-sparse-row snapshot of a Graph.
//
// The mutable Graph stores per-node vectors (two pointers + capacity per
// node per direction); CSR packs all adjacency into four flat arrays,
// roughly halving memory and making full-graph scans (global dual
// simulation, partition sweeps) cache-friendly. Algorithms accept Graph;
// CsrGraph is the storage format for big datasets — convert either way.

#ifndef GPM_GRAPH_CSR_GRAPH_H_
#define GPM_GRAPH_CSR_GRAPH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "graph/types.h"

namespace gpm {

/// \brief Flat CSR representation (out- and in-adjacency + labels).
class CsrGraph {
 public:
  CsrGraph() = default;

  /// Snapshots a finalized Graph.
  static CsrGraph FromGraph(const Graph& g);

  /// Expands back into a (finalized) Graph, in the same one-pass bulk
  /// build as MutableGraph::Snapshot() (the rows are already sorted).
  Graph ToGraph() const;

  size_t num_nodes() const { return labels_.size(); }
  size_t num_edges() const { return out_targets_.size(); }

  Label label(NodeId v) const { return labels_[v]; }

  std::span<const NodeId> OutNeighbors(NodeId v) const {
    return {out_targets_.data() + out_offsets_[v],
            out_offsets_[v + 1] - out_offsets_[v]};
  }
  std::span<const NodeId> InNeighbors(NodeId v) const {
    return {in_targets_.data() + in_offsets_[v],
            in_offsets_[v + 1] - in_offsets_[v]};
  }
  std::span<const EdgeLabel> OutEdgeLabels(NodeId v) const {
    return {out_edge_labels_.data() + out_offsets_[v],
            out_offsets_[v + 1] - out_offsets_[v]};
  }

  size_t OutDegree(NodeId v) const {
    return out_offsets_[v + 1] - out_offsets_[v];
  }
  size_t InDegree(NodeId v) const {
    return in_offsets_[v + 1] - in_offsets_[v];
  }

  /// True iff edge (u, v) exists (binary search over the sorted row).
  bool HasEdge(NodeId u, NodeId v) const;

  /// Heap bytes used by the flat arrays (the footprint the format exists
  /// to shrink).
  size_t MemoryBytes() const;

 private:
  std::vector<Label> labels_;
  std::vector<uint64_t> out_offsets_;  // size num_nodes()+1
  std::vector<NodeId> out_targets_;
  std::vector<EdgeLabel> out_edge_labels_;
  std::vector<uint64_t> in_offsets_;
  std::vector<NodeId> in_targets_;
};

}  // namespace gpm

#endif  // GPM_GRAPH_CSR_GRAPH_H_
