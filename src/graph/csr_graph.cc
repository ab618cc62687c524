#include "graph/csr_graph.h"

#include <algorithm>

#include "common/logging.h"

namespace gpm {

CsrGraph CsrGraph::FromGraph(const Graph& g) {
  GPM_CHECK(g.finalized());
  CsrGraph csr;
  const size_t n = g.num_nodes();
  csr.labels_.resize(n);
  csr.out_offsets_.resize(n + 1, 0);
  csr.in_offsets_.resize(n + 1, 0);
  for (NodeId v = 0; v < n; ++v) {
    csr.labels_[v] = g.label(v);
    csr.out_offsets_[v + 1] = csr.out_offsets_[v] + g.OutDegree(v);
    csr.in_offsets_[v + 1] = csr.in_offsets_[v] + g.InDegree(v);
  }
  csr.out_targets_.reserve(g.num_edges());
  csr.out_edge_labels_.reserve(g.num_edges());
  csr.in_targets_.reserve(g.num_edges());
  for (NodeId v = 0; v < n; ++v) {
    auto nbrs = g.OutNeighbors(v);
    auto elabels = g.OutEdgeLabels(v);
    csr.out_targets_.insert(csr.out_targets_.end(), nbrs.begin(), nbrs.end());
    csr.out_edge_labels_.insert(csr.out_edge_labels_.end(), elabels.begin(),
                                elabels.end());
    auto in_nbrs = g.InNeighbors(v);
    csr.in_targets_.insert(csr.in_targets_.end(), in_nbrs.begin(),
                           in_nbrs.end());
  }
  return csr;
}

Graph CsrGraph::ToGraph() const { return Graph::BuildFinalized(*this); }

bool CsrGraph::HasEdge(NodeId u, NodeId v) const {
  GPM_CHECK_LT(u, num_nodes());
  GPM_CHECK_LT(v, num_nodes());
  auto row = OutNeighbors(u);
  return std::binary_search(row.begin(), row.end(), v);
}

size_t CsrGraph::MemoryBytes() const {
  return labels_.capacity() * sizeof(Label) +
         out_offsets_.capacity() * sizeof(uint64_t) +
         out_targets_.capacity() * sizeof(NodeId) +
         out_edge_labels_.capacity() * sizeof(EdgeLabel) +
         in_offsets_.capacity() * sizeof(uint64_t) +
         in_targets_.capacity() * sizeof(NodeId);
}

}  // namespace gpm
