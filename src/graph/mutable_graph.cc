#include "graph/mutable_graph.h"

#include <algorithm>

#include "common/logging.h"

namespace gpm {

MutableGraph::MutableGraph(const Graph& g) {
  GPM_CHECK(g.finalized());
  const size_t n = g.num_nodes();
  labels_.reserve(n);
  out_.resize(n);
  out_labels_.resize(n);
  in_.resize(n);
  for (NodeId v = 0; v < n; ++v) {
    labels_.push_back(g.label(v));
    auto nbrs = g.OutNeighbors(v);
    auto elabels = g.OutEdgeLabels(v);
    out_[v].assign(nbrs.begin(), nbrs.end());
    out_labels_[v].assign(elabels.begin(), elabels.end());
    auto parents = g.InNeighbors(v);
    in_[v].assign(parents.begin(), parents.end());
  }
  num_edges_ = g.num_edges();
}

NodeId MutableGraph::AddNode(Label label) {
  const NodeId id = static_cast<NodeId>(labels_.size());
  labels_.push_back(label);
  out_.emplace_back();
  out_labels_.emplace_back();
  in_.emplace_back();
  ++version_;
  return id;
}

Status MutableGraph::InsertEdge(NodeId u, NodeId v, EdgeLabel label) {
  if (u >= labels_.size() || v >= labels_.size())
    return Status::InvalidArgument("edge endpoint does not exist");
  if (HasEdge(u, v, label))
    return Status::AlreadyExists("edge already present with this label");
  out_[u].push_back(v);
  out_labels_[u].push_back(label);
  in_[v].push_back(u);
  ++num_edges_;
  ++version_;
  return Status::OK();
}

Status MutableGraph::RemoveEdge(NodeId u, NodeId v, EdgeLabel label) {
  if (u >= labels_.size() || v >= labels_.size())
    return Status::InvalidArgument("edge endpoint does not exist");
  auto& nbrs = out_[u];
  auto& elabels = out_labels_[u];
  size_t i = 0;
  for (; i < nbrs.size(); ++i) {
    if (nbrs[i] == v && elabels[i] == label) break;
  }
  if (i == nbrs.size())
    return Status::NotFound("edge not present with this label");
  nbrs.erase(nbrs.begin() + static_cast<ptrdiff_t>(i));
  elabels.erase(elabels.begin() + static_cast<ptrdiff_t>(i));
  auto& parents = in_[v];
  auto it = std::find(parents.begin(), parents.end(), u);
  GPM_CHECK(it != parents.end());
  parents.erase(it);
  --num_edges_;
  ++version_;
  return Status::OK();
}

bool MutableGraph::HasEdge(NodeId u, NodeId v) const {
  const auto& nbrs = out_[u];
  return std::find(nbrs.begin(), nbrs.end(), v) != nbrs.end();
}

bool MutableGraph::HasEdge(NodeId u, NodeId v, EdgeLabel label) const {
  const auto& nbrs = out_[u];
  const auto& elabels = out_labels_[u];
  for (size_t i = 0; i < nbrs.size(); ++i) {
    if (nbrs[i] == v && elabels[i] == label) return true;
  }
  return false;
}

Graph MutableGraph::Snapshot() const { return Graph::BuildFinalized(*this); }

}  // namespace gpm
