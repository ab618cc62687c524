#include "graph/graph.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <numeric>

#include "common/logging.h"
#include "graph/csr_graph.h"
#include "graph/mutable_graph.h"

namespace gpm {

Label LabelDictionary::Intern(const std::string& name) {
  auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  Label id = static_cast<Label>(names_.size());
  ids_.emplace(name, id);
  names_.push_back(name);
  return id;
}

Result<Label> LabelDictionary::Find(const std::string& name) const {
  auto it = ids_.find(name);
  if (it == ids_.end()) return Status::NotFound("label '" + name + "' unknown");
  return it->second;
}

const std::string& LabelDictionary::Name(Label id) const {
  GPM_CHECK_LT(id, names_.size());
  return names_[id];
}

NodeId Graph::AddNode(Label label) {
  GPM_CHECK(!finalized_) << "AddNode after Finalize()";
  NodeId id = static_cast<NodeId>(labels_.size());
  labels_.push_back(label);
  if (out_.size() < labels_.size()) {
    // Past ResetForReuse() high-water mark: grow the adjacency tables.
    out_.emplace_back();
    in_.emplace_back();
    out_labels_.emplace_back();
  }
  return id;
}

void Graph::AddEdge(NodeId u, NodeId v, EdgeLabel label) {
  GPM_CHECK(!finalized_) << "AddEdge after Finalize()";
  GPM_CHECK_LT(u, labels_.size());
  GPM_CHECK_LT(v, labels_.size());
  out_[u].push_back(v);
  out_labels_[u].push_back(label);
  in_[v].push_back(u);
  ++num_edges_;
}

void Graph::Finalize() {
  if (finalized_) return;
  size_t edges = 0;
  // Scratch hoisted out of the per-node loop: finalizing thousands of
  // small ball graphs must not allocate three vectors per node.
  std::vector<size_t> order;
  std::vector<NodeId> sorted_nbrs;
  std::vector<EdgeLabel> sorted_labels;
  for (NodeId v = 0; v < labels_.size(); ++v) {
    // Sort (neighbor, edge label) pairs together, then drop duplicate
    // neighbors (keeping the first label).
    auto& nbrs = out_[v];
    auto& elabels = out_labels_[v];
    const size_t d = nbrs.size();
    order.resize(d);
    std::iota(order.begin(), order.end(), size_t{0});
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return nbrs[a] != nbrs[b] ? nbrs[a] < nbrs[b] : elabels[a] < elabels[b];
    });
    sorted_nbrs.clear();
    sorted_labels.clear();
    for (size_t idx : order) {
      if (!sorted_nbrs.empty() && sorted_nbrs.back() == nbrs[idx]) continue;
      sorted_nbrs.push_back(nbrs[idx]);
      sorted_labels.push_back(elabels[idx]);
    }
    nbrs.assign(sorted_nbrs.begin(), sorted_nbrs.end());
    elabels.assign(sorted_labels.begin(), sorted_labels.end());
    edges += nbrs.size();
  }
  // Rebuild in-adjacency from the dedup'd out-adjacency. Sources are
  // visited ascending and each appears at most once per out-row, so every
  // in-row comes out strictly ascending without a sort.
  for (NodeId v = 0; v < labels_.size(); ++v) in_[v].clear();
  for (NodeId u = 0; u < labels_.size(); ++u) {
    for (NodeId v : out_[u]) in_[v].push_back(u);
  }
  num_edges_ = edges;
  Seal();
}

template <typename Adjacency>
Graph Graph::BuildFinalized(const Adjacency& src) {
  static_assert(sizeof(NodeId) <= 4 && sizeof(EdgeLabel) <= 4,
                "rows sort as packed 64-bit (target, edge label) keys");
  Graph g;
  const size_t n = src.num_nodes();
  g.labels_.resize(n);
  for (NodeId v = 0; v < n; ++v) g.labels_[v] = src.label(v);
  g.out_.resize(n);
  g.out_labels_.resize(n);
  g.in_.resize(n);
  std::vector<uint32_t> in_degree(n, 0);
  // A row that is not strictly increasing is sorted as packed
  // (target << 32 | edge label) keys: a run of one target then starts at
  // its smallest label, the one Finalize() keeps.
  std::vector<uint64_t> keys;
  size_t edges = 0;
  for (NodeId v = 0; v < n; ++v) {
    const auto nbrs = src.OutNeighbors(v);
    const auto elabels = src.OutEdgeLabels(v);
    auto& out = g.out_[v];
    auto& out_labels = g.out_labels_[v];
    if (std::adjacent_find(nbrs.begin(), nbrs.end(),
                           std::greater_equal<NodeId>()) == nbrs.end()) {
      out.assign(nbrs.begin(), nbrs.end());
      out_labels.assign(elabels.begin(), elabels.end());
    } else {
      keys.resize(nbrs.size());
      for (size_t i = 0; i < nbrs.size(); ++i) {
        keys[i] = (uint64_t{nbrs[i]} << 32) | elabels[i];
      }
      std::sort(keys.begin(), keys.end());
      keys.erase(std::unique(keys.begin(), keys.end(),
                             [](uint64_t a, uint64_t b) {
                               return (a >> 32) == (b >> 32);
                             }),
                 keys.end());
      out.resize(keys.size());
      out_labels.resize(keys.size());
      for (size_t i = 0; i < keys.size(); ++i) {
        out[i] = static_cast<NodeId>(keys[i] >> 32);
        out_labels[i] = static_cast<EdgeLabel>(keys[i]);
      }
    }
    for (NodeId t : out) ++in_degree[t];
    edges += out.size();
  }
  // Filled in ascending source order, so every in-row comes out sorted.
  for (NodeId v = 0; v < n; ++v) g.in_[v].reserve(in_degree[v]);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId t : g.out_[u]) g.in_[t].push_back(u);
  }
  g.num_edges_ = edges;
  g.Seal();
  return g;
}

template Graph Graph::BuildFinalized(const MutableGraph&);
template Graph Graph::BuildFinalized(const CsrGraph&);

void Graph::Seal() {
  static std::atomic<uint64_t> next_instance_id{0};
  instance_id_ = next_instance_id.fetch_add(1, std::memory_order_relaxed) + 1;

  // Label index: nodes sorted by (label, id), sliced per distinct label.
  const size_t n = labels_.size();
  label_sorted_nodes_.resize(n);
  std::iota(label_sorted_nodes_.begin(), label_sorted_nodes_.end(), NodeId{0});
  std::sort(label_sorted_nodes_.begin(), label_sorted_nodes_.end(),
            [this](NodeId a, NodeId b) {
              return labels_[a] != labels_[b] ? labels_[a] < labels_[b]
                                              : a < b;
            });
  distinct_labels_.clear();
  label_offsets_.clear();
  for (size_t i = 0; i < n; ++i) {
    if (i == 0 ||
        labels_[label_sorted_nodes_[i]] != labels_[label_sorted_nodes_[i - 1]]) {
      distinct_labels_.push_back(labels_[label_sorted_nodes_[i]]);
      label_offsets_.push_back(static_cast<uint32_t>(i));
    }
  }
  label_offsets_.push_back(static_cast<uint32_t>(n));

  finalized_ = true;
}

void Graph::ResetForReuse() {
  for (size_t v = 0; v < labels_.size(); ++v) {
    out_[v].clear();
    in_[v].clear();
    out_labels_[v].clear();
  }
  labels_.clear();
  num_edges_ = 0;
  finalized_ = false;
  instance_id_ = 0;
  label_sorted_nodes_.clear();
  label_offsets_.clear();
  distinct_labels_.clear();
}

bool Graph::HasEdge(NodeId u, NodeId v) const {
  GPM_CHECK(finalized_) << "HasEdge requires Finalize()";
  GPM_CHECK_LT(u, labels_.size());
  GPM_CHECK_LT(v, labels_.size());
  const auto& nbrs = out_[u];
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

std::span<const NodeId> Graph::NodesWithLabel(Label label) const {
  GPM_CHECK(finalized_) << "NodesWithLabel requires Finalize()";
  auto it = std::lower_bound(distinct_labels_.begin(), distinct_labels_.end(),
                             label);
  if (it == distinct_labels_.end() || *it != label) return {};
  const size_t i = static_cast<size_t>(it - distinct_labels_.begin());
  return {label_sorted_nodes_.data() + label_offsets_[i],
          label_offsets_[i + 1] - label_offsets_[i]};
}

Graph Graph::InducedSubgraph(std::span<const NodeId> nodes,
                             std::vector<NodeId>* to_parent) const {
  Graph sub;
  std::unordered_map<NodeId, NodeId> to_local;
  to_local.reserve(nodes.size());
  for (NodeId v : nodes) {
    GPM_CHECK_LT(v, labels_.size());
    auto [it, inserted] = to_local.emplace(v, static_cast<NodeId>(to_local.size()));
    GPM_CHECK(inserted) << "duplicate node " << v << " in InducedSubgraph";
    sub.AddNode(labels_[v]);
  }
  for (NodeId v : nodes) {
    NodeId lv = to_local[v];
    auto elabels = OutEdgeLabels(v);
    size_t i = 0;
    for (NodeId w : OutNeighbors(v)) {
      auto it = to_local.find(w);
      if (it != to_local.end()) {
        sub.AddEdge(lv, it->second, i < elabels.size() ? elabels[i] : 0);
      }
      ++i;
    }
  }
  sub.Finalize();
  if (to_parent != nullptr) {
    to_parent->assign(nodes.begin(), nodes.end());
  }
  return sub;
}

Graph Graph::Reversed() const {
  Graph rev;
  ReversedInto(&rev);
  return rev;
}

void Graph::ReversedInto(Graph* out) const {
  out->ResetForReuse();
  for (NodeId v = 0; v < labels_.size(); ++v) out->AddNode(labels_[v]);
  for (NodeId u = 0; u < labels_.size(); ++u) {
    auto elabels = OutEdgeLabels(u);
    size_t i = 0;
    for (NodeId v : out_[u]) {
      out->AddEdge(v, u, i < elabels.size() ? elabels[i] : 0);
      ++i;
    }
  }
  out->Finalize();
}

uint64_t Graph::ContentHash() const {
  GPM_CHECK(finalized_);
  uint64_t h = 14695981039346656037ULL;
  auto mix = [&h](uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (i * 8)) & 0xFF;
      h *= 1099511628211ULL;
    }
  };
  mix(num_nodes());
  for (Label l : labels_) mix(l);
  for (NodeId u = 0; u < labels_.size(); ++u) {
    auto elabels = OutEdgeLabels(u);
    size_t i = 0;
    for (NodeId v : out_[u]) {
      mix((static_cast<uint64_t>(u) << 32) | v);
      mix(i < elabels.size() ? elabels[i] : 0);
      ++i;
    }
  }
  return h;
}

bool Graph::StructurallyEqual(const Graph& other,
                              bool compare_edge_labels) const {
  GPM_CHECK(finalized_ && other.finalized_);
  if (num_nodes() != other.num_nodes() || num_edges() != other.num_edges())
    return false;
  if (labels_ != other.labels_) return false;
  for (NodeId v = 0; v < labels_.size(); ++v) {
    if (out_[v] != other.out_[v]) return false;
    if (compare_edge_labels && out_labels_[v] != other.out_labels_[v])
      return false;
  }
  return true;
}

}  // namespace gpm
