#include "graph/mutable_graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "graph/generator.h"
#include "graph/traversal.h"
#include "matching/ball.h"
#include "tests/test_util.h"

namespace gpm {
namespace {

using testutil::MakeGraph;

TEST(MutableGraphTest, CopiesFinalizedGraph) {
  Graph g = MakeGraph({1, 2, 3}, {{0, 1}, {1, 2}, {2, 0}});
  MutableGraph m(g);
  EXPECT_EQ(m.num_nodes(), 3u);
  EXPECT_EQ(m.num_edges(), 3u);
  for (NodeId v = 0; v < 3; ++v) {
    EXPECT_EQ(m.label(v), g.label(v));
    EXPECT_EQ(m.OutDegree(v), g.OutDegree(v));
    EXPECT_EQ(m.InDegree(v), g.InDegree(v));
  }
  EXPECT_TRUE(m.HasEdge(0, 1));
  EXPECT_FALSE(m.HasEdge(1, 0));
  EXPECT_TRUE(m.Snapshot().StructurallyEqual(g, /*compare_edge_labels=*/true));
}

TEST(MutableGraphTest, InsertAndRemoveMaintainBothDirections) {
  MutableGraph m(MakeGraph({1, 2, 3}, {}));
  ASSERT_TRUE(m.InsertEdge(0, 1).ok());
  ASSERT_TRUE(m.InsertEdge(2, 1).ok());
  EXPECT_EQ(m.num_edges(), 2u);
  EXPECT_EQ(m.InDegree(1), 2u);
  ASSERT_TRUE(m.RemoveEdge(0, 1).ok());
  EXPECT_EQ(m.num_edges(), 1u);
  EXPECT_EQ(m.InDegree(1), 1u);
  EXPECT_EQ(m.InNeighbors(1)[0], 2u);
  EXPECT_FALSE(m.HasEdge(0, 1));
}

TEST(MutableGraphTest, EdgeOperationsAreLabelSensitive) {
  MutableGraph m(MakeGraph({1, 2}, {}));
  ASSERT_TRUE(m.InsertEdge(0, 1, 7).ok());
  // Parallel edge with a different label: a new edge.
  ASSERT_TRUE(m.InsertEdge(0, 1, 3).ok());
  EXPECT_EQ(m.num_edges(), 2u);
  // Exact duplicate: rejected.
  EXPECT_EQ(m.InsertEdge(0, 1, 7).code(), StatusCode::kAlreadyExists);
  // Remove is exact too.
  EXPECT_TRUE(m.RemoveEdge(0, 1, 5).IsNotFound());
  ASSERT_TRUE(m.RemoveEdge(0, 1, 7).ok());
  EXPECT_TRUE(m.HasEdge(0, 1, 3));
  EXPECT_FALSE(m.HasEdge(0, 1, 7));
  EXPECT_TRUE(m.HasEdge(0, 1));
}

TEST(MutableGraphTest, ValidatesEndpoints) {
  MutableGraph m(MakeGraph({1}, {}));
  EXPECT_TRUE(m.InsertEdge(0, 5).IsInvalidArgument());
  EXPECT_TRUE(m.InsertEdge(5, 0).IsInvalidArgument());
  EXPECT_TRUE(m.RemoveEdge(0, 5).IsInvalidArgument());
}

TEST(MutableGraphTest, VersionCountsMutations) {
  MutableGraph m(MakeGraph({1, 2}, {}));
  const uint64_t v0 = m.version();
  ASSERT_TRUE(m.InsertEdge(0, 1).ok());
  EXPECT_EQ(m.version(), v0 + 1);
  // Rejected edits leave the version unchanged.
  EXPECT_FALSE(m.InsertEdge(0, 1).ok());
  EXPECT_EQ(m.version(), v0 + 1);
  m.AddNode(3);
  EXPECT_EQ(m.version(), v0 + 2);
  ASSERT_TRUE(m.RemoveEdge(0, 1).ok());
  EXPECT_EQ(m.version(), v0 + 3);
}

TEST(MutableGraphTest, SnapshotMatchesEquivalentImmutableGraph) {
  MutableGraph m(MakeGraph({1, 2}, {{0, 1}}));
  m.AddNode(3);
  ASSERT_TRUE(m.InsertEdge(1, 2, 4).ok());
  ASSERT_TRUE(m.InsertEdge(2, 0).ok());
  ASSERT_TRUE(m.RemoveEdge(0, 1).ok());
  const Graph expected =
      MakeGraph({1, 2, 3}, {{2, 0}});  // plus the labeled (1, 2) edge
  Graph snapshot = m.Snapshot();
  EXPECT_EQ(snapshot.num_nodes(), 3u);
  EXPECT_EQ(snapshot.num_edges(), 2u);
  EXPECT_TRUE(snapshot.HasEdge(1, 2));
  EXPECT_TRUE(snapshot.HasEdge(2, 0));
  EXPECT_FALSE(snapshot.HasEdge(0, 1));
  EXPECT_EQ(snapshot.OutEdgeLabels(1)[0], 4u);
}

// The generic BFS visits the same (node, distance) set over the mutable
// adjacency as over its finalized snapshot.
TEST(MutableGraphTest, BfsAgreesWithSnapshot) {
  Graph g = MakeAmazonLike(500, 5);
  MutableGraph m(g);
  ASSERT_TRUE(m.InsertEdge(1, 100).ok());
  if (m.OutDegree(2) > 0) {
    ASSERT_TRUE(
        m.RemoveEdge(2, m.OutNeighbors(2)[0], m.OutEdgeLabels(2)[0]).ok());
  }
  const Graph snapshot = m.Snapshot();
  for (NodeId source : {NodeId{0}, NodeId{1}, NodeId{100}, NodeId{250}}) {
    for (EdgeDirection direction :
         {EdgeDirection::kOut, EdgeDirection::kIn, EdgeDirection::kUndirected}) {
      std::set<std::pair<NodeId, uint32_t>> from_mutable, from_snapshot;
      for (const BfsEntry& e : Bfs(m, source, direction, 3)) {
        from_mutable.insert({e.node, e.distance});
      }
      for (const BfsEntry& e : Bfs(snapshot, source, direction, 3)) {
        from_snapshot.insert({e.node, e.distance});
      }
      EXPECT_EQ(from_mutable, from_snapshot);
    }
  }
}

// Balls built directly over the mutable adjacency have the same global
// content as balls over the snapshot (local ids may differ; content is
// what matching consumes).
TEST(MutableGraphTest, BallsAgreeWithSnapshot) {
  Graph g = MakeUniform(200, 1.2, 4, 9);
  MutableGraph m(g);
  ASSERT_TRUE(m.InsertEdge(3, 77).ok());
  const Graph snapshot = m.Snapshot();
  BallBuilderT<MutableGraph> mutable_builder(m);
  BallBuilder snapshot_builder(snapshot);
  Ball a, b;
  for (NodeId center = 0; center < 200; center += 17) {
    mutable_builder.Build(center, 2, &a);
    snapshot_builder.Build(center, 2, &b);
    std::set<NodeId> nodes_a(a.to_global.begin(), a.to_global.end());
    std::set<NodeId> nodes_b(b.to_global.begin(), b.to_global.end());
    EXPECT_EQ(nodes_a, nodes_b);
    const auto global_edges = [](const Ball& ball) {
      std::set<std::pair<NodeId, NodeId>> edges;
      for (NodeId u = 0; u < ball.graph.num_nodes(); ++u) {
        for (NodeId v : ball.graph.OutNeighbors(u)) {
          edges.insert({ball.to_global[u], ball.to_global[v]});
        }
      }
      return edges;
    };
    EXPECT_EQ(global_edges(a), global_edges(b));
    EXPECT_EQ(a.center, b.center);
  }
}

// A builder created before the graph grew keeps working (scratch grows on
// the next Build).
TEST(MutableGraphTest, BallBuilderSurvivesNodeGrowth) {
  MutableGraph m(MakeGraph({1, 2}, {{0, 1}}));
  BallBuilderT<MutableGraph> builder(m);
  Ball ball;
  builder.Build(0, 1, &ball);
  EXPECT_EQ(ball.to_global.size(), 2u);
  const NodeId added = m.AddNode(3);
  ASSERT_TRUE(m.InsertEdge(1, added).ok());
  builder.Build(added, 1, &ball);
  EXPECT_EQ(ball.to_global.size(), 2u);
  EXPECT_EQ(ball.center, added);
}

// The reference that Snapshot() must agree with: every edge pushed through
// AddEdge, then Finalize().
Graph RebuildThroughFinalize(const MutableGraph& m) {
  Graph g;
  for (NodeId v = 0; v < m.num_nodes(); ++v) g.AddNode(m.label(v));
  for (NodeId v = 0; v < m.num_nodes(); ++v) {
    for (size_t i = 0; i < m.OutDegree(v); ++i) {
      g.AddEdge(v, m.OutNeighbors(v)[i], m.OutEdgeLabels(v)[i]);
    }
  }
  g.Finalize();
  return g;
}

template <typename T>
std::vector<T> ToVector(std::span<const T> s) {
  return {s.begin(), s.end()};
}

void ExpectSameFinalizedGraph(const Graph& actual, const Graph& expected) {
  ASSERT_TRUE(actual.finalized());
  ASSERT_EQ(actual.num_nodes(), expected.num_nodes());
  EXPECT_EQ(actual.num_edges(), expected.num_edges());
  EXPECT_TRUE(actual.StructurallyEqual(expected, /*compare_edge_labels=*/true));
  for (NodeId v = 0; v < expected.num_nodes(); ++v) {
    EXPECT_EQ(actual.label(v), expected.label(v)) << "node " << v;
    EXPECT_EQ(ToVector(actual.OutNeighbors(v)), ToVector(expected.OutNeighbors(v)))
        << "out-row " << v;
    EXPECT_EQ(ToVector(actual.OutEdgeLabels(v)),
              ToVector(expected.OutEdgeLabels(v)))
        << "edge labels of " << v;
    EXPECT_EQ(ToVector(actual.InNeighbors(v)), ToVector(expected.InNeighbors(v)))
        << "in-row " << v;
  }
  EXPECT_EQ(ToVector(actual.DistinctLabels()),
            ToVector(expected.DistinctLabels()));
  for (Label l : expected.DistinctLabels()) {
    EXPECT_EQ(ToVector(actual.NodesWithLabel(l)),
              ToVector(expected.NodesWithLabel(l)))
        << "label " << l;
  }
  EXPECT_EQ(actual.ContentHash(), expected.ContentHash());
}

// Property: after every batch of seeded random edits — inserts, removals,
// parallel edges under other labels, new nodes with new labels —
// Snapshot() is the same finalized graph as the AddEdge + Finalize()
// rebuild of the same content, and every call is a fresh instance.
TEST(MutableGraphTest, SnapshotEqualsFinalizeRebuildUnderRandomEdits) {
  constexpr uint32_t kLabels = 6;
  for (uint64_t seed : {3u, 11u, 29u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    MutableGraph m(MakeUniform(300, 1.2, kLabels, seed));
    Rng rng(seed * 7919 + 1);
    Label next_label = kLabels;
    for (int batch = 0; batch < 20; ++batch) {
      for (int edit = 0; edit < 40; ++edit) {
        const NodeId u = static_cast<NodeId>(rng.Uniform(m.num_nodes()));
        const NodeId v = static_cast<NodeId>(rng.Uniform(m.num_nodes()));
        const uint64_t kind = rng.Uniform(20);
        if (kind < 9) {
          (void)m.InsertEdge(u, v, static_cast<EdgeLabel>(rng.Uniform(4)));
        } else if (kind < 12 && m.OutDegree(u) > 0) {
          // A parallel edge under another label, possibly a smaller one.
          const size_t i = rng.Uniform(m.OutDegree(u));
          (void)m.InsertEdge(u, m.OutNeighbors(u)[i],
                             static_cast<EdgeLabel>(rng.Uniform(4)));
        } else if (kind < 19 && m.OutDegree(u) > 0) {
          const size_t i = rng.Uniform(m.OutDegree(u));
          ASSERT_TRUE(
              m.RemoveEdge(u, m.OutNeighbors(u)[i], m.OutEdgeLabels(u)[i]).ok());
        } else {
          const NodeId added = m.AddNode(next_label++);
          ASSERT_TRUE(m.InsertEdge(u, added).ok());
          ASSERT_TRUE(m.InsertEdge(added, v, 2).ok());
        }
      }
      const Graph snapshot = m.Snapshot();
      ExpectSameFinalizedGraph(snapshot, RebuildThroughFinalize(m));
      const Graph again = m.Snapshot();
      EXPECT_NE(snapshot.instance_id(), 0u);
      EXPECT_NE(again.instance_id(), snapshot.instance_id());
    }
  }
}

}  // namespace
}  // namespace gpm
