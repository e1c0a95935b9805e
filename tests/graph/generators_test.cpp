#include "graph/generators.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "graph/algorithms.hpp"

namespace radiocast::graph {
namespace {

TEST(Generators, PathShape) {
  const Graph g = make_path(6);
  EXPECT_EQ(g.num_nodes(), 6u);
  EXPECT_EQ(g.num_edges(), 5u);
  EXPECT_EQ(g.max_degree(), 2u);
  EXPECT_EQ(diameter(g), 5u);
}

TEST(Generators, CycleShape) {
  const Graph g = make_cycle(8);
  EXPECT_EQ(g.num_edges(), 8u);
  for (NodeId v = 0; v < 8; ++v) EXPECT_EQ(g.degree(v), 2u);
}

TEST(Generators, StarShape) {
  const Graph g = make_star(9);
  EXPECT_EQ(g.num_edges(), 8u);
  EXPECT_EQ(g.degree(0), 8u);
  for (NodeId v = 1; v < 9; ++v) EXPECT_EQ(g.degree(v), 1u);
}

TEST(Generators, CompleteShape) {
  const Graph g = make_complete(7);
  EXPECT_EQ(g.num_edges(), 21u);
  EXPECT_EQ(g.max_degree(), 6u);
  EXPECT_EQ(diameter(g), 1u);
}

TEST(Generators, GridShape) {
  const Graph g = make_grid(3, 4);
  EXPECT_EQ(g.num_nodes(), 12u);
  EXPECT_EQ(g.num_edges(), 3u * 3 + 2u * 4);  // horizontal + vertical
  EXPECT_LE(g.max_degree(), 4u);
  EXPECT_EQ(diameter(g), 5u);
}

TEST(Generators, TorusIsRegular) {
  const Graph g = make_torus(4, 5);
  EXPECT_EQ(g.num_nodes(), 20u);
  for (NodeId v = 0; v < 20; ++v) EXPECT_EQ(g.degree(v), 4u);
}

TEST(Generators, RandomTreeIsTree) {
  Rng rng(1);
  for (int trial = 0; trial < 10; ++trial) {
    const Graph g = make_random_tree(50, rng);
    EXPECT_EQ(g.num_edges(), 49u);
    EXPECT_TRUE(is_connected(g));
  }
}

TEST(Generators, CaterpillarShape) {
  const Graph g = make_caterpillar(5, 3);
  EXPECT_EQ(g.num_nodes(), 20u);
  EXPECT_TRUE(is_connected(g));
  EXPECT_EQ(g.max_degree(), 5u);  // interior spine: 2 spine + 3 legs
  EXPECT_EQ(diameter(g), 6u);     // leaf - spine...spine - leaf
}

TEST(Generators, ClusterChainShape) {
  const Graph g = make_cluster_chain(4, 5);
  EXPECT_EQ(g.num_nodes(), 20u);
  EXPECT_TRUE(is_connected(g));
  EXPECT_EQ(g.max_degree(), 5u);  // bridge endpoints: 4 clique + 1 bridge
  // Diameter: within-clique hops + bridges: 2 per clique boundary.
  EXPECT_EQ(diameter(g), 7u);
}

TEST(Generators, GnpIsConnectedEvenWhenSparse) {
  Rng rng(2);
  for (int trial = 0; trial < 10; ++trial) {
    const Graph g = make_gnp_connected(40, 0.02, rng);  // far below threshold
    EXPECT_TRUE(is_connected(g));
    EXPECT_EQ(g.num_nodes(), 40u);
  }
}

TEST(Generators, GeometricIsConnected) {
  Rng rng(3);
  for (int trial = 0; trial < 10; ++trial) {
    const Graph g = make_random_geometric(60, 0.2, rng);
    EXPECT_TRUE(is_connected(g));
  }
}

TEST(Generators, BoundedDegreeRespectsCap) {
  Rng rng(4);
  for (std::size_t cap : {3u, 5u, 8u}) {
    const Graph g = make_bounded_degree(60, cap, 0.8, rng);
    EXPECT_TRUE(is_connected(g));
    EXPECT_LE(g.max_degree(), cap);
  }
}

TEST(Generators, BarbellShape) {
  const Graph g = make_barbell(4, 3);
  EXPECT_EQ(g.num_nodes(), 11u);
  EXPECT_TRUE(is_connected(g));
  EXPECT_EQ(diameter(g), 6u);  // clique hop + 4 path edges + clique hop
}

TEST(Generators, DeterministicGivenSeed) {
  Rng a(9), b(9);
  const Graph g1 = make_gnp_connected(30, 0.15, a);
  const Graph g2 = make_gnp_connected(30, 0.15, b);
  EXPECT_EQ(g1.edges(), g2.edges());
}

// Invariants common to every named family.
class FamilyInvariants : public ::testing::TestWithParam<std::string> {};

TEST_P(FamilyInvariants, ConnectedRightSizeNoSelfLoops) {
  Rng rng(11);
  for (NodeId n : {16u, 48u, 100u}) {
    const Graph g = make_named(GetParam(), n, rng);
    EXPECT_TRUE(is_connected(g)) << GetParam() << " n=" << n;
    EXPECT_GE(g.num_nodes(), n / 2) << GetParam();  // families may round shape
    EXPECT_GE(g.num_edges(), g.num_nodes() - 1) << GetParam();
    // The pre-flight's exact count for the dense shapes (0 = not dense).
    const std::uint64_t dense = named_dense_edges(GetParam(), n);
    if (dense != 0) EXPECT_EQ(g.num_edges(), dense) << GetParam() << " n=" << n;
    for (const auto& [u, v] : g.edges()) EXPECT_NE(u, v);
  }
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, FamilyInvariants,
                         ::testing::ValuesIn(named_families()));

}  // namespace
}  // namespace radiocast::graph
