#include "accel/dddg.h"

#include <gtest/gtest.h>

namespace ndp::accel {
namespace {

TEST(LoopKernelTest, LibraryKernelsValidate) {
  std::string err;
  EXPECT_TRUE(MakeSelectKernel().Validate(&err)) << err;
  EXPECT_TRUE(MakeAggregateKernel().Validate(&err)) << err;
  EXPECT_TRUE(MakeProjectKernel().Validate(&err)) << err;
  for (uint32_t p : {1u, 2u, 3u, 4u, 7u}) {
    EXPECT_TRUE(MakeRowStoreKernel(p).Validate(&err)) << "p=" << p << ": " << err;
  }
}

TEST(LoopKernelTest, ForwardDependenceIsInvalid) {
  LoopKernel k;
  k.name = "bad";
  k.body.push_back({OpCode::kAdd, "a", {1}, {}});  // depends on later op
  k.body.push_back({OpCode::kAdd, "b", {}, {}});
  std::string err;
  EXPECT_FALSE(k.Validate(&err));
  EXPECT_NE(err.find("forward"), std::string::npos);
}

TEST(DddgTest, NodeCountAndIds) {
  LoopKernel k = MakeSelectKernel();
  auto g = Dddg::Build(k, 10).ValueOrDie();
  EXPECT_EQ(g.nodes().size(), 10 * k.body.size());
  EXPECT_EQ(g.body_size(), k.body.size());
  EXPECT_EQ(g.NodeId(3, 2), 3 * k.body.size() + 2);
}

TEST(DddgTest, SameIterationDependencesWired) {
  LoopKernel k = MakeSelectKernel();
  auto g = Dddg::Build(k, 2).ValueOrDie();
  // Op 3 ("and") depends on ops 1 and 2 of the same iteration.
  auto andop = g.preds(g.NodeId(1, 3));
  EXPECT_EQ(andop.size(), 2u);
  EXPECT_EQ(andop[0], g.NodeId(1, 1));
  EXPECT_EQ(andop[1], g.NodeId(1, 2));
}

TEST(DddgTest, CarriedDependencesCrossIterations) {
  LoopKernel k = MakeAggregateKernel();
  auto g = Dddg::Build(k, 3).ValueOrDie();
  // Accumulator of iteration 2 depends on load(iter 2) and acc(iter 1).
  auto acc2 = g.preds(g.NodeId(2, 1));
  ASSERT_EQ(acc2.size(), 2u);
  EXPECT_EQ(acc2[0], g.NodeId(2, 0));
  EXPECT_EQ(acc2[1], g.NodeId(1, 1));
  // Iteration 0 has no carried predecessor.
  EXPECT_EQ(g.preds(g.NodeId(0, 1)).size(), 1u);
}

TEST(DddgTest, ZeroIterationsRejected) {
  EXPECT_FALSE(Dddg::Build(MakeSelectKernel(), 0).ok());
}

TEST(DddgTest, EdgeCountMatchesStructure) {
  LoopKernel k = MakeAggregateKernel();  // per iter: 1 dep + 1 carried
  auto g = Dddg::Build(k, 5).ValueOrDie();
  // 5 same-iteration edges + 4 carried edges.
  uint64_t edges = 0;
  for (uint32_t id = 0; id < g.nodes().size(); ++id) {
    edges += g.preds(id).size();
  }
  EXPECT_EQ(edges, 9u);
}

}  // namespace
}  // namespace ndp::accel
