#include "nets/store_forward.hpp"

#include <gtest/gtest.h>

#include "core/traffic.hpp"
#include "engine/engine.hpp"
#include "nets/builders.hpp"
#include "util/prng.hpp"

namespace ft {
namespace {

TEST(StoreForward, EmptyRoutesFinishInstantly) {
  const auto net = build_mesh2d(3, 3);
  const auto r = simulate_store_forward(net, {});
  EXPECT_EQ(r.rounds, 0u);
}

TEST(StoreForward, SingleMessageTakesPathLengthRounds) {
  const auto net = build_mesh2d(1, 8);  // a line
  const auto route = bfs_route(net, 0, 7);
  const auto r = simulate_store_forward(net, {route});
  EXPECT_EQ(r.rounds, 7u);
  EXPECT_EQ(r.total_hops, 7u);
  EXPECT_DOUBLE_EQ(r.mean_latency, 7.0);
}

TEST(StoreForward, ContentionSerializesOnSharedLink) {
  // Two identical routes share every link: the second message queues one
  // round behind the first on the first hop and stays behind.
  const auto net = build_mesh2d(1, 4);
  const auto ra = bfs_route(net, 0, 3);
  const auto r = simulate_store_forward(net, {ra, ra});
  EXPECT_EQ(r.rounds, 4u);  // 3 hops + 1 round of queueing

  // Staggered sources on a line pipeline perfectly instead.
  const auto rb = bfs_route(net, 1, 3);
  const auto r2 = simulate_store_forward(net, {ra, rb});
  EXPECT_EQ(r2.rounds, 3u);
}

TEST(StoreForward, SelfMessagesDoNotBlock) {
  const auto net = build_mesh2d(2, 2);
  const std::vector<Route> routes{{}, {}, bfs_route(net, 0, 3)};
  const auto r = simulate_store_forward(net, routes);
  EXPECT_EQ(r.rounds, 2u);
}

TEST(StoreForward, ResultAtLeastLowerBound) {
  const auto net = build_hypercube(6);
  Rng rng(1);
  const auto m = random_permutation_traffic(64, rng);
  const auto routes = route_all_bfs(net, m);
  const auto r = simulate_store_forward(net, routes);
  EXPECT_GE(r.rounds, store_forward_lower_bound(net, routes));
}

TEST(StoreForward, LowerBoundComputesCongestionAndDilation) {
  const auto net = build_mesh2d(1, 5);
  const auto long_route = bfs_route(net, 0, 4);
  EXPECT_EQ(store_forward_lower_bound(net, {long_route}), 4u);
  // Four messages over one link: congestion 4 exceeds dilation 1.
  const auto hop = bfs_route(net, 1, 2);
  EXPECT_EQ(store_forward_lower_bound(net, {hop, hop, hop, hop}), 4u);
}

TEST(StoreForward, PermutationOnHypercubeIsFast) {
  // Random permutations on a hypercube route in O(lg n)-ish rounds.
  const auto net = build_hypercube(8);
  Rng rng(3);
  const auto m = random_permutation_traffic(256, rng);
  const auto routes = route_all_bfs(net, m);
  const auto r = simulate_store_forward(net, routes);
  EXPECT_LE(r.rounds, 40u);
  EXPECT_GE(r.rounds, 8u);
}

TEST(StoreForward, TreeRootIsABottleneck) {
  // The simple (non-fat) tree serializes root crossings: complement
  // traffic needs Ω(n) rounds — the paper's motivation for fattening.
  const std::uint32_t n = 64;
  const auto net = build_binary_tree(6);
  const auto m = complement_traffic(n);
  const auto routes = route_all_bfs(net, m);
  const auto r = simulate_store_forward(net, routes);
  EXPECT_GE(r.rounds, n / 2);
}

TEST(StoreForward, CapacityTwoHalvesSerialization) {
  Network net(2, "pair");
  net.add_link(0, 1, 2);
  const Route hop{0};
  const auto r = simulate_store_forward(net, {hop, hop, hop, hop});
  EXPECT_EQ(r.rounds, 2u);
}

TEST(StoreForward, MeanLatencyBelowMakespan) {
  const auto net = build_mesh2d(8, 8);
  Rng rng(5);
  const auto m = random_permutation_traffic(64, rng);
  const auto routes = route_all_bfs(net, m);
  const auto r = simulate_store_forward(net, routes);
  EXPECT_LE(r.mean_latency, static_cast<double>(r.rounds));
  EXPECT_GT(r.mean_latency, 0.0);
}

// The FIFO executor validates injected paths like the lossy one: a hop
// past the channel table or onto a zero-capacity slot aborts at
// injection instead of indexing a queue that does not exist. Stages are
// not checked (flat graphs put every channel at stage 0).
TEST(StoreForwardDeathTest, FifoEngineRejectsUnknownChannels) {
  EngineOptions opts;
  opts.contention = ContentionPolicy::Fifo;
  CycleEngine engine(ChannelGraph::flat({1, 0, 1, 1}), opts);
  EXPECT_EQ(engine.run(PathSet::from_paths(std::vector<EnginePath>{{3, 0}}))
                .delivered,
            1u);
  EXPECT_DEATH(
      engine.run(PathSet::from_paths(std::vector<EnginePath>{{2, 1000000}})),
      "path uses an unknown channel");
  EXPECT_DEATH(engine.run(PathSet::from_paths(std::vector<EnginePath>{{0, 1}})),
               "path uses an unknown channel");
}

}  // namespace
}  // namespace ft
