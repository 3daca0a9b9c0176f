// Parity tests for the unified delivery-cycle engine: every old-API entry
// point must produce identical results in serial and parallel mode (the
// engine's per-(seed, cycle, channel) arbitration streams make shard
// count and thread scheduling invisible), and the offline replay must
// reproduce a schedule exactly.
#include <gtest/gtest.h>

#include <numeric>

#include "core/offline_scheduler.hpp"
#include "core/online_router.hpp"
#include "core/replay.hpp"
#include "core/traffic.hpp"
#include "engine/engine.hpp"
#include "engine/fat_tree_model.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ft {
namespace {

OnlineRoutingResult run_online(const FatTreeTopology& t,
                               const CapacityProfile& caps,
                               const MessageSet& m, double alpha,
                               bool parallel) {
  Rng rng(12345);  // same seed both modes: the engine stream is derived
  OnlineRouterOptions opts;
  opts.alpha = alpha;
  opts.parallel = parallel;
  return route_online(t, caps, m, rng, opts);
}

TEST(EngineParity, OnlineSerialEqualsParallel) {
  const std::uint32_t n = 128;
  FatTreeTopology t(n);
  const auto caps = CapacityProfile::universal(t, 32);
  Rng gen(7);
  const auto m = stacked_permutations(n, 4, gen);

  for (const double alpha : {1.0, 0.75}) {
    const auto serial = run_online(t, caps, m, alpha, false);
    const auto parallel = run_online(t, caps, m, alpha, true);
    EXPECT_EQ(serial.delivery_cycles, parallel.delivery_cycles)
        << "alpha=" << alpha;
    EXPECT_EQ(serial.delivered_per_cycle, parallel.delivered_per_cycle)
        << "alpha=" << alpha;
    EXPECT_EQ(serial.total_attempts, parallel.total_attempts)
        << "alpha=" << alpha;
    EXPECT_EQ(serial.total_losses, parallel.total_losses)
        << "alpha=" << alpha;
    EXPECT_FALSE(serial.gave_up);
    const auto delivered =
        std::accumulate(serial.delivered_per_cycle.begin(),
                        serial.delivered_per_cycle.end(), std::uint64_t{0});
    EXPECT_EQ(delivered, m.size());
  }
}

TEST(EngineParity, OnlineDeterministicAcrossRuns) {
  FatTreeTopology t(64);
  const auto caps = CapacityProfile::doubling(t);
  Rng gen(11);
  const auto m = random_permutation_traffic(64, gen);
  const auto a = run_online(t, caps, m, 1.0, false);
  const auto b = run_online(t, caps, m, 1.0, false);
  EXPECT_EQ(a.delivery_cycles, b.delivery_cycles);
  EXPECT_EQ(a.delivered_per_cycle, b.delivered_per_cycle);
}

TEST(EngineParity, ReplayReproducesSchedule) {
  const std::uint32_t n = 64;
  FatTreeTopology t(n);
  const auto caps = CapacityProfile::universal(t, 16);
  Rng gen(41);
  auto m = stacked_permutations(n, 3, gen);
  m.push_back({5, 5});  // a local message rides along
  const auto schedule = schedule_offline(t, caps, m);
  ASSERT_TRUE(verify_schedule(t, caps, m, schedule));

  const auto replay = replay_schedule(t, caps, schedule);
  EXPECT_EQ(replay.cycles, schedule.num_cycles());
  EXPECT_EQ(replay.delivered, schedule.total_messages());
  EXPECT_EQ(replay.capacity_violations, 0u);
  ASSERT_EQ(replay.delivered_per_cycle.size(), schedule.num_cycles());
  for (std::size_t i = 0; i < schedule.num_cycles(); ++i) {
    EXPECT_EQ(replay.delivered_per_cycle[i], schedule.cycles[i].size());
  }
}

TEST(EngineParity, ReplayCountsCapacityViolations) {
  FatTreeTopology t(8);
  const auto caps = CapacityProfile::constant(t, 1);
  // Two messages through the same root trunk in one "cycle".
  Schedule s;
  s.cycles.push_back({{0, 4}, {1, 5}});
  const auto replay = replay_schedule(t, caps, s);
  EXPECT_GT(replay.capacity_violations, 0u);
  EXPECT_EQ(replay.delivered, 2u);  // tally mode still delivers
  EXPECT_FALSE(verify_schedule(t, caps, {{0, 4}, {1, 5}}, s));
}

TEST(EngineParity, GaveUpIsReportedNotSilent) {
  const std::uint32_t n = 64;
  FatTreeTopology t(n);
  const auto caps = CapacityProfile::constant(t, 1);
  Rng gen(51);
  const auto m = stacked_permutations(n, 8, gen);
  Rng rng(52);
  OnlineRouterOptions opts;
  opts.max_cycles = 1;  // far too few for 8 stacked permutations
  const auto r = route_online(t, caps, m, rng, opts);
  EXPECT_TRUE(r.gave_up);
  EXPECT_EQ(r.delivery_cycles, 1u);
  const auto delivered =
      std::accumulate(r.delivered_per_cycle.begin(),
                      r.delivered_per_cycle.end(), std::uint64_t{0});
  EXPECT_LT(delivered, m.size());
}

TEST(EngineParity, MetricsObserverMatchesResult) {
  const std::uint32_t n = 64;
  FatTreeTopology t(n);
  const auto caps = CapacityProfile::universal(t, 16);
  Rng gen(61);
  const auto m = stacked_permutations(n, 3, gen);

  EngineMetrics metrics;
  Rng rng(62);
  OnlineRouterOptions opts;
  opts.observer = &metrics;
  const auto r = route_online(t, caps, m, rng, opts);

  EXPECT_EQ(metrics.cycles(), r.delivery_cycles);
  EXPECT_EQ(metrics.total_attempts(), r.total_attempts);
  EXPECT_EQ(metrics.total_losses(), r.total_losses);
  // Every attempt either dies or delivers within its cycle.
  const auto engine_delivered =
      std::accumulate(metrics.delivered_per_cycle.begin(),
                      metrics.delivered_per_cycle.end(), std::uint64_t{0});
  EXPECT_EQ(metrics.total_attempts() - metrics.total_losses(),
            engine_delivered);
  EXPECT_EQ(metrics.peak_queue_depth(), 0u);  // lossy mode never queues

  // The utilization histogram covers every wire-budget channel once per
  // cycle: (num_nodes - 1) node channels x 2 directions.
  const std::uint64_t budget_channels = (t.num_nodes() - 1) * 2ull;
  EXPECT_EQ(metrics.utilization_histogram().total(),
            budget_channels * metrics.cycles());

  const double root_util = metrics.level_utilization(1);
  EXPECT_GT(root_util, 0.0);
  EXPECT_LE(root_util, 1.0);
}

// The traced event stream must be byte-identical in serial and parallel
// mode: lossy events are derived on the coordinating thread.
TEST(EngineParity, LossyTraceSerialEqualsParallel) {
  const std::uint32_t n = 128;
  FatTreeTopology t(n);
  const auto caps = CapacityProfile::universal(t, 32);
  Rng gen(71);
  const auto m = stacked_permutations(n, 4, gen);
  // Self messages are delivered locally without entering the engine, so
  // they emit no events.
  std::uint64_t routed = 0;
  for (const auto& msg : m) {
    if (msg.src != msg.dst) ++routed;
  }

  std::vector<std::vector<MessageEvent>> streams;
  for (const bool parallel : {false, true}) {
    TraceSink trace;
    Rng rng(72);
    OnlineRouterOptions opts;
    opts.parallel = parallel;
    opts.observer = &trace;
    const auto r = route_online(t, caps, m, rng, opts);
    EXPECT_FALSE(r.gave_up);

    std::uint64_t injects = 0, attempts = 0, losses = 0, delivers = 0;
    for (const MessageEvent& e : trace.message_events()) {
      switch (e.kind) {
        case MessageEventKind::Inject: ++injects; break;
        case MessageEventKind::Attempt: ++attempts; break;
        case MessageEventKind::Loss: ++losses; break;
        case MessageEventKind::Deliver: ++delivers; break;
        default: break;
      }
    }
    EXPECT_EQ(injects, routed);
    EXPECT_EQ(delivers, routed);
    EXPECT_EQ(attempts, r.total_attempts);
    EXPECT_EQ(losses, r.total_losses);
    streams.push_back(trace.message_events());
  }
  EXPECT_EQ(streams[0], streams[1]);
}

// The fault subsystem must preserve the engine's core guarantee: with an
// active FaultPlan (flaps + a burst) and a retry policy, serial and
// parallel runs still agree on cycle counts, per-cycle deliveries, every
// fault/retry counter, and the full traced event stream. FaultState
// advances only on the coordinating thread and every flap draw comes from
// a private (seed, cycle, channel) stream, so thread count is invisible.
TEST(EngineParity, TransientFaultsSerialEqualsParallel) {
  const std::uint32_t n = 128;
  FatTreeTopology t(n);
  const auto caps = CapacityProfile::universal(t, 32);
  Rng gen(91);
  const auto m = stacked_permutations(n, 4, gen);

  FaultPlan plan(92);
  plan.set_flaps({0.03, 0.3});
  plan.add_burst({/*at_cycle=*/2, /*duration=*/2, /*count=*/8});

  std::vector<OnlineRoutingResult> results;
  std::vector<std::vector<MessageEvent>> streams;
  for (const bool parallel : {false, true}) {
    TraceSink trace;
    Rng rng(93);
    OnlineRouterOptions opts;
    opts.parallel = parallel;
    opts.fault_plan = &plan;
    opts.retry.exponential_backoff = true;
    opts.observer = &trace;
    results.push_back(route_online(t, caps, m, rng, opts));
    streams.push_back(trace.message_events());
  }
  const auto& s = results[0];
  const auto& p = results[1];
  EXPECT_EQ(s.delivery_cycles, p.delivery_cycles);
  EXPECT_EQ(s.delivered_per_cycle, p.delivered_per_cycle);
  EXPECT_EQ(s.total_attempts, p.total_attempts);
  EXPECT_EQ(s.total_losses, p.total_losses);
  EXPECT_EQ(s.total_backoffs, p.total_backoffs);
  EXPECT_EQ(s.messages_given_up, p.messages_given_up);
  EXPECT_EQ(s.fault_down_events, p.fault_down_events);
  EXPECT_EQ(s.fault_up_events, p.fault_up_events);
  EXPECT_EQ(s.degraded_channel_cycles, p.degraded_channel_cycles);
  EXPECT_EQ(streams[0], streams[1]);
  // The scenario is not degenerate: faults struck and everything was
  // still delivered.
  EXPECT_GT(s.fault_down_events, 0u);
  EXPECT_FALSE(s.gave_up);
  const auto delivered =
      std::accumulate(s.delivered_per_cycle.begin(),
                      s.delivered_per_cycle.end(), std::uint64_t{0});
  EXPECT_EQ(delivered, m.size());
}

// Every routing discipline in the zoo must preserve the engine's
// serial ≡ parallel contract at every shard count: parallel on the
// unsharded graph (one shard, no pool), subtree-sharded with the
// parallel spine, sharded with the serial spine, and sharded with one
// thread (no pool, shards swept inline) must all reproduce the serial
// run bit for bit — counters and the full traced event stream. The wire-selecting policies (dmod, rlb) pick
// winners by pending index and hashed wire claims, the adaptive policy
// folds its occupancy feedback on the coordinating thread only; none of
// it may depend on thread count.
TEST(EngineParity, RoutingPoliciesSerialEqualsParallel) {
  const std::uint32_t n = 128;
  FatTreeTopology t(n);
  // Unit capacities + a persistent hotspot: every arbitration path is
  // exercised (long over-limit streaks for the adaptive feedback, real
  // wire contention for dmod/rlb), nothing degenerates to uncontended.
  const auto caps = CapacityProfile::constant(t, 1);
  Rng gen(111);
  auto m = persistent_hotspot_traffic(n, n / 3, 24, 0, gen);
  const auto local = stacked_permutations(n, 2, gen);
  m.insert(m.end(), local.begin(), local.end());

  struct Executor {
    const char* name;
    bool parallel;
    std::uint32_t shard_level;
    bool parallel_spine;
    std::size_t threads = 0;
  };
  const Executor executors[] = {
      {"serial", false, kShardLevelAuto, true},
      {"parallel-unsharded", true, 0, true},
      {"parallel-sharded", true, kShardLevelAuto, true},
      {"parallel-serial-spine", true, kShardLevelAuto, false},
      {"parallel-1-thread", true, kShardLevelAuto, true, 1},
  };

  for (const RoutingPolicy pol :
       {RoutingPolicy::ObliviousRandom, RoutingPolicy::DeterministicDmod,
        RoutingPolicy::RandomLoadBalanced,
        RoutingPolicy::AdaptiveOccupancy}) {
    std::vector<OnlineRoutingResult> results;
    std::vector<std::vector<MessageEvent>> streams;
    for (const Executor& ex : executors) {
      TraceSink trace;
      Rng rng(112);
      OnlineRouterOptions opts;
      opts.policy = pol;
      opts.parallel = ex.parallel;
      opts.shard_level = ex.shard_level;
      opts.parallel_spine = ex.parallel_spine;
      opts.threads = ex.threads;
      opts.observer = &trace;
      results.push_back(route_online(t, caps, m, rng, opts));
      streams.push_back(trace.message_events());
    }
    const auto& s = results[0];
    EXPECT_FALSE(s.gave_up) << static_cast<int>(pol);
    const auto delivered =
        std::accumulate(s.delivered_per_cycle.begin(),
                        s.delivered_per_cycle.end(), std::uint64_t{0});
    EXPECT_EQ(delivered, m.size()) << static_cast<int>(pol);
    if (pol == RoutingPolicy::AdaptiveOccupancy) {
      // The feedback actually engaged: hot-channel losers were parked.
      EXPECT_GT(s.total_backoffs, 0u);
    }
    for (std::size_t e = 1; e < results.size(); ++e) {
      const auto& p = results[e];
      EXPECT_EQ(s.delivery_cycles, p.delivery_cycles)
          << executors[e].name << " policy " << static_cast<int>(pol);
      EXPECT_EQ(s.delivered_per_cycle, p.delivered_per_cycle)
          << executors[e].name << " policy " << static_cast<int>(pol);
      EXPECT_EQ(s.total_attempts, p.total_attempts)
          << executors[e].name << " policy " << static_cast<int>(pol);
      EXPECT_EQ(s.total_losses, p.total_losses)
          << executors[e].name << " policy " << static_cast<int>(pol);
      EXPECT_EQ(s.total_backoffs, p.total_backoffs)
          << executors[e].name << " policy " << static_cast<int>(pol);
      EXPECT_EQ(s.messages_given_up, p.messages_given_up)
          << executors[e].name << " policy " << static_cast<int>(pol);
      EXPECT_EQ(streams[0], streams[e])
          << executors[e].name << " policy " << static_cast<int>(pol);
    }
  }
}

// Golden determinism for correlated subtree kills: for two plan seeds the
// full timeline — cycle count, kill/fault counters, and an FNV-1a
// fingerprint of the traced event stream — is pinned, and serial and
// parallel runs agree bit-for-bit. Any change to the per-(seed, cycle,
// node) storm streams, the kill → forced-down expansion, or event
// ordering shows up here as a changed fingerprint.
TEST(EngineParity, SubtreeKillGoldenTimelines) {
  const std::uint32_t n = 64;
  FatTreeTopology t(n);
  const auto caps = CapacityProfile::universal(t, 16);
  Rng gen(101);
  const auto m = stacked_permutations(n, 3, gen);

  struct Golden {
    std::uint64_t plan_seed;
    std::uint32_t delivery_cycles;
    std::uint64_t subtree_kill_events;
    std::uint64_t fault_down_events;
    std::uint64_t fault_up_events;
    std::uint64_t event_fingerprint;
  };
  const Golden goldens[] = {
      {201, 453, 80, 4774, 4774, 733948185611607479ull},
      {202, 453, 79, 4712, 4712, 7881268179795093087ull},
  };

  for (const Golden& g : goldens) {
    FaultPlan plan(g.plan_seed);
    plan.set_domains(fat_tree_subtree_domains(t, 2));
    plan.add_subtree_kill({/*node=*/4, /*at_cycle=*/2, /*duration=*/5});
    plan.set_storm({0.05, 1, 6});

    std::vector<OnlineRoutingResult> results;
    std::vector<std::uint64_t> prints;
    for (const bool parallel : {false, true}) {
      TraceSink trace;
      Rng rng(777);  // engine seed fixed; only the plan seed varies
      OnlineRouterOptions opts;
      opts.parallel = parallel;
      opts.fault_plan = &plan;
      opts.retry.exponential_backoff = true;
      opts.observer = &trace;
      results.push_back(route_online(t, caps, m, rng, opts));

      std::uint64_t h = 14695981039346656037ull;  // FNV-1a over events
      const auto mix = [&h](std::uint64_t v) {
        h = (h ^ v) * 1099511628211ull;
      };
      for (const MessageEvent& e : trace.message_events()) {
        mix(static_cast<std::uint64_t>(e.kind));
        mix(e.message);
        mix(e.cycle);
        mix(e.channel);
      }
      prints.push_back(h);
    }
    const auto& s = results[0];
    const auto& p = results[1];
    EXPECT_EQ(s.delivery_cycles, p.delivery_cycles);
    EXPECT_EQ(s.delivered_per_cycle, p.delivered_per_cycle);
    EXPECT_EQ(s.subtree_kill_events, p.subtree_kill_events);
    EXPECT_EQ(s.fault_down_events, p.fault_down_events);
    EXPECT_EQ(s.fault_up_events, p.fault_up_events);
    EXPECT_EQ(prints[0], prints[1]);

    EXPECT_FALSE(s.gave_up);
    const auto delivered =
        std::accumulate(s.delivered_per_cycle.begin(),
                        s.delivered_per_cycle.end(), std::uint64_t{0});
    EXPECT_EQ(delivered, m.size());

    EXPECT_EQ(s.delivery_cycles, g.delivery_cycles)
        << "plan seed " << g.plan_seed;
    EXPECT_EQ(s.subtree_kill_events, g.subtree_kill_events)
        << "plan seed " << g.plan_seed;
    EXPECT_EQ(s.fault_down_events, g.fault_down_events)
        << "plan seed " << g.plan_seed;
    EXPECT_EQ(s.fault_up_events, g.fault_up_events)
        << "plan seed " << g.plan_seed;
    EXPECT_EQ(prints[0], g.event_fingerprint)
        << "plan seed " << g.plan_seed;
  }
}

}  // namespace
}  // namespace ft
