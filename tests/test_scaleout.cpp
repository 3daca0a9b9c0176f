// Scale-out regression tests: streamed message sets are bit-identical to
// materialized ones (results and trace streams), the narrow/wide channel
// index boundary at 2^16 channels is seamless, checked narrowing aborts
// at the 32-bit boundary, and the subtree-sharded parallel executor
// matches the serial engine on every workload shape — including faults,
// retry policies and the wide (u32) hop path — and fault-free Tally runs,
// which skip the stage sweep, count exactly what a naive per-cycle channel
// map counts. See DESIGN.md "Scale-out".
#include <gtest/gtest.h>
#include <algorithm>

#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "core/capacity.hpp"
#include "core/offline_scheduler.hpp"
#include "core/online_router.hpp"
#include "core/replay.hpp"
#include "core/topology.hpp"
#include "core/traffic.hpp"
#include "engine/engine.hpp"
#include "engine/fat_tree_model.hpp"
#include "engine/kary_model.hpp"
#include "engine/network_model.hpp"
#include "kary/kary_routing.hpp"
#include "kary/kary_sim.hpp"
#include "kary/kary_tree.hpp"
#include "nets/builders.hpp"
#include "nets/routing.hpp"
#include "nets/store_forward.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace {

using namespace ft;

std::uint64_t event_fingerprint(const TraceSink& trace) {
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](std::uint64_t v) { h = (h ^ v) * 1099511628211ull; };
  for (const MessageEvent& e : trace.message_events()) {
    mix(static_cast<std::uint64_t>(e.kind));
    mix(e.message);
    mix(e.cycle);
    mix(e.channel);
  }
  return h;
}

void expect_same_result(const EngineResult& a, const EngineResult& b,
                        const char* label) {
  EXPECT_EQ(a.cycles, b.cycles) << label;
  EXPECT_EQ(a.gave_up, b.gave_up) << label;
  EXPECT_EQ(a.delivered, b.delivered) << label;
  EXPECT_EQ(a.total_attempts, b.total_attempts) << label;
  EXPECT_EQ(a.total_losses, b.total_losses) << label;
  EXPECT_EQ(a.total_hops, b.total_hops) << label;
  EXPECT_EQ(a.latency_sum, b.latency_sum) << label;
  EXPECT_EQ(a.max_queue, b.max_queue) << label;
  EXPECT_EQ(a.messages_given_up, b.messages_given_up) << label;
  EXPECT_EQ(a.total_backoffs, b.total_backoffs) << label;
  EXPECT_EQ(a.delivered_per_cycle, b.delivered_per_cycle) << label;
  EXPECT_EQ(a.capacity_violations, b.capacity_violations) << label;
}

// --- Streaming vs materialized -------------------------------------------

// run_stream over chunked slices of a PathSet must match run() on the
// whole set, for every contention policy, including the traced event
// stream — whatever the chunk size.
TEST(Scaleout, StreamedRunMatchesMaterialized) {
  const std::uint32_t n = 128;
  FatTreeTopology topo(n);
  const auto caps = CapacityProfile::universal(topo, 16);
  Rng gen(11);
  const auto m = stacked_permutations(n, 3, gen);
  const PathSet paths = fat_tree_path_set(topo, m);

  for (const ContentionPolicy policy :
       {ContentionPolicy::RandomSubset, ContentionPolicy::Fifo,
        ContentionPolicy::Tally}) {
    EngineOptions opts;
    opts.contention = policy;
    opts.seed = 99;

    CycleEngine base_engine(fat_tree_channel_graph(topo, caps), opts);
    TraceSink base_trace;
    const EngineResult base = base_engine.run(paths, &base_trace);

    for (const std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                    kDefaultChunkPaths}) {
      CycleEngine engine(fat_tree_channel_graph(topo, caps), opts);
      PathSetSource source(paths, chunk);
      TraceSink trace;
      const EngineResult streamed = engine.run_stream(source, &trace);
      expect_same_result(base, streamed, "run_stream");
      EXPECT_EQ(event_fingerprint(base_trace), event_fingerprint(trace))
          << "policy " << static_cast<int>(policy) << " chunk " << chunk;
    }
  }
}

/// Yields a fixed sequence of PathSets, one per chunk, so
/// run_batched_stream injects batch i at cycle i + 1.
class BatchVectorSource final : public MessageSource {
 public:
  explicit BatchVectorSource(const std::vector<PathSet>& batches)
      : batches_(batches) {}

  bool next_chunk(PathSet& chunk) override {
    chunk.clear();
    if (next_ >= batches_.size()) return false;
    chunk.append_set(batches_[next_++]);
    return true;
  }

 private:
  const std::vector<PathSet>& batches_;
  std::size_t next_ = 0;
};

// route_online and route_online_stream agree for the same messages,
// including self messages (delivered locally, outside the engine).
TEST(Scaleout, OnlineRouterStreamMatchesMessageSet) {
  const std::uint32_t n = 64;
  FatTreeTopology topo(n);
  const auto caps = CapacityProfile::universal(topo, 16);
  Rng gen(3);
  MessageSet m = random_permutation_traffic(n, gen);
  m.push_back({5, 5});  // self messages bypass the engine
  m.push_back({0, 0});

  for (const bool parallel : {false, true}) {
    OnlineRouterOptions opts;
    opts.parallel = parallel;

    Rng rng_a(777);
    const auto a = route_online(topo, caps, m, rng_a, opts);

    Rng rng_b(777);
    MessageSetStream stream(m);
    // lambda_hint only sizes the give-up horizon; any value above the
    // actual cycle count gives the identical run.
    const auto b = route_online_stream(topo, caps, stream, 2.0, rng_b, opts);

    EXPECT_EQ(a.delivery_cycles, b.delivery_cycles);
    EXPECT_EQ(a.total_attempts, b.total_attempts);
    EXPECT_EQ(a.total_losses, b.total_losses);
    EXPECT_EQ(a.delivered_per_cycle, b.delivered_per_cycle);
    const auto total = std::accumulate(a.delivered_per_cycle.begin(),
                                       a.delivered_per_cycle.end(),
                                       std::uint64_t{0});
    EXPECT_EQ(total, m.size());
  }
}

// Formula streams agree with their materialized generators element for
// element, and RandomPermutationStream consumes the same draw as
// random_permutation_traffic.
TEST(Scaleout, StreamsMatchMaterializedGenerators) {
  const std::uint32_t n = 256;
  const struct {
    MessageSet materialized;
    FormulaStream::Fn fn;
  } cases[] = {
      {bit_reversal_traffic(n), bit_reversal_dest},
      {complement_traffic(n), complement_dest},
      {tornado_traffic(n), tornado_dest},
      {shuffle_traffic(n), shuffle_dest},
      {transpose_traffic(n), transpose_dest},
  };
  for (const auto& c : cases) {
    FormulaStream stream(n, c.fn);
    Message msg;
    std::size_t i = 0;
    while (stream.next(msg)) {
      ASSERT_LT(i, c.materialized.size());
      EXPECT_EQ(msg.src, c.materialized[i].src);
      EXPECT_EQ(msg.dst, c.materialized[i].dst);
      ++i;
    }
    EXPECT_EQ(i, c.materialized.size());
  }

  Rng a(42), b(42);
  const MessageSet perm = random_permutation_traffic(n, a);
  RandomPermutationStream stream(n, b);
  Message msg;
  std::size_t i = 0;
  while (stream.next(msg)) {
    ASSERT_LT(i, perm.size());
    EXPECT_EQ(msg.src, perm[i].src);
    EXPECT_EQ(msg.dst, perm[i].dst);
    ++i;
  }
  EXPECT_EQ(i, perm.size());
}

// Store-and-forward: the streaming entry point matches the route-vector
// form at any chunk size.
TEST(Scaleout, StoreForwardStreamMatchesVector) {
  const auto net = build_mesh2d(6, 6);
  Rng rng(5);
  const auto m = uniform_random_traffic(36, 100, rng);
  const auto routes = route_all_bfs(net, m);

  const auto base = simulate_store_forward(net, routes);
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{3}}) {
    RouteChunkSource source(routes, chunk);
    const auto streamed =
        simulate_store_forward_stream(net, source, routes.size());
    EXPECT_EQ(base.rounds, streamed.rounds);
    EXPECT_EQ(base.delivered, streamed.delivered);
    EXPECT_EQ(base.total_hops, streamed.total_hops);
    EXPECT_EQ(base.max_queue, streamed.max_queue);
    EXPECT_EQ(base.mean_latency, streamed.mean_latency);
  }
}

// k-ary: the simulation streams its routes; replicating the old
// materialize-then-run pipeline by hand from the same generator state
// must give the same rounds and load statistics.
TEST(Scaleout, KaryStreamMatchesMaterialized) {
  KaryTree tree(/*k=*/2, /*levels=*/5);
  const std::uint32_t n = tree.num_processors();
  Rng pgen(9);
  std::vector<std::uint32_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0u);
  for (std::uint32_t i = n - 1; i > 0; --i) {
    std::swap(perm[i], perm[pgen.below(i + 1)]);
  }

  Rng rng_a(21);
  const auto streamed = simulate_kary_permutation(tree, perm,
                                                  AscentPolicy::Random, rng_a);

  Rng rng_b(21);
  KaryLoadTracker tracker(tree);
  std::vector<KaryRoute> routes;
  std::uint32_t max_hops = 0;
  for (std::uint32_t p = 0; p < n; ++p) {
    routes.push_back(
        kary_route(tree, p, perm[p], AscentPolicy::Random, rng_b, tracker));
    max_hops = std::max(max_hops,
                        static_cast<std::uint32_t>(routes.back().size()));
  }
  EngineOptions fifo;
  fifo.contention = ContentionPolicy::Fifo;
  CycleEngine engine(kary_channel_graph(tree), fifo);
  const EngineResult er = engine.run(kary_path_set(routes));

  EXPECT_EQ(streamed.rounds, er.cycles);
  EXPECT_EQ(streamed.delivered, er.delivered);
  EXPECT_EQ(streamed.max_route_hops, max_hops);
  EXPECT_EQ(streamed.max_link_load, tracker.max_load());
  EXPECT_EQ(streamed.mean_link_load, tracker.mean_positive_load());
}

// --- Narrow/wide boundary -------------------------------------------------

// Arbitration streams are keyed by (seed, cycle, channel) only, so adding
// unused channels — in particular crossing the 2^16 boundary where the
// engine switches from 16-bit to 32-bit hop buffers — must not change any
// result bit.
TEST(Scaleout, NarrowWideBoundaryIsSeamless) {
  const std::size_t kUsed = 100;
  // Three contenders per channel, capacity 1: every channel runs a
  // lottery every cycle until its bucket drains.
  PathSet paths;
  for (std::uint32_t i = 0; i < 3 * kUsed; ++i) {
    paths.push_channel(static_cast<std::uint32_t>(i % kUsed));
    paths.close_path();
  }

  EngineOptions opts;
  opts.seed = 1234;

  EngineResult base;
  bool have_base = false;
  for (const std::size_t channels :
       {kUsed, std::size_t{65535}, std::size_t{65536}, std::size_t{65537}}) {
    CycleEngine engine(
        ChannelGraph::flat(std::vector<std::uint64_t>(channels, 1)), opts);
    const EngineResult r = engine.run(paths);
    EXPECT_EQ(r.delivered, paths.size());
    EXPECT_EQ(r.cycles, 3u);  // capacity 1, three contenders per channel
    if (!have_base) {
      base = r;
      have_base = true;
    } else {
      expect_same_result(base, r, "narrow/wide boundary");
    }
  }

  // The top channel slot is usable on both sides of the boundary.
  for (const std::size_t channels : {std::size_t{65536}, std::size_t{65537}}) {
    CycleEngine engine(
        ChannelGraph::flat(std::vector<std::uint64_t>(channels, 1)), opts);
    const std::vector<EnginePath> top = {
        {static_cast<std::uint32_t>(channels - 1)},
        {static_cast<std::uint32_t>(channels - 1)}};
    const EngineResult r = engine.run(PathSet::from_paths(top));
    EXPECT_EQ(r.delivered, 2u);
    EXPECT_EQ(r.cycles, 2u);
  }
}

TEST(ScaleoutDeathTest, CheckedNarrowingAbortsPastU32) {
  EXPECT_EQ(checked_u32(0xffffffffULL, "fits"), 0xffffffffu);
  EXPECT_EQ(checked_u32(0, "fits"), 0u);
  EXPECT_DEATH(checked_u32(0x100000000ULL, "counter overflows 32 bits"),
               "counter overflows 32 bits");
}

// --- Subtree sharding -----------------------------------------------------

// The sharded parallel executor is purely an execution strategy: for
// every shard depth (including depth 1, whose spine band is empty) and
// for workloads that stay inside shards, all cross the root, or mix, the
// results and traced event streams match the unsharded serial engine.
TEST(Scaleout, ShardedEngineMatchesSerial) {
  const std::uint32_t n = 128;
  FatTreeTopology topo(n);
  const auto caps = CapacityProfile::universal(topo, 32);

  Rng gen(17);
  const struct {
    const char* name;
    MessageSet m;
  } workloads[] = {
      {"random_perm", random_permutation_traffic(n, gen)},
      {"complement", complement_traffic(n)},  // every message crosses root
      {"local", local_traffic(n, 3, gen)},    // mostly intra-shard
      {"stacked", stacked_permutations(n, 4, gen)},
  };

  for (const auto& w : workloads) {
    const PathSet paths = fat_tree_path_set(topo, w.m);

    EngineOptions serial_opts;
    serial_opts.seed = 321;
    CycleEngine serial_engine(fat_tree_channel_graph(topo, caps),
                              serial_opts);
    TraceSink serial_trace;
    const EngineResult serial = serial_engine.run(paths, &serial_trace);
    EXPECT_FALSE(serial.gave_up) << w.name;

    for (const std::uint32_t shard_level : {1u, 2u, 3u}) {
      EngineOptions opts;
      opts.seed = 321;
      opts.parallel = true;
      CycleEngine engine(fat_tree_channel_graph(topo, caps, shard_level),
                         opts);
      TraceSink trace;
      const EngineResult sharded = engine.run(paths, &trace);
      expect_same_result(serial, sharded, w.name);
      EXPECT_EQ(event_fingerprint(serial_trace), event_fingerprint(trace))
          << w.name << " shard_level " << shard_level;
    }
  }
}

// Sharding composes with the retry/fault machinery: dynamic faults, kill
// domains and exponential backoff all run through the sharded sweeps.
TEST(Scaleout, ShardedEngineMatchesSerialUnderFaults) {
  const std::uint32_t n = 64;
  FatTreeTopology topo(n);
  const auto caps = CapacityProfile::universal(topo, 16);
  Rng gen(23);
  const auto m = stacked_permutations(n, 3, gen);
  const PathSet paths = fat_tree_path_set(topo, m);

  FaultPlan plan(404);
  plan.set_domains(fat_tree_subtree_domains(topo, 2));
  plan.add_subtree_kill({/*node=*/5, /*at_cycle=*/2, /*duration=*/4});
  plan.set_storm({0.05, 1, 5});

  EngineOptions serial_opts;
  serial_opts.seed = 55;
  serial_opts.fault_plan = &plan;
  serial_opts.retry.exponential_backoff = true;
  CycleEngine serial_engine(fat_tree_channel_graph(topo, caps), serial_opts);
  TraceSink serial_trace;
  const EngineResult serial = serial_engine.run(paths, &serial_trace);

  EngineOptions opts = serial_opts;
  opts.parallel = true;
  CycleEngine engine(fat_tree_channel_graph(topo, caps, 2), opts);
  TraceSink trace;
  const EngineResult sharded = engine.run(paths, &trace);

  expect_same_result(serial, sharded, "faulted sharded run");
  EXPECT_EQ(serial.fault_down_events, sharded.fault_down_events);
  EXPECT_EQ(serial.fault_up_events, sharded.fault_up_events);
  EXPECT_EQ(serial.subtree_kill_events, sharded.subtree_kill_events);
  EXPECT_EQ(event_fingerprint(serial_trace), event_fingerprint(trace));
}

// Streaming and sharding compose: a streamed sharded parallel run equals
// the materialized serial run.
TEST(Scaleout, StreamedShardedMatchesMaterializedSerial) {
  const std::uint32_t n = 128;
  FatTreeTopology topo(n);
  const auto caps = CapacityProfile::universal(topo, 32);
  Rng gen(29);
  const auto m = random_permutation_traffic(n, gen);
  const PathSet paths = fat_tree_path_set(topo, m);

  EngineOptions serial_opts;
  serial_opts.seed = 777;
  CycleEngine serial_engine(fat_tree_channel_graph(topo, caps), serial_opts);
  const EngineResult serial = serial_engine.run(paths);

  EngineOptions opts = serial_opts;
  opts.parallel = true;
  CycleEngine engine(fat_tree_channel_graph(topo, caps, 2), opts);
  MessageSetStream stream(m);
  FatTreePathSource source(topo, stream, /*chunk_paths=*/16);
  const EngineResult streamed = engine.run_stream(source);

  expect_same_result(serial, streamed, "streamed sharded");
}

// --- Parallel spine -------------------------------------------------------

// The parallel-spine arbitration path is pinned bit-identical to the
// serial engine at every shard depth, with the spine pooled and not.
// threads is forced to 4 so the pool genuinely dispatches even on
// single-core hosts (results are thread-count-invariant by construction;
// this test exists to prove it).
TEST(Scaleout, ParallelSpineMatchesSerialAtEveryShardLevel) {
  const std::uint32_t n = 128;
  FatTreeTopology topo(n);
  const auto caps = CapacityProfile::universal(topo, 32);
  Rng gen(31);
  const struct {
    const char* name;
    MessageSet m;
  } workloads[] = {
      {"complement", complement_traffic(n)},  // all traffic through spine
      {"stacked", stacked_permutations(n, 4, gen)},
  };

  for (const auto& w : workloads) {
    const PathSet paths = fat_tree_path_set(topo, w.m);

    EngineOptions serial_opts;
    serial_opts.seed = 808;
    CycleEngine serial_engine(fat_tree_channel_graph(topo, caps),
                              serial_opts);
    TraceSink serial_trace;
    const EngineResult serial = serial_engine.run(paths, &serial_trace);
    EXPECT_FALSE(serial.gave_up) << w.name;

    for (const std::uint32_t shard_level : {1u, 2u, 3u}) {
      for (const bool parallel_spine : {false, true}) {
        EngineOptions opts;
        opts.seed = 808;
        opts.parallel = true;
        opts.threads = 4;
        opts.parallel_spine = parallel_spine;
        CycleEngine engine(fat_tree_channel_graph(topo, caps, shard_level),
                           opts);
        TraceSink trace;
        const EngineResult got = engine.run(paths, &trace);
        expect_same_result(serial, got, w.name);
        EXPECT_EQ(event_fingerprint(serial_trace), event_fingerprint(trace))
            << w.name << " shard_level " << shard_level << " parallel_spine "
            << parallel_spine;
      }
    }
  }
}

// Same pinning through the observability plane: the telemetry probe rides
// the serial coordination path, so its order-sensitive fingerprint must
// be identical whether the spine is arbitrated serially or on the pool.
TEST(Scaleout, ParallelSpineKeepsTelemetryFingerprint) {
  const std::uint32_t n = 128;
  FatTreeTopology topo(n);
  const auto caps = CapacityProfile::universal(topo, 32);
  Rng gen(37);
  const auto m = stacked_permutations(n, 4, gen);
  const PathSet paths = fat_tree_path_set(topo, m);

  std::uint64_t fp_serial = 0;
  {
    EngineOptions opts;
    opts.seed = 909;
    TelemetryOptions topts;
    topts.every_k = 2;
    TelemetryProbe probe(topts);
    CycleEngine engine(fat_tree_channel_graph(topo, caps), opts);
    engine.run(paths, &probe);
    fp_serial = probe.fingerprint();
  }

  for (const std::uint32_t shard_level : {1u, 2u, 3u}) {
    for (const bool parallel_spine : {false, true}) {
      EngineOptions opts;
      opts.seed = 909;
      opts.parallel = true;
      opts.threads = 4;
      opts.parallel_spine = parallel_spine;
      TelemetryOptions topts;
      topts.every_k = 2;
      TelemetryProbe probe(topts);
      CycleEngine engine(fat_tree_channel_graph(topo, caps, shard_level),
                         opts);
      engine.run(paths, &probe);
      EXPECT_EQ(fp_serial, probe.fingerprint())
          << "shard_level " << shard_level << " parallel_spine "
          << parallel_spine;
    }
  }
}

// Fault plans, kill domains, retries and backoff all interleave with the
// pooled spine; every counter and the traced stream stay pinned to the
// serial run, with and without the spine parallelized.
TEST(Scaleout, ParallelSpineMatchesSerialUnderFaultsAndRetries) {
  const std::uint32_t n = 64;
  FatTreeTopology topo(n);
  const auto caps = CapacityProfile::universal(topo, 16);
  Rng gen(41);
  const auto m = stacked_permutations(n, 3, gen);
  const PathSet paths = fat_tree_path_set(topo, m);

  FaultPlan plan(505);
  plan.set_domains(fat_tree_subtree_domains(topo, 2));
  plan.add_subtree_kill({/*node=*/5, /*at_cycle=*/1, /*duration=*/3});
  plan.set_storm({0.08, 1, 4});

  RetryPolicy retries[2];
  retries[1].max_attempts = 6;
  retries[1].exponential_backoff = true;
  retries[1].deadline_cycles = 64;

  for (const RetryPolicy& retry : retries) {
    const FaultPlan* fault_cases[] = {nullptr, &plan};
    for (const FaultPlan* fp : fault_cases) {
      EngineOptions serial_opts;
      serial_opts.seed = 66;
      serial_opts.fault_plan = fp;
      serial_opts.retry = retry;
      CycleEngine serial_engine(fat_tree_channel_graph(topo, caps),
                                serial_opts);
      TraceSink serial_trace;
      const EngineResult serial = serial_engine.run(paths, &serial_trace);

      for (const bool parallel_spine : {false, true}) {
        EngineOptions opts = serial_opts;
        opts.parallel = true;
        opts.threads = 4;
        opts.parallel_spine = parallel_spine;
        CycleEngine engine(fat_tree_channel_graph(topo, caps, 2), opts);
        TraceSink trace;
        const EngineResult got = engine.run(paths, &trace);
        expect_same_result(serial, got, "faulted parallel-spine run");
        EXPECT_EQ(serial.fault_down_events, got.fault_down_events);
        EXPECT_EQ(serial.fault_up_events, got.fault_up_events);
        EXPECT_EQ(serial.subtree_kill_events, got.subtree_kill_events);
        EXPECT_EQ(serial.degraded_channel_cycles, got.degraded_channel_cycles);
        EXPECT_EQ(event_fingerprint(serial_trace), event_fingerprint(trace))
            << "faults " << (fp != nullptr) << " backoff "
            << retry.exponential_backoff << " parallel_spine "
            << parallel_spine;
      }
    }
  }
}

// The n = 128 parallel-spine tests above stay below the pool threshold
// (kMinParallelWork, 4096 entries), so their spine stages sweep inline.
// Complement traffic at n = 2^13 with root capacity 6000 sends every
// message up to the root, and no channel below level 1 is over its limit
// (level 2 carries 2048 wires). So in the first cycle all 8192 messages
// reach the level-1 up stage, a spine stage at shard levels 2 and 3,
// where each of its two channels sees 4096 contenders against a limit of
// 3780 under every policy. The pooled spine, and the inline one, must
// match the serial run — counters, delivered-per-cycle and the traced
// event stream — and the pooled runs must show spine time spent on the
// pool.
TEST(Scaleout, PooledSpineMatchesSerialUnderContention) {
  const std::uint32_t n = 1u << 13;
  FatTreeTopology topo(n);
  const auto caps = CapacityProfile::universal(topo, 6000);
  const PathSet paths = fat_tree_path_set(topo, complement_traffic(n));

  for (const RoutingPolicy pol :
       {RoutingPolicy::ObliviousRandom, RoutingPolicy::DeterministicDmod,
        RoutingPolicy::RandomLoadBalanced,
        RoutingPolicy::AdaptiveOccupancy}) {
    SCOPED_TRACE("policy " + std::to_string(static_cast<int>(pol)));
    EngineOptions serial_opts;
    serial_opts.seed = 1515;
    serial_opts.policy = pol;
    CycleEngine serial_engine(fat_tree_channel_graph(topo, caps),
                              serial_opts);
    TraceSink serial_trace;
    const EngineResult serial = serial_engine.run(paths, &serial_trace);
    EXPECT_EQ(serial.delivered, n);
    EXPECT_GT(serial.total_losses, 0u);

    for (const std::uint32_t shard_level : {2u, 3u}) {
      for (const bool parallel_spine : {false, true}) {
        SCOPED_TRACE("shard_level " + std::to_string(shard_level) +
                     " parallel_spine " + std::to_string(parallel_spine));
        EngineOptions opts = serial_opts;
        opts.parallel = true;
        opts.threads = 4;
        opts.parallel_spine = parallel_spine;
        opts.time_phases = true;
        CycleEngine engine(fat_tree_channel_graph(topo, caps, shard_level),
                           opts);
        TraceSink trace;
        const EngineResult got = engine.run(paths, &trace);
        expect_same_result(serial, got, "pooled-spine run");
        EXPECT_EQ(event_fingerprint(serial_trace), event_fingerprint(trace));
        if (parallel_spine) {
          EXPECT_GT(got.phases.spine_parallel_seconds, 0.0);
        } else {
          EXPECT_EQ(got.phases.spine_parallel_seconds, 0.0);
        }
      }
    }
  }
}

// --- Wide hop path ---------------------------------------------------------

// Above 2^16 channel slots the engine runs its u32 (wide) hop path, where
// fused_stage prefetches ahead in its fill sweep and contended-bucket
// winner loop. n = 2^15 leaves (2^17 channel slots) is the smallest fat
// tree on that path. Serial, sharded at every shard depth and sharded with
// the serial spine must agree there under every routing policy, on
// multi-hop paths with heavy top-level contention.
TEST(Scaleout, WidePathExecutorsMatchSerialUnderEveryPolicy) {
  const std::uint32_t n = 1u << 15;
  FatTreeTopology topo(n);
  const auto caps = CapacityProfile::universal(topo, 64);
  Rng gen(43);
  const auto m = random_permutation_traffic(n, gen);
  const PathSet paths = fat_tree_path_set(topo, m);
  ASSERT_GT(fat_tree_channel_graph(topo, caps).num_channels(), 65536u);

  for (const RoutingPolicy pol :
       {RoutingPolicy::ObliviousRandom, RoutingPolicy::DeterministicDmod,
        RoutingPolicy::RandomLoadBalanced,
        RoutingPolicy::AdaptiveOccupancy}) {
    SCOPED_TRACE("policy " + std::to_string(static_cast<int>(pol)));
    EngineOptions serial_opts;
    serial_opts.seed = 1212;
    serial_opts.policy = pol;
    CycleEngine serial_engine(fat_tree_channel_graph(topo, caps),
                              serial_opts);
    const EngineResult serial = serial_engine.run(paths);
    EXPECT_FALSE(serial.gave_up);
    EXPECT_EQ(serial.delivered, n);
    EXPECT_GT(serial.total_losses, 0u);

    const struct {
      std::uint32_t shard_level;
      bool parallel_spine;
    } configs[] = {{1, true}, {2, true}, {3, true}, {2, false}, {3, false}};
    for (const auto& cfg : configs) {
      SCOPED_TRACE("shard_level " + std::to_string(cfg.shard_level) +
                   " parallel_spine " + std::to_string(cfg.parallel_spine));
      EngineOptions opts = serial_opts;
      opts.parallel = true;
      opts.threads = 4;
      opts.parallel_spine = cfg.parallel_spine;
      CycleEngine engine(fat_tree_channel_graph(topo, caps, cfg.shard_level),
                         opts);
      const EngineResult got = engine.run(paths);
      expect_same_result(serial, got, "wide-path sharded run");
    }
  }
}

// The traced event stream on the wide path: a ~2k-message subset keeps the
// trace small while every message still contends on multi-hop paths. Every
// executor runs the same stage sweep (fused_stage), so a defect in it would
// keep serial and sharded in agreement; the serial run is therefore also
// pinned to values recorded from an engine whose serial sweep was a
// separate implementation.
TEST(Scaleout, WidePathShardedTraceMatchesSerial) {
  const std::uint32_t n = 1u << 15;
  FatTreeTopology topo(n);
  const auto caps = CapacityProfile::universal(topo, 64);
  Rng gen(47);
  auto m = random_permutation_traffic(n, gen);
  m.resize(2048);
  const PathSet paths = fat_tree_path_set(topo, m);

  EngineOptions serial_opts;
  serial_opts.seed = 1313;
  CycleEngine serial_engine(fat_tree_channel_graph(topo, caps), serial_opts);
  TraceSink serial_trace;
  const EngineResult serial = serial_engine.run(paths, &serial_trace);
  EXPECT_EQ(serial.delivered, m.size());
  EXPECT_EQ(serial.cycles, 182u);
  EXPECT_EQ(serial.total_attempts, 179328u);
  EXPECT_EQ(serial.total_losses, 177280u);
  EXPECT_EQ(serial.total_hops, 480071u);
  EXPECT_EQ(event_fingerprint(serial_trace), 13055706349232410059ull);

  for (const bool parallel_spine : {false, true}) {
    EngineOptions opts = serial_opts;
    opts.parallel = true;
    opts.threads = 4;
    opts.parallel_spine = parallel_spine;
    CycleEngine engine(fat_tree_channel_graph(topo, caps, 3), opts);
    TraceSink trace;
    const EngineResult got = engine.run(paths, &trace);
    expect_same_result(serial, got, "wide-path traced run");
    EXPECT_EQ(event_fingerprint(serial_trace), event_fingerprint(trace))
        << "parallel_spine " << parallel_spine;
  }
}

// --- Pooled compaction and reseed ----------------------------------------

/// Hashes every cycle's carried array into one order-sensitive value and
/// asks for nothing else, so the engine may still take its pooled
/// compaction path (tracing and latency sampling force the serial one).
class CarriedHash final : public EngineObserver {
 public:
  void on_cycle(const CycleSnapshot& snap) override {
    mix(snap.cycle);
    for (const std::uint32_t c : *snap.carried) mix(c);
  }
  std::uint64_t value() const { return h_; }

 private:
  void mix(std::uint64_t v) { h_ = (h_ ^ v) * 1099511628211ull; }
  std::uint64_t h_ = 14695981039346656037ull;
};

// A contended sharded run compacts and reseeds its live messages
// block-parallel on heavy cycles (about 7.5k live messages per cycle over
// ~75 cycles here) and sends the down band to the pool on its work. The
// kept messages' ranks are pending indices, which the sorted lotteries,
// the RLB wire hash and the adaptive stagger all read, so one misplaced
// rank shows in the counters. Sharded runs at shallow, middle and the
// deepest auto shard level, on 2 and 3 pool workers, with no observer
// and with a carried-only one, must match the serial run under every
// policy (adaptive takes the serial retry-aware compaction). A run costs
// ~50 ms, so instead of the full 4 x 3 x 2 x 2 product each policy runs
// one configuration per shard level: combination (p + l) mod 4 of
// {2, 3} threads x {no observer, carried}. Every (level, threads,
// observer) triple runs once, and every policy meets both thread counts
// and both observer modes.
TEST(Scaleout, PooledCompactionMatchesSerial) {
  const std::uint32_t n = 1u << 14;
  FatTreeTopology topo(n);
  const auto caps = CapacityProfile::universal(topo, 128);
  Rng gen(53);
  const auto m = random_permutation_traffic(n, gen);
  const PathSet paths = fat_tree_path_set(topo, m);

  const RoutingPolicy policies[] = {
      RoutingPolicy::ObliviousRandom, RoutingPolicy::DeterministicDmod,
      RoutingPolicy::RandomLoadBalanced, RoutingPolicy::AdaptiveOccupancy};
  const std::uint32_t levels[] = {1, 3, 6};
  for (std::size_t p = 0; p < 4; ++p) {
    SCOPED_TRACE("policy " + std::to_string(p));
    EngineOptions serial_opts;
    serial_opts.seed = 1414;
    serial_opts.policy = policies[p];
    CycleEngine serial_engine(fat_tree_channel_graph(topo, caps),
                              serial_opts);
    CarriedHash serial_carried;
    const EngineResult serial = serial_engine.run(paths, &serial_carried);
    EXPECT_EQ(serial.delivered, n);
    EXPECT_GT(serial.cycles, 50u);

    for (std::size_t l = 0; l < 3; ++l) {
      const std::size_t combo = (p + l) % 4;
      const std::size_t threads = 2 + (combo & 1);
      const bool observed = combo >= 2;
      SCOPED_TRACE("shard_level " + std::to_string(levels[l]) + " threads " +
                   std::to_string(threads) + " observed " +
                   std::to_string(observed));
      EngineOptions opts = serial_opts;
      opts.parallel = true;
      opts.threads = threads;
      opts.time_phases = true;
      CycleEngine engine(fat_tree_channel_graph(topo, caps, levels[l]), opts);
      CarriedHash carried;
      const EngineResult got =
          engine.run(paths, observed ? &carried : nullptr);
      expect_same_result(serial, got, "sharded run");
      if (observed) {
        EXPECT_EQ(serial_carried.value(), carried.value());
      }
      if (policies[p] != RoutingPolicy::AdaptiveOccupancy) {
        EXPECT_GT(got.phases.compact_seconds, 0.0);  // the pooled path ran
      }
    }
  }
}

// --- Sweep-free tally ------------------------------------------------------

/// Independent reference for a Tally replay: per scheduled cycle, a
/// std::map from channel to the number of the cycle's messages whose
/// fat-tree path (fat_tree_engine_path, one message at a time) crosses it.
struct NaiveTally {
  std::vector<std::map<std::uint32_t, std::uint32_t>> per_cycle;
  std::uint64_t hops = 0;

  NaiveTally(const FatTreeTopology& topo, const Schedule& s) {
    for (const MessageSet& cycle : s.cycles) {
      std::map<std::uint32_t, std::uint32_t> count;
      for (const Message& msg : cycle) {
        for (const std::uint32_t c :
             fat_tree_engine_path(topo, msg.src, msg.dst)) {
          ++count[c];
          ++hops;
        }
      }
      per_cycle.push_back(std::move(count));
    }
  }

  /// Channel-cycles whose count exceeds the channel's capacity.
  std::uint64_t violations(const ChannelGraph& g) const {
    std::uint64_t v = 0;
    for (const auto& cycle : per_cycle) {
      for (const auto& [c, count] : cycle) {
        if (g.capacity[c] != 0 && count > g.capacity[c]) ++v;
      }
    }
    return v;
  }
};

/// Compares every cycle's carried snapshot with the naive count.
class NaiveTallyCheck final : public EngineObserver {
 public:
  explicit NaiveTallyCheck(const NaiveTally& naive) : naive_(naive) {}

  void on_cycle(const CycleSnapshot& snap) override {
    ++cycles_seen_;
    if (snap.carried == nullptr || snap.cycle == 0 ||
        snap.cycle > naive_.per_cycle.size()) {
      ++bad_cycles_;
      return;
    }
    const auto& want = naive_.per_cycle[snap.cycle - 1];
    const std::vector<std::uint32_t>& got = *snap.carried;
    std::size_t nonzero = 0;
    bool ok = true;
    for (std::uint32_t c = 0; c < got.size(); ++c) {
      if (got[c] == 0) continue;
      ++nonzero;
      const auto it = want.find(c);
      ok = ok && it != want.end() && it->second == got[c];
    }
    if (!ok || nonzero != want.size()) ++bad_cycles_;
  }

  std::uint64_t cycles_seen() const { return cycles_seen_; }
  std::uint64_t bad_cycles() const { return bad_cycles_; }

 private:
  const NaiveTally& naive_;
  std::uint64_t cycles_seen_ = 0;
  std::uint64_t bad_cycles_ = 0;
};

/// Replays `s` on the serial engine, a parallel engine on the unsharded
/// graph (which runs serially) and the sharded engine, each checked cycle
/// by cycle against the naive count, capacity violations included;
/// returns the naive capacity-violation count.
std::uint64_t expect_tally_matches_naive(const FatTreeTopology& topo,
                                         const CapacityProfile& caps,
                                         const Schedule& s,
                                         std::uint32_t shard_level) {
  std::vector<PathSet> batches;
  for (const MessageSet& cycle : s.cycles) {
    batches.push_back(fat_tree_path_set(topo, cycle));
  }
  const struct {
    const char* name;
    bool parallel;
    std::uint32_t shard_level;
  } engines[] = {{"serial", false, 0},
                 {"parallel", true, 0},
                 {"sharded", true, shard_level}};
  std::uint64_t routed = 0;
  for (const MessageSet& cycle : s.cycles) {
    for (const Message& msg : cycle) routed += msg.src != msg.dst;
  }
  const NaiveTally naive(topo, s);
  const std::uint64_t violations =
      naive.violations(fat_tree_channel_graph(topo, caps));
  for (const auto& e : engines) {
    SCOPED_TRACE(e.name);
    EngineOptions opts;
    opts.contention = ContentionPolicy::Tally;
    opts.parallel = e.parallel;
    opts.threads = 4;
    CycleEngine engine(fat_tree_channel_graph(topo, caps, e.shard_level),
                       opts);
    NaiveTallyCheck check(naive);
    BatchVectorSource source(batches);
    const EngineResult r = engine.run_batched_stream(source, &check);
    EXPECT_EQ(r.cycles, s.num_cycles());
    EXPECT_EQ(check.cycles_seen(), s.num_cycles());
    EXPECT_EQ(check.bad_cycles(), 0u);
    EXPECT_EQ(r.total_hops, naive.hops);
    EXPECT_EQ(r.total_attempts, routed);  // local messages never attempt
    EXPECT_EQ(r.total_losses, 0u);
    EXPECT_EQ(r.delivered, s.total_messages());
    std::vector<std::uint32_t> per_cycle;
    for (const MessageSet& cycle : s.cycles) {
      per_cycle.push_back(static_cast<std::uint32_t>(cycle.size()));
    }
    EXPECT_EQ(r.delivered_per_cycle, per_cycle);
    EXPECT_EQ(r.capacity_violations, violations);
  }
  return violations;
}

// Valid schedules of stacked permutations on the narrow (u16) path: every
// cycle's occupancy matches the naive map and nothing exceeds capacity.
TEST(Scaleout, TallyMatchesNaiveCountNarrow) {
  const std::uint32_t n = 64;
  FatTreeTopology topo(n);
  const auto caps = CapacityProfile::universal(topo, 16);
  Rng gen(71);
  auto m = stacked_permutations(n, 4, gen);
  m.push_back({9, 9});  // a local message rides along
  const Schedule s = schedule_offline(topo, caps, m);
  EXPECT_EQ(expect_tally_matches_naive(topo, caps, s, 2), 0u);
  EXPECT_EQ(replay_schedule(topo, caps, s).capacity_violations, 0u);
}

// A hand-built schedule that overloads its cycles: the tally still
// delivers everything, and capacity_violations equals the naive count of
// over-capacity channel-cycles.
TEST(Scaleout, TallyCountsOverCapacityLikeNaive) {
  const std::uint32_t n = 64;
  FatTreeTopology topo(n);
  const auto caps = CapacityProfile::universal(topo, 4);
  Rng gen(73);
  Schedule s;
  s.cycles.push_back(stacked_permutations(n, 3, gen));  // far over capacity
  s.cycles.push_back(complement_traffic(n));  // all cross the 4-wire root
  s.cycles.push_back({{0, 1}, {2, 3}});       // within capacity
  const std::uint64_t naive = expect_tally_matches_naive(topo, caps, s, 2);
  EXPECT_GT(naive, 0u);
  EXPECT_EQ(replay_schedule(topo, caps, s).capacity_violations, naive);
}

/// An independent count of capacity violations: the per-cycle channel
/// scan the engine's tally pass replaced, run on each cycle's carried
/// snapshot (channels with capacity whose load exceeds it). It asks for
/// channel state on every `every_k`-th cycle (1, 1 + k, ...) and, with
/// `latency`, for latency samples; it keeps what it is given.
class ChannelScanViolations final : public EngineObserver {
 public:
  explicit ChannelScanViolations(std::uint32_t every_k = 1,
                                 bool latency = false)
      : every_k_(every_k), latency_(latency) {}

  bool wants_channel_state(std::uint32_t cycle) const override {
    return (cycle - 1) % every_k_ == 0;
  }
  bool wants_latency_samples() const override { return latency_; }

  void on_cycle(const CycleSnapshot& snap) override {
    if (snap.latencies != nullptr) {
      for (const LatencySample& l : *snap.latencies) {
        ++latency_samples_;
        max_latency_ = std::max(max_latency_, l.latency);
      }
    }
    if (snap.carried == nullptr) return;
    carried_[snap.cycle] = *snap.carried;
    const ChannelGraph& g = *snap.graph;
    for (std::size_t c = 0; c < g.num_channels(); ++c) {
      if (g.capacity[c] != 0 && (*snap.carried)[c] > g.capacity[c]) {
        ++violations_;
      }
    }
  }

  /// Cycle -> the carried snapshot handed over on it.
  const std::map<std::uint32_t, std::vector<std::uint32_t>>& carried() const {
    return carried_;
  }
  std::uint64_t carried_cycles() const { return carried_.size(); }
  std::uint64_t violations() const { return violations_; }
  std::uint64_t latency_samples() const { return latency_samples_; }
  std::uint32_t max_latency() const { return max_latency_; }

 private:
  std::uint32_t every_k_;
  bool latency_;
  std::map<std::uint32_t, std::vector<std::uint32_t>> carried_;
  std::uint64_t violations_ = 0;
  std::uint64_t latency_samples_ = 0;
  std::uint32_t max_latency_ = 0;
};

/// The overloaded schedule of TallyCountsOverCapacityLikeNaive on n = 64
/// with root capacity 4, and a fault plan that takes its replay through
/// the stage sweep.
struct OverloadedReplay {
  FatTreeTopology topo{64};
  CapacityProfile caps = CapacityProfile::universal(topo, 4);
  Schedule s;
  FaultPlan plan{606};

  OverloadedReplay() {
    Rng gen(73);
    s.cycles.push_back(stacked_permutations(64, 3, gen));
    s.cycles.push_back(complement_traffic(64));
    s.cycles.push_back({{0, 1}, {2, 3}});
    plan.set_domains(fat_tree_subtree_domains(topo, 2));
    plan.add_subtree_kill({/*node=*/5, /*at_cycle=*/2, /*duration=*/2});
    plan.set_storm({0.05, 1, 3});
    // A brownout that scales the tally's 2^32 - 1 admission limit down
    // to 6 for two cycles: a channel with more contenders admits 6, which
    // is still over the root's capacity of 4.
    plan.add_brownout({/*from_cycle=*/1, /*until_cycle=*/3,
                       /*capacity_factor=*/6.5 / 4294967295.0});
  }
};

// replay_schedule's capacity_violations, counted in the tally pass, equals
// the channel scan's count on the overloaded schedule above: on the
// sweep-free fault-free pass, and on the stage sweep a fault plan brings
// back (serial, and sharded on four threads). The scanning observer still
// receives every cycle's carried load, and a replay without it counts the
// same.
TEST(Scaleout, TallyViolationsMatchChannelScan) {
  const OverloadedReplay c;
  const FaultPlan* fault_cases[] = {nullptr, &c.plan};
  for (const FaultPlan* fp : fault_cases) {
    SCOPED_TRACE(fp != nullptr ? "faulted" : "fault-free");
    ReplayOptions opts;
    opts.fault_plan = fp;
    ChannelScanViolations scan;
    const ReplayResult watched =
        replay_schedule(c.topo, c.caps, c.s, opts, &scan);
    EXPECT_EQ(watched.delivered, c.s.total_messages());
    EXPECT_EQ(scan.carried_cycles(), watched.cycles);
    EXPECT_GT(scan.violations(), 0u);
    EXPECT_EQ(watched.capacity_violations, scan.violations());
    EXPECT_EQ(replay_schedule(c.topo, c.caps, c.s, opts).capacity_violations,
              scan.violations());
    if (fp == nullptr) continue;
    EXPECT_GT(watched.fault_down_events, 0u);
    EXPECT_GT(watched.cycles, c.s.num_cycles());

    std::vector<PathSet> batches;
    for (const MessageSet& cycle : c.s.cycles) {
      batches.push_back(fat_tree_path_set(c.topo, cycle));
    }
    // Tally ignores the routing policy, AdaptiveOccupancy included: a
    // faulted tally sweep still marks over-limit channels for its
    // feedback, whose buffers must exist in tally mode too.
    for (const RoutingPolicy policy :
         {RoutingPolicy::ObliviousRandom, RoutingPolicy::AdaptiveOccupancy}) {
      EngineOptions eopts;
      eopts.contention = ContentionPolicy::Tally;
      eopts.policy = policy;
      eopts.fault_plan = fp;
      eopts.seed = fp->seed();
      eopts.parallel = true;
      eopts.threads = 4;
      CycleEngine sharded(fat_tree_channel_graph(c.topo, c.caps, 2), eopts);
      BatchVectorSource source(batches);
      EXPECT_EQ(sharded.run_batched_stream(source).capacity_violations,
                scan.violations());
    }
  }
}

// replay_schedule hands its observer to the engine as is, so a replay
// observer gets what it asks for, like an online run's: channel state on
// the cycles it samples, identical to an every-cycle observer's on those
// cycles, and one latency sample per delivered message when it wants
// them (local deliveries included); the violation count does not depend
// on either. A fault-free replay delivers everything in its injection
// cycle (latency 1); a faulted one makes some messages wait.
TEST(Scaleout, ReplayObserverGetsWhatItAsks) {
  const OverloadedReplay c;
  const FaultPlan* fault_cases[] = {nullptr, &c.plan};
  for (const FaultPlan* fp : fault_cases) {
    SCOPED_TRACE(fp != nullptr ? "faulted" : "fault-free");
    ReplayOptions opts;
    opts.fault_plan = fp;
    ChannelScanViolations every;
    const ReplayResult full = replay_schedule(c.topo, c.caps, c.s, opts, &every);
    EXPECT_EQ(every.latency_samples(), 0u);
    ChannelScanViolations sampled(/*every_k=*/2, /*latency=*/true);
    const ReplayResult r = replay_schedule(c.topo, c.caps, c.s, opts, &sampled);
    EXPECT_EQ(r.cycles, full.cycles);
    EXPECT_EQ(r.delivered, full.delivered);
    EXPECT_EQ(r.capacity_violations, full.capacity_violations);
    EXPECT_EQ(sampled.carried_cycles(), (r.cycles + 1) / 2);
    for (const auto& [cycle, carried] : sampled.carried()) {
      EXPECT_EQ(cycle % 2, 1u) << cycle;
      ASSERT_EQ(every.carried().count(cycle), 1u) << cycle;
      EXPECT_EQ(carried, every.carried().at(cycle)) << cycle;
    }
    EXPECT_EQ(sampled.latency_samples(), r.delivered);
    if (fp == nullptr) {
      EXPECT_EQ(sampled.max_latency(), 1u);
    } else {
      EXPECT_GT(sampled.max_latency(), 1u);
    }
  }
}

// The wide (u32) path: n = 2^15 leaves, 2^17 channel slots, a greedy
// schedule of one random permutation (w = 1024 keeps it to ~20 cycles).
TEST(Scaleout, TallyMatchesNaiveCountWide) {
  const std::uint32_t n = 1u << 15;
  FatTreeTopology topo(n);
  const auto caps = CapacityProfile::universal(topo, 1024);
  ASSERT_GT(fat_tree_channel_graph(topo, caps).num_channels(), 65536u);
  Rng gen(79);
  const auto m = random_permutation_traffic(n, gen);
  const Schedule s = schedule_greedy(topo, caps, m);
  EXPECT_EQ(expect_tally_matches_naive(topo, caps, s, 3), 0u);
}

// The traced event stream of a tally replay — Inject, Attempt and Deliver
// per message, local deliveries included — pinned to the fingerprint and
// counters recorded from an engine that ran tally cycles through the
// stage sweep, and equal on the sharded executor.
TEST(Scaleout, TallyReplayTraceIsPinned) {
  const std::uint32_t n = 64;
  FatTreeTopology topo(n);
  const auto caps = CapacityProfile::universal(topo, 16);
  Rng gen(41);
  auto m = stacked_permutations(n, 3, gen);
  m.push_back({5, 5});
  const Schedule s = schedule_offline(topo, caps, m);
  std::vector<PathSet> batches;
  for (const MessageSet& cycle : s.cycles) {
    batches.push_back(fat_tree_path_set(topo, cycle));
  }

  EngineOptions serial_opts;
  serial_opts.contention = ContentionPolicy::Tally;
  CycleEngine serial_engine(fat_tree_channel_graph(topo, caps), serial_opts);
  TraceSink serial_trace;
  BatchVectorSource serial_source(batches);
  const EngineResult serial =
      serial_engine.run_batched_stream(serial_source, &serial_trace);
  EXPECT_EQ(serial.cycles, 18u);
  EXPECT_EQ(serial.delivered, m.size());
  EXPECT_EQ(serial.total_hops, 1904u);
  EXPECT_EQ(event_fingerprint(serial_trace), 10564680827242615073ull);

  EngineOptions opts = serial_opts;
  opts.parallel = true;
  opts.threads = 4;
  CycleEngine engine(fat_tree_channel_graph(topo, caps, 2), opts);
  TraceSink trace;
  BatchVectorSource source(batches);
  const EngineResult sharded = engine.run_batched_stream(source, &trace);
  expect_same_result(serial, sharded, "sharded tally replay");
  EXPECT_EQ(event_fingerprint(serial_trace), event_fingerprint(trace));
}

}  // namespace
