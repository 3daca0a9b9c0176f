#include "core/offline_scheduler.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/load.hpp"
#include "core/replay.hpp"
#include "core/reuse_scheduler.hpp"
#include "core/traffic.hpp"
#include "util/bits.hpp"
#include "util/prng.hpp"

namespace ft {
namespace {

TEST(OfflineScheduler, EmptyMessageSet) {
  FatTreeTopology t(8);
  const auto caps = CapacityProfile::universal(t, 4);
  const auto s = schedule_offline(t, caps, {});
  EXPECT_EQ(s.num_cycles(), 0u);
  EXPECT_TRUE(verify_schedule(t, caps, {}, s));
}

TEST(OfflineScheduler, SingleMessage) {
  FatTreeTopology t(8);
  const auto caps = CapacityProfile::constant(t, 1);
  const MessageSet m{{0, 7}};
  const auto s = schedule_offline(t, caps, m);
  EXPECT_EQ(s.num_cycles(), 1u);
  EXPECT_TRUE(verify_schedule(t, caps, m, s));
}

TEST(OfflineScheduler, SelfMessagesOnly) {
  FatTreeTopology t(8);
  const auto caps = CapacityProfile::constant(t, 1);
  const MessageSet m{{2, 2}, {5, 5}, {5, 5}};
  const auto s = schedule_offline(t, caps, m);
  EXPECT_EQ(s.num_cycles(), 1u);
  EXPECT_TRUE(verify_schedule(t, caps, m, s));
}

TEST(OfflineScheduler, OneCycleSetTakesFewCycles) {
  // A one-cycle message set on a full fat-tree needs at most one cycle per
  // level touched; the complement permutation (λ = 1) must finish in at
  // most lg n cycles and in fact in one (all LCAs at the root).
  const std::uint32_t n = 64;
  FatTreeTopology t(n);
  const auto caps = CapacityProfile::doubling(t);
  const auto m = complement_traffic(n);
  ASSERT_TRUE(is_one_cycle(t, caps, m));
  const auto s = schedule_offline(t, caps, m);
  EXPECT_EQ(s.num_cycles(), 1u);
  EXPECT_TRUE(verify_schedule(t, caps, m, s));
}

TEST(OfflineScheduler, DuplicatesPreserved) {
  FatTreeTopology t(16);
  const auto caps = CapacityProfile::constant(t, 1);
  MessageSet m;
  for (int i = 0; i < 5; ++i) m.push_back({0, 15});
  const auto s = schedule_offline(t, caps, m);
  EXPECT_TRUE(verify_schedule(t, caps, m, s));
  EXPECT_EQ(s.num_cycles(), 5u);  // capacity 1 admits one at a time
}

TEST(OfflineScheduler, TheoremOneBound) {
  // d <= c · λ(M) · lg n with a small constant (the proof gives 2λ per
  // level; our power-of-two rounding makes it at most 4λ per level).
  const std::uint32_t n = 256;
  FatTreeTopology t(n);
  const auto caps = CapacityProfile::universal(t, 64);
  Rng rng(1);
  for (const auto& wl : standard_workloads(n, rng)) {
    const double lambda = load_factor(t, caps, wl.messages);
    const auto s = schedule_offline(t, caps, wl.messages);
    EXPECT_TRUE(verify_schedule(t, caps, wl.messages, s)) << wl.name;
    const double bound =
        4.0 * std::max(1.0, lambda) * t.height() + 1.0;
    EXPECT_LE(static_cast<double>(s.num_cycles()), bound) << wl.name;
    // And never below the load-factor lower bound.
    EXPECT_GE(static_cast<double>(s.num_cycles()), std::ceil(lambda) - 1e-9)
        << wl.name;
  }
}

TEST(OfflineScheduler, LowerBoundTight) {
  // d >= ceil(λ): schedule length can never beat the load factor.
  const std::uint32_t n = 128;
  FatTreeTopology t(n);
  const auto caps = CapacityProfile::universal(t, 16);
  Rng rng(3);
  const auto m = stacked_permutations(n, 4, rng);
  const double lambda = load_factor(t, caps, m);
  const auto s = schedule_offline(t, caps, m);
  EXPECT_TRUE(verify_schedule(t, caps, m, s));
  EXPECT_GE(static_cast<double>(s.num_cycles()), lambda - 1e-9);
}

struct SchedCase {
  std::uint32_t n;
  std::uint64_t w;
  std::uint32_t stack;
  std::uint64_t seed;
};

class SchedulerSweep : public ::testing::TestWithParam<SchedCase> {};

TEST_P(SchedulerSweep, ValidAndBounded) {
  const auto p = GetParam();
  FatTreeTopology t(p.n);
  const auto caps = CapacityProfile::universal(t, p.w);
  Rng rng(p.seed);
  const auto m = stacked_permutations(p.n, p.stack, rng);
  const double lambda = load_factor(t, caps, m);
  const auto s = schedule_offline(t, caps, m);
  EXPECT_TRUE(verify_schedule(t, caps, m, s));
  EXPECT_LE(static_cast<double>(s.num_cycles()),
            4.0 * std::max(1.0, lambda) * t.height() + 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SchedulerSweep,
    ::testing::Values(SchedCase{16, 4, 1, 11}, SchedCase{16, 16, 3, 13},
                      SchedCase{64, 8, 2, 17}, SchedCase{256, 32, 1, 19},
                      SchedCase{256, 256, 4, 23}, SchedCase{1024, 64, 2, 29},
                      SchedCase{1024, 1024, 1, 31}));

TEST(OfflineScheduler, SkinnyTreeHotspot) {
  // Capacity-1 tree with all-to-one traffic: needs exactly n-1 cycles.
  const std::uint32_t n = 32;
  FatTreeTopology t(n);
  const auto caps = CapacityProfile::constant(t, 1);
  MessageSet m;
  for (Leaf p = 1; p < n; ++p) m.push_back({p, 0});
  const auto s = schedule_offline(t, caps, m);
  EXPECT_TRUE(verify_schedule(t, caps, m, s));
  EXPECT_EQ(s.num_cycles(), static_cast<std::size_t>(n - 1));
}

TEST(GreedyScheduler, ValidSchedules) {
  const std::uint32_t n = 128;
  FatTreeTopology t(n);
  const auto caps = CapacityProfile::universal(t, 32);
  Rng rng(41);
  for (const auto& wl : standard_workloads(n, rng)) {
    const auto s = schedule_greedy(t, caps, wl.messages);
    EXPECT_TRUE(verify_schedule(t, caps, wl.messages, s)) << wl.name;
  }
}

TEST(PackedScheduler, ValidAndNoWorseThanLevelByLevel) {
  const std::uint32_t n = 256;
  FatTreeTopology t(n);
  const auto caps = CapacityProfile::universal(t, 64);
  Rng rng(43);
  for (const auto& wl : standard_workloads(n, rng)) {
    const auto level_by_level = schedule_offline(t, caps, wl.messages);
    const auto packed = schedule_offline_packed(t, caps, wl.messages);
    EXPECT_TRUE(verify_schedule(t, caps, wl.messages, packed)) << wl.name;
    // First-fit packing is the point of the ablation; allow a little slack
    // but it should never be much worse than level-by-level.
    EXPECT_LE(packed.num_cycles(), level_by_level.num_cycles() + 2)
        << wl.name;
  }
}

// Every scheduler's output — which messages land in which cycle, in which
// order — pinned as an FNV-1a hash over (cycle, src, dst). The values were
// recorded from the map-based schedulers with a per-hop capacity lookup;
// the flat layout and the shared capacity table must reproduce them
// exactly. One row per topology size (random permutations, transpose,
// bit reversal and incast; three seeds each, the seed also choosing the
// root capacity n/4, n/16 or n/64), plus one profile with per-channel
// capacity overrides.
std::uint64_t schedule_hash(std::uint64_t h, const Schedule& s) {
  auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  mix(s.num_cycles());
  for (std::size_t c = 0; c < s.cycles.size(); ++c) {
    for (const Message& msg : s.cycles[c]) {
      mix(c);
      mix(msg.src);
      mix(msg.dst);
    }
  }
  return h;
}

struct SchedulerHashes {
  std::uint64_t offline = 14695981039346656037ull;
  std::uint64_t packed = 14695981039346656037ull;
  std::uint64_t greedy = 14695981039346656037ull;
  std::uint64_t reuse = 14695981039346656037ull;
};

void hash_all(const FatTreeTopology& t, const CapacityProfile& caps,
              const MessageSet& m, SchedulerHashes& h) {
  h.offline = schedule_hash(h.offline, schedule_offline(t, caps, m));
  h.packed = schedule_hash(h.packed, schedule_offline_packed(t, caps, m));
  h.greedy = schedule_hash(h.greedy, schedule_greedy(t, caps, m));
  h.reuse = schedule_hash(h.reuse, schedule_reuse(t, caps, m).schedule);
}

SchedulerHashes fingerprint_size(std::uint32_t n) {
  FatTreeTopology t(n);
  SchedulerHashes h;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const auto caps = CapacityProfile::universal(
        t, std::max<std::uint64_t>(1, n >> (2 * seed)));
    Rng rng(1000 + seed);
    hash_all(t, caps, random_permutation_traffic(n, rng), h);
    hash_all(t, caps, transpose_traffic(n), h);
    hash_all(t, caps, bit_reversal_traffic(n), h);
    hash_all(t, caps, incast_traffic(n, 64, static_cast<Leaf>(seed * 7 % n),
                                     rng),
             h);
  }
  return h;
}

void expect_hashes(const SchedulerHashes& got, const SchedulerHashes& want,
                   const char* what) {
  EXPECT_EQ(got.offline, want.offline) << what << " offline";
  EXPECT_EQ(got.packed, want.packed) << what << " packed";
  EXPECT_EQ(got.greedy, want.greedy) << what << " greedy";
  EXPECT_EQ(got.reuse, want.reuse) << what << " reuse";
}

TEST(OfflineScheduler, Fingerprints) {
  expect_hashes(fingerprint_size(64),
                {7507474284667582ull, 3081252745092975312ull,
                 6385480184268260076ull, 11928245630599207497ull},
                "n=64");
  expect_hashes(fingerprint_size(1024),
                {2661848265579005687ull, 6747045247498481363ull,
                 1836363206011608343ull, 7326191551348676188ull},
                "n=1024");
  expect_hashes(fingerprint_size(16384),
                {1945040491275886121ull, 16124710995151819977ull,
                 16762765623381979042ull, 8298990905670177272ull},
                "n=16384");

  // Capacity overrides: a one-wire channel under the root, a widened one
  // at mid depth and a narrowed leaf channel.
  FatTreeTopology t(1024);
  const auto caps = CapacityProfile::universal(t, 256)
                        .with_channel_capacity(t, 2, 1)
                        .with_channel_capacity(t, 37, 40)
                        .with_channel_capacity(t, 1024 + 5, 1);
  SchedulerHashes h;
  Rng rng(77);
  hash_all(t, caps, random_permutation_traffic(1024, rng), h);
  hash_all(t, caps, stacked_permutations(1024, 2, rng), h);
  expect_hashes(h,
                {8422588761063231118ull, 18308548910679838451ull,
                 8856870897999638170ull, 14220053850489126831ull},
                "overrides");
}

TEST(VerifySchedule, RejectsDroppedMessage) {
  FatTreeTopology t(8);
  const auto caps = CapacityProfile::doubling(t);
  const MessageSet m{{0, 7}, {1, 6}};
  Schedule s;
  s.cycles.push_back({{0, 7}});  // message {1,6} missing
  EXPECT_FALSE(verify_schedule(t, caps, m, s));
}

TEST(VerifySchedule, RejectsOverloadedCycle) {
  FatTreeTopology t(8);
  const auto caps = CapacityProfile::constant(t, 1);
  const MessageSet m{{0, 7}, {1, 6}};  // both need the root, capacity 1
  Schedule s;
  s.cycles.push_back(m);
  EXPECT_FALSE(verify_schedule(t, caps, m, s));
}

TEST(VerifySchedule, RejectsInventedMessage) {
  FatTreeTopology t(8);
  const auto caps = CapacityProfile::doubling(t);
  const MessageSet m{{0, 7}};
  Schedule s;
  s.cycles.push_back({{0, 7}});
  s.cycles.push_back({{2, 3}});
  EXPECT_FALSE(verify_schedule(t, caps, m, s));
}

// verify_replayed_schedule: the check half of verify_schedule, on a replay
// the caller already ran.
TEST(VerifyReplayedSchedule, AcceptsValidSchedule) {
  FatTreeTopology t(64);
  const auto caps = CapacityProfile::universal(t, 16);
  Rng gen(91);
  const auto m = stacked_permutations(64, 3, gen);
  const auto s = schedule_offline(t, caps, m);
  EXPECT_TRUE(verify_replayed_schedule(m, s, replay_schedule(t, caps, s)));
}

TEST(VerifyReplayedSchedule, RejectsDroppedMessage) {
  FatTreeTopology t(8);
  const auto caps = CapacityProfile::doubling(t);
  const MessageSet m{{0, 7}, {1, 6}};
  Schedule s;
  s.cycles.push_back({{0, 7}});  // message {1,6} missing
  const auto replay = replay_schedule(t, caps, s);
  EXPECT_EQ(replay.capacity_violations, 0u);
  EXPECT_FALSE(verify_replayed_schedule(m, s, replay));
}

TEST(VerifyReplayedSchedule, RejectsDuplicatedMessage) {
  FatTreeTopology t(8);
  const auto caps = CapacityProfile::doubling(t);
  const MessageSet m{{0, 7}, {1, 6}};
  Schedule s;
  s.cycles.push_back({{0, 7}, {1, 6}});
  s.cycles.push_back({{1, 6}});  // scheduled twice
  const auto replay = replay_schedule(t, caps, s);
  EXPECT_EQ(replay.capacity_violations, 0u);
  EXPECT_FALSE(verify_replayed_schedule(m, s, replay));
}

// The same sources and the same destinations, but the first two messages
// trade destinations: on a small tree, and with leaves spread over a
// large one (few messages per leaf).
TEST(VerifyReplayedSchedule, RejectsSwappedDestinations) {
  for (const std::uint32_t stride : {1u, 128u}) {
    FatTreeTopology t(8 * stride);
    const auto caps = CapacityProfile::doubling(t);
    auto msg = [stride](Leaf src, Leaf dst) {
      return Message{src * stride, dst * stride};
    };
    const MessageSet m{msg(0, 7), msg(1, 6), msg(2, 5)};
    Schedule ok;
    ok.cycles.push_back({msg(1, 6), msg(0, 7)});
    ok.cycles.push_back({msg(2, 5)});
    EXPECT_TRUE(verify_replayed_schedule(m, ok, replay_schedule(t, caps, ok)))
        << stride;
    Schedule s;
    s.cycles.push_back({msg(0, 6), msg(1, 7)});
    s.cycles.push_back({msg(2, 5)});
    const auto replay = replay_schedule(t, caps, s);
    EXPECT_EQ(replay.capacity_violations, 0u) << stride;
    EXPECT_FALSE(verify_replayed_schedule(m, s, replay)) << stride;
  }
}

// m names a leaf that no message of the schedule reaches.
TEST(VerifyReplayedSchedule, RejectsLeafBeyondSchedule) {
  FatTreeTopology t(8);
  const auto caps = CapacityProfile::doubling(t);
  const MessageSet m{{0, 3}, {1, 7}};
  Schedule s;
  s.cycles.push_back({{0, 3}, {1, 2}});
  const auto replay = replay_schedule(t, caps, s);
  EXPECT_EQ(replay.capacity_violations, 0u);
  EXPECT_FALSE(verify_replayed_schedule(m, s, replay));
}

TEST(VerifyReplayedSchedule, RejectsOverCapacityReplay) {
  FatTreeTopology t(8);
  const auto caps = CapacityProfile::constant(t, 1);
  const MessageSet m{{0, 7}, {1, 6}};  // both need the root, capacity 1
  Schedule s;
  s.cycles.push_back(m);  // the multiset partition itself is fine
  const auto replay = replay_schedule(t, caps, s);
  EXPECT_GT(replay.capacity_violations, 0u);
  EXPECT_FALSE(verify_replayed_schedule(m, s, replay));
}

}  // namespace
}  // namespace ft
