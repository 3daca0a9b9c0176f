// Independent reference for the lossy delivery cycle (Section II: every
// pending message attempts its whole path, a contended channel passes a
// random cap-subset, losers retry next cycle). The simulator below is
// deliberately naive — it walks the stages in order each cycle, collects
// each channel's contenders in a std::map, runs the lottery on the sorted
// contender list and compacts the losers stably — and shares no code with
// the CycleEngine beyond the SplitMix64/Rng generators. It re-derives the
// per-(seed, cycle, channel) arbitration stream itself, so a change to the
// engine's executor, worklists or arbitration that alters any outcome
// fails here, whatever executor the engine runs. It also models the
// RetryPolicy (give up after max_attempts contests or past a deadline,
// exponential backoff), as the policy's documentation states it.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/capacity.hpp"
#include "core/topology.hpp"
#include "core/traffic.hpp"
#include "cycle_invariants.hpp"
#include "engine/engine.hpp"
#include "engine/fat_tree_model.hpp"
#include "util/prng.hpp"

namespace ft {
namespace {

using Paths = std::vector<std::vector<std::uint32_t>>;

struct Outcome {
  std::uint64_t cycles = 0;
  std::uint64_t attempts = 0;
  std::uint64_t losses = 0;
  std::uint64_t hops = 0;
  std::uint64_t given_up = 0;
  std::uint64_t backoffs = 0;
  std::vector<std::uint32_t> delivered_per_cycle;
  std::vector<std::vector<std::uint32_t>> carried;  ///< [cycle][channel]
};

Outcome reference_run(const ChannelGraph& g, const Paths& paths,
                      RoutingPolicy pol, double alpha, std::uint64_t seed,
                      const RetryPolicy& retry = {}) {
  const std::size_t nch = g.num_channels();
  std::vector<std::uint64_t> limit(nch, 0);
  for (std::size_t c = 0; c < nch; ++c) {
    const auto scaled = static_cast<std::uint64_t>(
        static_cast<double>(g.capacity[c]) * alpha);
    limit[c] = std::max<std::uint64_t>(1, scaled);
  }
  Outcome out;
  // Pending messages in injection order, with the cycles each has
  // contended in and the cycle it next contends in. A message parked in
  // backoff keeps its place (and so its pending index) but neither
  // contends nor counts an attempt.
  std::vector<std::size_t> pending;  // indices into `paths`
  std::vector<std::uint32_t> contests;
  std::vector<std::uint32_t> wake;
  std::uint32_t local = 0;
  for (std::size_t p = 0; p < paths.size(); ++p) {
    if (paths[p].empty()) {
      ++local;  // delivered at injection, cycle 1
    } else {
      pending.push_back(p);
      contests.push_back(0);
      wake.push_back(1);
    }
  }
  do {
    const auto cycle = static_cast<std::uint32_t>(out.cycles + 1);
    std::vector<bool> contends(pending.size(), false);
    for (std::size_t k = 0; k < pending.size(); ++k) {
      contends[k] = wake[k] == cycle;
      if (contends[k]) {
        ++contests[k];
        ++out.attempts;
      }
    }
    std::vector<std::uint32_t> cursor(pending.size(), 0);
    std::vector<bool> lost(pending.size(), false);
    std::vector<std::uint32_t> carried(nch, 0);
    for (std::uint32_t s = 0; s < g.num_stages; ++s) {
      std::map<std::uint32_t, std::vector<std::uint32_t>> buckets;
      for (std::uint32_t k = 0; k < pending.size(); ++k) {
        const auto& path = paths[pending[k]];
        if (!contends[k] || lost[k] || cursor[k] == path.size()) continue;
        const std::uint32_t c = path[cursor[k]];
        if (g.stage[c] == s) buckets[c].push_back(k);
      }
      for (auto& [c, b] : buckets) {
        std::sort(b.begin(), b.end());
        const std::uint64_t lim = limit[c];
        std::vector<std::uint32_t> winners;
        if (b.size() <= lim) {
          winners = b;
        } else {
          const std::uint64_t arb =
              SplitMix64(seed ^ (static_cast<std::uint64_t>(cycle) << 32) ^ c)
                  .next();
          if (pol == RoutingPolicy::ObliviousRandom) {
            // Truncated Fisher-Yates: the first count - limit backward
            // draws fix the loser block; the winners are the rest.
            Rng rng(arb);
            for (std::size_t i = b.size(); i > lim; --i) {
              std::swap(b[i - 1], b[rng.below(i)]);
            }
            winners.assign(b.begin(), b.begin() + static_cast<long>(lim));
          } else {
            // One wire bid per contender; the lowest pending index wins.
            std::set<std::uint64_t> taken;
            for (const std::uint32_t k : b) {
              const std::uint64_t wire =
                  pol == RoutingPolicy::DeterministicDmod
                      ? paths[pending[k]].back() % lim
                      : SplitMix64(arb ^ (static_cast<std::uint64_t>(k) *
                                          0x9e3779b97f4a7c15ull))
                                .next() %
                            lim;
              if (taken.insert(wire).second) winners.push_back(k);
            }
          }
        }
        for (const std::uint32_t k : b) lost[k] = true;
        for (const std::uint32_t k : winners) {
          lost[k] = false;
          ++cursor[k];
        }
        carried[c] = static_cast<std::uint32_t>(winners.size());
        out.hops += winners.size();
        out.losses += b.size() - winners.size();
      }
    }
    std::vector<std::size_t> kept;
    std::vector<std::uint32_t> kept_contests;
    std::vector<std::uint32_t> kept_wake;
    std::uint32_t delivered = out.cycles == 0 ? local : 0;
    for (std::size_t k = 0; k < pending.size(); ++k) {
      std::uint32_t next = wake[k];  // parked: unchanged
      if (contends[k] && !lost[k]) {
        ++delivered;
        continue;
      }
      if (contends[k]) {
        // Lost its contests[k]-th contest.
        if (retry.max_attempts != 0 && contests[k] >= retry.max_attempts) {
          ++out.given_up;
          continue;
        }
        std::uint64_t skip = 0;
        if (retry.exponential_backoff) {
          skip = std::min<std::uint64_t>(
              retry.max_backoff, (1ull << std::min(contests[k] - 1, 62u)) - 1);
        }
        if (retry.deadline_cycles != 0 &&
            cycle + 1 + skip > retry.deadline_cycles) {
          ++out.given_up;
          continue;
        }
        if (skip > 0) ++out.backoffs;
        next = static_cast<std::uint32_t>(cycle + 1 + skip);
      }
      kept.push_back(pending[k]);
      kept_contests.push_back(contests[k]);
      kept_wake.push_back(next);
    }
    pending.swap(kept);
    contests.swap(kept_contests);
    wake.swap(kept_wake);
    out.delivered_per_cycle.push_back(delivered);
    out.carried.push_back(std::move(carried));
    ++out.cycles;
  } while (!pending.empty());
  return out;
}

class CarriedLog final : public CycleInvariants {
 public:
  using CycleInvariants::CycleInvariants;
  std::vector<std::vector<std::uint32_t>> carried;
  void on_cycle(const CycleSnapshot& snap) override {
    CycleInvariants::on_cycle(snap);
    carried.push_back(*snap.carried);
  }
};

/// Runs the engine with the per-cycle invariant observer attached.
Outcome engine_run(const ChannelGraph& g, const Paths& paths,
                   RoutingPolicy pol, double alpha, std::uint64_t seed,
                   bool parallel, const RetryPolicy& retry = {}) {
  EngineOptions opts;
  opts.alpha = alpha;
  opts.policy = pol;
  opts.seed = seed;
  opts.parallel = parallel;
  opts.threads = 4;
  opts.max_cycles = 100000;
  opts.retry = retry;
  CycleEngine engine(g, opts);
  const auto local = static_cast<std::uint64_t>(
      std::count_if(paths.begin(), paths.end(),
                    [](const auto& p) { return p.empty(); }));
  CarriedLog log(alpha, local);
  const EngineResult r = engine.run(PathSet::from_paths(paths), &log);
  EXPECT_FALSE(r.gave_up);
  log.expect_complete(r.cycles, r.gave_up);
  return {r.cycles,
          r.total_attempts,
          r.total_losses,
          r.total_hops,
          r.messages_given_up,
          r.total_backoffs,
          r.delivered_per_cycle,
          std::move(log.carried)};
}

void expect_same(const Outcome& ref, const Outcome& eng,
                 const std::string& what) {
  EXPECT_EQ(ref.cycles, eng.cycles) << what;
  EXPECT_EQ(ref.attempts, eng.attempts) << what;
  EXPECT_EQ(ref.losses, eng.losses) << what;
  EXPECT_EQ(ref.hops, eng.hops) << what;
  EXPECT_EQ(ref.given_up, eng.given_up) << what;
  EXPECT_EQ(ref.backoffs, eng.backoffs) << what;
  EXPECT_EQ(ref.delivered_per_cycle, eng.delivered_per_cycle) << what;
  EXPECT_TRUE(ref.carried == eng.carried) << what << ": carried differs";
}

constexpr RoutingPolicy kPolicies[] = {RoutingPolicy::ObliviousRandom,
                                       RoutingPolicy::DeterministicDmod,
                                       RoutingPolicy::RandomLoadBalanced};

// Random layered graphs: channel indices scattered across stages, a few
// zero-capacity holes, and paths over random increasing stage subsets
// (empty paths included), so nothing fat-tree shaped is assumed.
struct LayeredCase {
  ChannelGraph g;
  Paths paths;
  std::uint64_t seed = 0;
};

LayeredCase random_layered_case(Rng& gen) {
  LayeredCase lc;
  ChannelGraph& g = lc.g;
  g.num_stages = 1 + static_cast<std::uint32_t>(gen.below(6));
  std::vector<std::vector<std::uint32_t>> by_stage(g.num_stages);
  const std::size_t nch = 4 + gen.below(20);
  for (std::uint32_t c = 0; c < nch; ++c) {
    const bool hole = gen.below(8) == 0;
    const auto s = static_cast<std::uint32_t>(gen.below(g.num_stages));
    g.capacity.push_back(hole ? 0 : 1 + gen.below(3));
    g.stage.push_back(s);
    g.level.push_back(0);
    g.in_wire_budget.push_back(1);
    if (!hole) by_stage[s].push_back(c);
  }
  lc.paths.resize(20 + gen.below(120));
  for (auto& path : lc.paths) {
    for (std::uint32_t s = 0; s < g.num_stages; ++s) {
      if (by_stage[s].empty() || gen.below(3) == 0) continue;
      path.push_back(by_stage[s][gen.below(by_stage[s].size())]);
    }
  }
  lc.seed = gen.next();
  return lc;
}

TEST(ReferenceEngine, RandomLayeredGraphs) {
  Rng gen(2024);
  for (int trial = 0; trial < 40; ++trial) {
    const LayeredCase lc = random_layered_case(gen);
    for (const RoutingPolicy pol : kPolicies) {
      for (const double alpha : {1.0, 0.75}) {
        const Outcome ref =
            reference_run(lc.g, lc.paths, pol, alpha, lc.seed);
        for (const bool parallel : {false, true}) {
          expect_same(ref,
                      engine_run(lc.g, lc.paths, pol, alpha, lc.seed,
                                 parallel),
                      "trial " + std::to_string(trial) + " policy " +
                          std::to_string(static_cast<int>(pol)) + " alpha " +
                          std::to_string(alpha) +
                          (parallel ? " parallel" : " serial"));
        }
      }
    }
  }
}

/// Retry policies the reference models: a contest budget, capped
/// exponential backoff, a deadline, and all three at once.
std::vector<std::pair<std::string, RetryPolicy>> retry_policies() {
  RetryPolicy attempts;
  attempts.max_attempts = 3;
  RetryPolicy backoff;
  backoff.exponential_backoff = true;
  backoff.max_backoff = 4;
  RetryPolicy deadline;
  deadline.deadline_cycles = 6;
  RetryPolicy all;
  all.max_attempts = 5;
  all.exponential_backoff = true;
  all.max_backoff = 8;
  all.deadline_cycles = 14;
  return {{"max_attempts", attempts},
          {"backoff", backoff},
          {"deadline", deadline},
          {"all", all}};
}

TEST(ReferenceEngine, RetryPolicyRandomLayeredGraphs) {
  Rng gen(4048);
  std::uint64_t given_up = 0;
  std::uint64_t backoffs = 0;
  for (int trial = 0; trial < 25; ++trial) {
    const LayeredCase lc = random_layered_case(gen);
    for (const auto& [name, retry] : retry_policies()) {
      for (const RoutingPolicy pol : kPolicies) {
        const Outcome ref =
            reference_run(lc.g, lc.paths, pol, 0.75, lc.seed, retry);
        given_up += ref.given_up;
        backoffs += ref.backoffs;
        for (const bool parallel : {false, true}) {
          expect_same(ref,
                      engine_run(lc.g, lc.paths, pol, 0.75, lc.seed, parallel,
                                 retry),
                      "trial " + std::to_string(trial) + " retry " + name +
                          " policy " + std::to_string(static_cast<int>(pol)) +
                          (parallel ? " parallel" : " serial"));
        }
      }
    }
  }
  EXPECT_GT(given_up, 0u);
  EXPECT_GT(backoffs, 0u);
}

// Fat-tree graphs at shard levels 0-3, serial and on a 4-thread pool.
// 5120 messages put more than the engine's inline-work threshold on the
// first cycles, so the pooled sweeps and compaction run too.
TEST(ReferenceEngine, FatTreeShardLevels) {
  const std::uint32_t n = 1024;
  FatTreeTopology t(n);
  const auto caps = CapacityProfile::universal(t, n / 4);
  Rng gen(77);
  const PathSet set = fat_tree_path_set(t, stacked_permutations(n, 5, gen));
  Paths paths(set.size());
  for (std::size_t p = 0; p < set.size(); ++p) {
    const auto first = set.channels().begin() + set.offset(p);
    paths[p].assign(first, first + set.length(p));
  }
  for (const RoutingPolicy pol : kPolicies) {
    for (const double alpha : {1.0, 0.75}) {
      const std::uint64_t seed = 0x5eed + static_cast<std::uint64_t>(pol);
      const Outcome ref = reference_run(fat_tree_channel_graph(t, caps), paths,
                                        pol, alpha, seed);
      EXPECT_GT(ref.losses, 0u);
      for (std::uint32_t level = 0; level <= 3; ++level) {
        const ChannelGraph g = fat_tree_channel_graph(t, caps, level);
        for (const bool parallel : {false, true}) {
          expect_same(ref, engine_run(g, paths, pol, alpha, seed, parallel),
                      "level " + std::to_string(level) + " policy " +
                          std::to_string(static_cast<int>(pol)) + " alpha " +
                          std::to_string(alpha) +
                          (parallel ? " parallel" : " serial"));
        }
      }
    }
  }
}

// RetryPolicy on fat-tree graphs at shard levels 0-3, serial and on a
// 4-thread pool: sweeps go to the pool on the heavy first cycles, while
// retry-aware compaction always runs as one block.
TEST(ReferenceEngine, RetryPolicyFatTreeShardLevels) {
  const std::uint32_t n = 1024;
  FatTreeTopology t(n);
  const auto caps = CapacityProfile::universal(t, n / 4);
  Rng gen(78);
  const PathSet set = fat_tree_path_set(t, stacked_permutations(n, 5, gen));
  Paths paths(set.size());
  for (std::size_t p = 0; p < set.size(); ++p) {
    const auto first = set.channels().begin() + set.offset(p);
    paths[p].assign(first, first + set.length(p));
  }
  for (const auto& [name, retry] : retry_policies()) {
    for (const RoutingPolicy pol : kPolicies) {
      const std::uint64_t seed = 0xbac0ff + static_cast<std::uint64_t>(pol);
      const Outcome ref = reference_run(fat_tree_channel_graph(t, caps), paths,
                                        pol, 1.0, seed, retry);
      EXPECT_GT(ref.given_up + ref.backoffs, 0u) << name;
      for (std::uint32_t level = 0; level <= 3; ++level) {
        const ChannelGraph g = fat_tree_channel_graph(t, caps, level);
        for (const bool parallel : {false, true}) {
          expect_same(ref,
                      engine_run(g, paths, pol, 1.0, seed, parallel, retry),
                      "retry " + name + " level " + std::to_string(level) +
                          " policy " + std::to_string(static_cast<int>(pol)) +
                          (parallel ? " parallel" : " serial"));
        }
      }
    }
  }
}

}  // namespace
}  // namespace ft
