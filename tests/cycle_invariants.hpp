// Per-cycle bookkeeping invariants of a lossy CycleEngine run, checked
// from its snapshots. For runs that inject one batch at cycle 1 (run(),
// run_stream()); every failure is a gtest expectation tagged with its
// cycle.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "engine/engine.hpp"

namespace ft {

/// On every cycle:
///  * RandomSubset: non-local deliveries + losses == attempts (a contender
///    either crosses its whole path or loses exactly once);
///  * pending conservation: the next cycle's pending_before equals this
///    one's minus its non-local deliveries and its give-ups (no later
///    injections);
///  * on the cycles it observes, carried[c] <= max(1, floor(alpha *
///    cap(c))), and 0 on a zero-capacity slot.
/// `local` is the number of empty paths in the batch, delivered at
/// injection and counted in cycle 1's deliveries.
class CycleInvariants : public EngineObserver {
 public:
  CycleInvariants(double alpha, std::uint64_t local,
                  bool random_subset = true)
      : alpha_(alpha), local_(local), random_subset_(random_subset) {}

  void on_cycle(const CycleSnapshot& s) override {
    const std::uint64_t local = s.cycle == 1 ? local_ : 0;
    ASSERT_GE(s.delivered, local) << "cycle " << s.cycle;
    const std::uint64_t routed = s.delivered - local;
    if (random_subset_) {
      EXPECT_EQ(routed + s.losses, s.attempts) << "cycle " << s.cycle;
    }
    if (s.cycle > 1) {
      EXPECT_EQ(s.pending_before, next_pending_) << "cycle " << s.cycle;
    }
    ASSERT_GE(s.pending_before, routed + s.gave_up) << "cycle " << s.cycle;
    next_pending_ = s.pending_before - routed - s.gave_up;
    ++cycles_;
    if (s.carried == nullptr) return;
    const std::vector<std::uint64_t>& cap = s.graph->capacity;
    for (std::size_t c = 0; c < cap.size(); ++c) {
      const std::uint64_t limit =
          cap[c] == 0 ? 0
                      : std::max<std::uint64_t>(
                            1, static_cast<std::uint64_t>(
                                   static_cast<double>(cap[c]) * alpha_));
      EXPECT_LE((*s.carried)[c], limit)
          << "cycle " << s.cycle << " channel " << c;
    }
  }

  /// After the run: one snapshot per cycle, and nothing left pending
  /// unless the engine gave up at max_cycles.
  void expect_complete(std::uint64_t cycles, bool gave_up) const {
    EXPECT_EQ(cycles_, cycles);
    if (!gave_up) {
      EXPECT_EQ(next_pending_, 0u);
    }
  }

 private:
  double alpha_;
  std::uint64_t local_;
  bool random_subset_;
  std::uint64_t next_pending_ = 0;
  std::uint64_t cycles_ = 0;
};

}  // namespace ft
