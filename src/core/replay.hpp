// Offline schedule replay (Section VI: "schedule once, replay every
// emulated step"). Executes a compiled Schedule on the unified
// CycleEngine, one injected batch per scheduled delivery cycle, with pure
// occupancy accounting (Tally contention): every message is delivered in
// its scheduled cycle and the engine reports exactly what each channel
// carried. This is the single source of truth for schedule analytics —
// verify_schedule() and core/schedule_stats build on it.
//
// A fault-free replay is one linear pass over the schedule's hops: no
// channel can reject under Tally, so the engine skips its stage sweep
// (worklists, buckets, arbitration) and just counts each message's path.
// A fault plan brings the stage sweep back, since down channels reject.
// Either way the engine counts capacity violations in that same pass
// (EngineResult::capacity_violations), and the caller's observer, if
// any, is handed to the engine as is: a replay without an observer does
// no per-cycle work proportional to the channel count.
// Callers that replay anyway check the schedule from that one replay
// (verify_replayed_schedule) instead of replaying again through
// verify_schedule — ftd's run_job does.
#pragma once

#include <cstdint>
#include <vector>

#include "core/capacity.hpp"
#include "core/offline_scheduler.hpp"
#include "core/topology.hpp"
#include "engine/fault_plan.hpp"
#include "engine/observer.hpp"
#include "engine/phase_profile.hpp"

namespace ft {

struct ReplayOptions {
  /// Optional transient-fault plan (not owned). A down channel rejects
  /// its scheduled messages, which then retry in later cycles — the
  /// replay measures how a precomputed schedule degrades under churn
  /// (cycles may exceed schedule.num_cycles()). Brownouts do not bind
  /// here: tally replay has no admission cap to scale.
  const FaultPlan* fault_plan = nullptr;
  /// Per-message retry policy for faulted replays (default: retry every
  /// cycle forever, the classic behavior).
  RetryPolicy retry;
  /// Time the cycle loop's phases (ReplayResult::phases). A replay runs
  /// as one shard on the calling thread, so its sweep counts as the
  /// serial (spine) band.
  bool time_phases = false;
};

struct ReplayResult {
  std::uint64_t cycles = 0;     ///< == schedule.num_cycles() if fault-free
  std::uint64_t delivered = 0;  ///< == schedule.total_messages()
  /// Channel-cycles where the scheduled load exceeded capacity, counted
  /// by the engine's tally pass. Zero iff every scheduled cycle is a
  /// one-cycle message set (fault-free).
  std::uint64_t capacity_violations = 0;
  // Fault / retry lifecycle (zero on fault-free replays).
  std::uint64_t messages_given_up = 0;
  std::uint64_t fault_down_events = 0;
  std::uint64_t fault_up_events = 0;
  std::uint64_t subtree_kill_events = 0;
  /// Wall-clock Amdahl decomposition; all-zero unless
  /// ReplayOptions::time_phases was set.
  EnginePhaseProfile phases;
  std::vector<std::uint32_t> delivered_per_cycle;
};

/// Replays `schedule` on the fat-tree. `observer` (optional) gets what it
/// asks the engine for, as on an online run: channel occupancy on the
/// cycles it samples, latency samples if it wants them. Self messages
/// deliver locally in their scheduled cycle.
ReplayResult replay_schedule(const FatTreeTopology& topo,
                             const CapacityProfile& caps,
                             const Schedule& schedule,
                             const ReplayOptions& opts = {},
                             EngineObserver* observer = nullptr);

/// True iff `replay` — replay_schedule's fault-free result for `s` — saw
/// no capacity violation and the cycles of `s` partition `m` as a
/// multiset. verify_schedule(topo, caps, m, s) is exactly this check on
/// replay_schedule(topo, caps, s).
bool verify_replayed_schedule(const MessageSet& m, const Schedule& s,
                              const ReplayResult& replay);

}  // namespace ft
