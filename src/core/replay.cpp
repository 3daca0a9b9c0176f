#include "core/replay.hpp"

#include <algorithm>
#include <numeric>
#include <vector>

#include "engine/engine.hpp"
#include "engine/fat_tree_model.hpp"

namespace ft {
namespace {

/// Streams the schedule into the engine one scheduled cycle per chunk:
/// only one cycle's paths are materialized at a time, however long the
/// schedule is.
class ScheduleBatchSource final : public MessageSource {
 public:
  ScheduleBatchSource(const FatTreeTopology& topo, const Schedule& schedule)
      : topo_(topo), schedule_(schedule) {}

  bool next_chunk(PathSet& chunk) override {
    if (next_ >= schedule_.cycles.size()) return false;
    chunk.clear();
    for (const auto& msg : schedule_.cycles[next_]) {
      append_fat_tree_path(topo_, msg.src, msg.dst, chunk);
    }
    ++next_;
    return true;
  }

 private:
  const FatTreeTopology& topo_;
  const Schedule& schedule_;
  std::size_t next_ = 0;
};

/// Sorts `msgs` by (src, dst) in O(|msgs| + bound): two stable counting
/// passes, by destination and then by source. Every leaf is below `bound`.
void sort_by_leaves(MessageSet& msgs, std::size_t bound) {
  MessageSet tmp(msgs.size());
  std::vector<std::size_t> start(bound + 1);
  auto pass = [&](Leaf Message::*leaf, const MessageSet& from,
                  MessageSet& to) {
    std::fill(start.begin(), start.end(), 0);
    for (const auto& msg : from) ++start[msg.*leaf + 1];
    std::partial_sum(start.begin(), start.end(), start.begin());
    for (const auto& msg : from) to[start[msg.*leaf]++] = msg;
  };
  pass(&Message::dst, msgs, tmp);
  pass(&Message::src, tmp, msgs);
}

}  // namespace

ReplayResult replay_schedule(const FatTreeTopology& topo,
                             const CapacityProfile& caps,
                             const Schedule& schedule,
                             const ReplayOptions& opts,
                             EngineObserver* observer) {
  EngineOptions eopts;
  eopts.contention = ContentionPolicy::Tally;
  eopts.fault_plan = opts.fault_plan;
  eopts.retry = opts.retry;
  eopts.time_phases = opts.time_phases;
  if (opts.fault_plan != nullptr && !opts.fault_plan->empty()) {
    // A faulted replay can run past the schedule horizon while messages
    // wait out down channels; the plan seed keys the fault streams.
    eopts.seed = opts.fault_plan->seed();
    eopts.max_cycles = 64 * (schedule.num_cycles() + 64);
  }

  CycleEngine engine(fat_tree_channel_graph(topo, caps), eopts);
  ScheduleBatchSource source(topo, schedule);
  const EngineResult er = engine.run_batched_stream(source, observer);

  ReplayResult result;
  result.cycles = er.cycles;
  result.delivered = er.delivered;
  result.capacity_violations = er.capacity_violations;
  result.messages_given_up = er.messages_given_up;
  result.fault_down_events = er.fault_down_events;
  result.fault_up_events = er.fault_up_events;
  result.subtree_kill_events = er.subtree_kill_events;
  result.phases = er.phases;
  result.delivered_per_cycle = er.delivered_per_cycle;
  return result;
}

bool verify_replayed_schedule(const MessageSet& m, const Schedule& s,
                              const ReplayResult& replay) {
  // Every cycle must individually respect capacities: the replay tallied
  // each channel-cycle's load against cap.
  if (replay.capacity_violations != 0) return false;
  // The cycles must partition m as a multiset: both message lists sorted
  // by (src, dst) must be equal. The leaves of `s` are the tree's
  // processors (the replay routed them; a leaf past n aborts it), so the
  // counting sort's table is O(n), dominated by the replay's own channel
  // graph. A message of `m` with a leaf beyond all of them is not in `s`.
  MessageSet got;
  got.reserve(m.size());
  Leaf top = 0;
  for (const auto& cycle : s.cycles) {
    for (const auto& msg : cycle) top = std::max({top, msg.src, msg.dst});
    got.insert(got.end(), cycle.begin(), cycle.end());
  }
  if (got.size() != m.size()) return false;
  for (const auto& msg : m) {
    if (msg.src > top || msg.dst > top) return false;
  }
  MessageSet want = m;
  sort_by_leaves(want, std::size_t{top} + 1);
  sort_by_leaves(got, std::size_t{top} + 1);
  return want == got;
}

}  // namespace ft
