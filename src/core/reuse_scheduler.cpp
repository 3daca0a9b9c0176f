#include "core/reuse_scheduler.hpp"

#include <algorithm>
#include <map>

#include "core/cycle_loads.hpp"
#include "core/load.hpp"
#include "util/bits.hpp"
#include "util/check.hpp"

namespace ft {
namespace {

/// Splits a crossing set into exactly `r` (a power of two) parts by
/// repeated even splitting. Parts may be empty.
std::vector<MessageSet> split_r_ways(const FatTreeTopology& topo, NodeId v,
                                     MessageSet msgs, std::uint32_t r) {
  FT_CHECK(is_pow2(r));
  std::vector<MessageSet> parts;
  parts.push_back(std::move(msgs));
  while (parts.size() < r) {
    std::vector<MessageSet> next;
    next.reserve(parts.size() * 2);
    for (auto& p : parts) {
      EvenSplit s = split_crossing_messages(topo, v, p);
      next.push_back(std::move(s.first));
      next.push_back(std::move(s.second));
    }
    parts = std::move(next);
  }
  return parts;
}

}  // namespace

ReuseScheduleResult schedule_reuse(const FatTreeTopology& topo,
                                   const CapacityProfile& caps,
                                   const MessageSet& m, std::uint32_t slack) {
  const std::uint32_t L = topo.height();
  if (slack == 0) slack = 2 * L;

  ReuseScheduleResult result;

  // Fictitious capacities: cap'(c) = max(1, cap(c) − slack).
  std::vector<std::uint64_t> fict(L + 1);
  for (std::uint32_t k = 0; k <= L; ++k) {
    const std::uint64_t c = caps.capacity_at_level(k);
    fict[k] = c > slack ? c - slack : 1;
  }
  const CapacityProfile fict_caps(topo, std::move(fict));
  result.fictitious_load_factor = load_factor(topo, fict_caps, m);

  // Target r = smallest power of two >= 2λ'.
  const double two_lambda = 2.0 * result.fictitious_load_factor;
  std::uint32_t r = 1;
  while (static_cast<double>(r) < two_lambda) r *= 2;
  result.target_cycles = r;

  // Partition the crossing set of every node into the same r parts.
  std::map<NodeId, std::pair<MessageSet, MessageSet>> groups;  // LR, RL
  MessageSet self_messages;
  for (const auto& msg : m) {
    if (msg.src == msg.dst) {
      self_messages.push_back(msg);
      continue;
    }
    const NodeId v = topo.lca(msg.src, msg.dst);
    auto& g = groups[v];
    if (topo.leaf_in_subtree(msg.src, topo.left_child(v))) {
      g.first.push_back(msg);
    } else {
      g.second.push_back(msg);
    }
  }

  std::vector<MessageSet> cycles(r);
  for (auto& [v, g] : groups) {
    auto lr = split_r_ways(topo, v, std::move(g.first), r);
    auto rl = split_r_ways(topo, v, std::move(g.second), r);
    for (std::uint32_t i = 0; i < r; ++i) {
      cycles[i].insert(cycles[i].end(), lr[i].begin(), lr[i].end());
      cycles[i].insert(cycles[i].end(), rl[i].begin(), rl[i].end());
    }
  }
  if (!self_messages.empty()) {
    cycles[0].insert(cycles[0].end(), self_messages.begin(),
                     self_messages.end());
  }

  // Repair pass: move any messages that overflow a *true* capacity into an
  // overflow set and schedule that with Theorem 1. When the Corollary 2
  // premise holds this moves nothing.
  MessageSet overflow;
  const CapacityTable table(topo, caps);
  CycleLoads loads(table);
  for (auto& cycle : cycles) {
    loads.reset();
    MessageSet kept;
    kept.reserve(cycle.size());
    for (const auto& msg : cycle) {
      if (loads.try_add_one(msg, /*commit=*/true)) {
        kept.push_back(msg);
      } else {
        overflow.push_back(msg);
      }
    }
    cycle = std::move(kept);
  }
  result.repaired_messages = overflow.size();

  // Drop empty cycles (r may exceed what the workload needed, and the
  // repair pass can empty a cycle entirely).
  for (auto& cycle : cycles) {
    if (!cycle.empty()) {
      result.schedule.cycles.push_back(std::move(cycle));
    }
  }
  if (!overflow.empty()) {
    Schedule extra = schedule_offline(topo, caps, overflow);
    for (auto& c : extra.cycles) {
      result.schedule.cycles.push_back(std::move(c));
    }
  }
  return result;
}

}  // namespace ft
