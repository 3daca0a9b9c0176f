// Incremental per-channel load tracking for one delivery cycle, shared by
// the schedulers: tentative "does this set still fit?" probes without O(n)
// clears, by rolling back the touched counters.
//
// A scheduling call resolves its CapacityProfile once into a
// CapacityTable (overrides included), and every CycleLoads of that call
// reads the same table: packed and greedy keep one CycleLoads per output
// cycle, each holding only its counts. A probe walks a path's up/down
// node pairs directly — one count and one table read per hop — and stops
// at the first channel that goes over capacity.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "core/capacity.hpp"
#include "core/message.hpp"
#include "core/topology.hpp"
#include "util/check.hpp"

namespace ft {

/// Wire count of every channel of one capacity profile, indexed by the
/// node beneath the channel (both directions share it). Clamped to
/// 2^32 - 1, which is lossless: a cycle's count on a channel never
/// exceeds the number of messages, which is below 2^32.
struct CapacityTable {
  CapacityTable(const FatTreeTopology& topo, const CapacityProfile& caps)
      : n(topo.num_processors()), wires(topo.num_nodes() + 1, 0) {
    for (NodeId v = 1; v <= topo.num_nodes(); ++v) {
      wires[v] = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(caps.capacity(topo, v), 0xffffffffu));
    }
  }

  std::uint32_t n;  ///< leaves; leaf p is node n + p
  std::vector<std::uint32_t> wires;
};

class CycleLoads {
 public:
  /// `caps` is not copied and must outlive this object.
  explicit CycleLoads(const CapacityTable& caps)
      : caps_(&caps),
        counts_(static_cast<std::size_t>(caps.wires.size()) * 2, 0) {}

  /// Adds the paths of messages m[idx[0]], m[idx[1]], ... on top of the
  /// current counts and reports whether every channel stays within
  /// capacity. When `commit` is false (or the set does not fit) the counts
  /// are rolled back.
  bool try_add(const MessageSet& m, std::span<const std::uint32_t> idx,
               bool commit) {
    touched_.clear();
    for (const std::uint32_t i : idx) {
      if (!add_path(m[i])) {
        rollback();
        return false;
      }
    }
    if (!commit) rollback();
    return true;
  }

  /// Single-message variant of try_add.
  bool try_add_one(const Message& msg, bool commit) {
    touched_.clear();
    const bool ok = add_path(msg);
    if (!ok || !commit) rollback();
    return ok;
  }

  void reset() { std::fill(counts_.begin(), counts_.end(), 0); }

 private:
  /// Counts one path into counts_ (up channel of node a at 2a, down
  /// channel of node b at 2b + 1, as channel_index lays them out),
  /// recording each counter in touched_; false at the first channel over
  /// capacity.
  bool add_path(const Message& msg) {
    const std::uint32_t n = caps_->n;
    FT_CHECK(msg.src < n && msg.dst < n);
    const std::uint32_t* const cap = caps_->wires.data();
    std::uint32_t* const cnt = counts_.data();
    NodeId a = n + msg.src;
    NodeId b = n + msg.dst;
    while (a != b) {
      touched_.push_back(2 * a);
      if (++cnt[2 * a] > cap[a]) return false;
      touched_.push_back(2 * b + 1);
      if (++cnt[2 * b + 1] > cap[b]) return false;
      a >>= 1;
      b >>= 1;
    }
    return true;
  }

  void rollback() {
    for (const std::uint32_t t : touched_) --counts_[t];
  }

  const CapacityTable* caps_;
  std::vector<std::uint32_t> counts_;
  std::vector<std::uint32_t> touched_;
};

}  // namespace ft
