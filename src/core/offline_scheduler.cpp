#include "core/offline_scheduler.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <utility>

#include "core/cycle_loads.hpp"
#include "core/replay.hpp"
#include "util/check.hpp"

namespace ft {
namespace {

constexpr std::int32_t kNone = -1;

/// Scratch of the even split and of the per-node partitioning, sized once
/// per schedule and reused by every split: the matching partners (indexed
/// by position in the crossing set), the leaf-sorted ends, the halves'
/// assignment, and the partitioning's work queue and stable-partition
/// buffer.
struct SplitScratch {
  std::vector<std::int32_t> src_partner;
  std::vector<std::int32_t> dst_partner;
  std::vector<std::pair<Leaf, std::int32_t>> ends;
  std::vector<std::int8_t> assigned;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> work;
  std::vector<std::uint32_t> second;
};

/// Hierarchical matching of message ends on one side of a node (the
/// paper's matching phase) over the crossing set m[idx[0]], m[idx[1]], ...
/// Fills `partner` with, per position, the position of the message whose
/// end it is matched with (kNone for the at-most-one unmatched end, which
/// is returned). `use_src` selects whether the end of interest is the
/// source leaf (left side of a left-to-right set) or the destination leaf.
std::int32_t match_side(const FatTreeTopology& topo, NodeId side_root,
                        const MessageSet& m,
                        std::span<const std::uint32_t> idx, bool use_src,
                        std::vector<std::int32_t>& partner,
                        std::vector<std::pair<Leaf, std::int32_t>>& ends) {
  partner.assign(idx.size(), kNone);

  // Ends sorted by leaf; the recursion below then only descends into
  // subtrees that actually contain ends.
  ends.clear();
  for (std::size_t i = 0; i < idx.size(); ++i) {
    const Message& msg = m[idx[i]];
    ends.emplace_back(use_src ? msg.src : msg.dst,
                      static_cast<std::int32_t>(i));
  }
  std::sort(ends.begin(), ends.end());

  // Recursive pairing: a subtree returns its at-most-one leftover end.
  auto rec = [&](auto&& self, NodeId node, std::size_t lo,
                 std::size_t hi) -> std::int32_t {
    if (lo >= hi) return kNone;
    if (topo.is_leaf(node) || hi - lo == 1) {
      // Within a single leaf (or a singleton range) pair consecutively.
      for (std::size_t i = lo; i + 1 < hi; i += 2) {
        const auto a = ends[i].second;
        const auto b = ends[i + 1].second;
        partner[a] = b;
        partner[b] = a;
      }
      return (hi - lo) % 2 ? ends[hi - 1].second : kNone;
    }
    const Leaf split_leaf = topo.subtree_first_leaf(topo.right_child(node));
    const auto mid_it = std::lower_bound(
        ends.begin() + static_cast<std::ptrdiff_t>(lo),
        ends.begin() + static_cast<std::ptrdiff_t>(hi),
        std::make_pair(split_leaf, kNone));
    const auto mid = static_cast<std::size_t>(mid_it - ends.begin());
    const std::int32_t l = self(self, topo.left_child(node), lo, mid);
    const std::int32_t r = self(self, topo.right_child(node), mid, hi);
    if (l != kNone && r != kNone) {
      partner[l] = r;
      partner[r] = l;
      return kNone;
    }
    return l != kNone ? l : r;
  };
  return rec(rec, side_root, 0, ends.size());
}

/// The even split of the crossing set m[idx[0]], m[idx[1]], ... (all
/// crossing internal node v in one direction): sets sc.assigned[i] to 0
/// or 1, the half of position i.
void split_assign(const FatTreeTopology& topo, NodeId v, const MessageSet& m,
                  std::span<const std::uint32_t> idx, SplitScratch& sc) {
  // The source side is the child subtree holding the first source.
  const NodeId lchild = topo.left_child(v);
  const bool src_left = topo.leaf_in_subtree(m[idx[0]].src, lchild);
  const NodeId src_side = src_left ? lchild : topo.right_child(v);
  const NodeId dst_side = src_left ? topo.right_child(v) : lchild;

  // Matching phase: hierarchically match source ends on the source side
  // and destination ends on the destination side.
  const std::int32_t src_unmatched =
      match_side(topo, src_side, m, idx, true, sc.src_partner, sc.ends);
  match_side(topo, dst_side, m, idx, false, sc.dst_partner, sc.ends);

  // Tracing phase. The multigraph whose vertices are message ends and
  // whose edges are messages plus matched pairs has max degree 2: it is a
  // disjoint union of one path (when the set is odd) and cycles. Walking
  // each component and assigning messages alternately to the two halves
  // splits every channel's load to within one.
  std::vector<std::int8_t>& assigned = sc.assigned;
  assigned.assign(idx.size(), -1);
  auto trace_from = [&](std::size_t start) {
    std::size_t cur = start;
    bool to_first = true;  // message traversed source-to-destination
    for (;;) {
      FT_CHECK(assigned[cur] < 0);
      assigned[cur] = to_first ? 0 : 1;
      // Alternate: after traversing `cur`, hop across the matched end on
      // the side we arrived at, then traverse that message the other way.
      const std::int32_t next =
          to_first ? sc.dst_partner[cur] : sc.src_partner[cur];
      if (next == kNone || assigned[static_cast<std::size_t>(next)] >= 0) {
        return;
      }
      cur = static_cast<std::size_t>(next);
      to_first = !to_first;
    }
  };

  // Start with the unmatched source end if it exists (the path component),
  // then sweep up the remaining cycles.
  if (src_unmatched != kNone) {
    trace_from(static_cast<std::size_t>(src_unmatched));
  }
  for (std::size_t i = 0; i < idx.size(); ++i) {
    if (assigned[i] < 0) trace_from(i);
  }
}

/// Message indices grouped by where they cross, by one stable counting
/// sort on key 2v + d: v is the message's LCA and d is 1 when its source
/// lies in v's right subtree. Self messages (src == dst) take key 0. Group
/// k is order[start[k], start[k + 1]), in message order.
struct Crossings {
  std::vector<std::uint32_t> order;
  std::vector<std::uint32_t> start;
};

Crossings group_by_lca(const FatTreeTopology& topo, const MessageSet& m) {
  const std::uint32_t n = topo.num_processors();
  FT_CHECK_MSG(m.size() < 0xffffffffu, "message set overflows u32 indices");
  std::vector<std::uint32_t> key(m.size());
  Crossings g;
  g.start.assign(2 * static_cast<std::size_t>(n) + 1, 0);
  for (std::size_t i = 0; i < m.size(); ++i) {
    FT_CHECK(m[i].src < n && m[i].dst < n);
    const NodeId a = n + m[i].src;
    const NodeId b = n + m[i].dst;
    // The LCA is the common prefix of the two leaf nodes' heap numbers;
    // the bit below it says which child subtree the source is in.
    const auto shift = static_cast<std::uint32_t>(std::bit_width(a ^ b));
    key[i] = a == b ? 0 : 2 * (a >> shift) + ((a >> (shift - 1)) & 1);
    ++g.start[key[i] + 1];
  }
  for (std::size_t k = 1; k < g.start.size(); ++k) {
    g.start[k] += g.start[k - 1];
  }
  g.order.resize(m.size());
  std::vector<std::uint32_t> fill(g.start.begin(), g.start.end() - 1);
  for (std::size_t i = 0; i < m.size(); ++i) {
    g.order[fill[key[i]]++] = static_cast<std::uint32_t>(i);
  }
  return g;
}

/// Splits order[lo, hi) (messages all crossing v in one direction)
/// repeatedly until every part is a one-cycle set on its own. Splits run
/// breadth-first and in place: each halves a range by a stable partition,
/// first half first. Appends the final parts, as ranges of `order`, to
/// `done` in the order they are finished.
void partition_to_one_cycle(
    const FatTreeTopology& topo, const MessageSet& m, NodeId v,
    std::vector<std::uint32_t>& order, std::uint32_t lo, std::uint32_t hi,
    CycleLoads& probe, SplitScratch& sc,
    std::vector<std::pair<std::uint32_t, std::uint32_t>>& done) {
  auto& work = sc.work;
  work.clear();
  if (lo < hi) work.emplace_back(lo, hi);
  for (std::size_t head = 0; head < work.size(); ++head) {
    const auto [b, e] = work[head];
    const std::span<std::uint32_t> part(order.data() + b, e - b);
    if (part.size() <= 1 || probe.try_add(m, part, /*commit=*/false)) {
      done.emplace_back(b, e);
      continue;
    }
    split_assign(topo, v, m, part, sc);
    sc.second.clear();
    std::uint32_t mid = b;
    for (std::size_t i = 0; i < part.size(); ++i) {
      const std::uint32_t msg = part[i];
      if (sc.assigned[i] == 0) {
        order[mid++] = msg;  // mid <= b + i: never overwrites unread
      } else {
        sc.second.push_back(msg);
      }
    }
    std::copy(sc.second.begin(), sc.second.end(), order.begin() + mid);
    FT_CHECK_MSG(mid > b && mid < e, "even split must make progress");
    work.emplace_back(b, mid);
    work.emplace_back(mid, e);
  }
}

/// Every node's one-cycle sets, nodes ascending: node nodes[k] owns parts
/// [node_part[k], node_part[k + 1]), and part q is the message indices
/// idx[part_off[q], part_off[q + 1]). A node's part i is its
/// left-to-right part i followed by its right-to-left part i: the two
/// directions use disjoint channels, so they share a delivery cycle.
/// Self messages are idx[0, part_off[0]).
struct NodeParts {
  std::vector<NodeId> nodes;
  std::vector<std::uint32_t> node_part{0};
  std::vector<std::uint32_t> part_off;
  std::vector<std::uint32_t> idx;

  std::span<const std::uint32_t> part(std::size_t q) const {
    return {idx.data() + part_off[q], part_off[q + 1] - part_off[q]};
  }
  std::span<const std::uint32_t> self_messages() const {
    return {idx.data(), part_off[0]};
  }
};

/// Runs the per-node partitioning for every node.
NodeParts partition_all_nodes(const FatTreeTopology& topo,
                              const MessageSet& m, CycleLoads& probe) {
  Crossings g = group_by_lca(topo, m);
  NodeParts p;
  p.idx.reserve(m.size());
  p.idx.assign(g.order.begin(), g.order.begin() + g.start[1]);
  p.part_off.push_back(static_cast<std::uint32_t>(p.idx.size()));
  SplitScratch sc;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> lr, rl;
  for (NodeId v = 1; v < topo.num_processors(); ++v) {
    const std::uint32_t lo = g.start[2 * v];
    const std::uint32_t mid = g.start[2 * v + 1];
    const std::uint32_t hi = g.start[2 * v + 2];
    if (lo == hi) continue;
    lr.clear();
    rl.clear();
    partition_to_one_cycle(topo, m, v, g.order, lo, mid, probe, sc, lr);
    partition_to_one_cycle(topo, m, v, g.order, mid, hi, probe, sc, rl);
    for (std::size_t i = 0; i < std::max(lr.size(), rl.size()); ++i) {
      if (i < lr.size()) {
        p.idx.insert(p.idx.end(), g.order.begin() + lr[i].first,
                     g.order.begin() + lr[i].second);
      }
      if (i < rl.size()) {
        p.idx.insert(p.idx.end(), g.order.begin() + rl[i].first,
                     g.order.begin() + rl[i].second);
      }
      p.part_off.push_back(static_cast<std::uint32_t>(p.idx.size()));
    }
    p.nodes.push_back(v);
    p.node_part.push_back(static_cast<std::uint32_t>(p.part_off.size() - 1));
  }
  return p;
}

void append_messages(const MessageSet& m, std::span<const std::uint32_t> idx,
                     MessageSet& out) {
  for (const std::uint32_t i : idx) out.push_back(m[i]);
}

}  // namespace

EvenSplit split_crossing_messages(const FatTreeTopology& topo, NodeId v,
                                  const MessageSet& crossing) {
  EvenSplit out;
  if (crossing.empty()) return out;
  FT_CHECK_MSG(!topo.is_leaf(v), "crossing node must be internal");

  // All messages must cross v in the same direction, the one of the first.
  const NodeId lchild = topo.left_child(v);
  const NodeId src_side = topo.leaf_in_subtree(crossing[0].src, lchild)
                              ? lchild
                              : topo.right_child(v);
  for (const auto& msg : crossing) {
    FT_CHECK_MSG(topo.lca(msg.src, msg.dst) == v, "message does not cross v");
    FT_CHECK_MSG(topo.leaf_in_subtree(msg.src, src_side),
                 "mixed directions in crossing set");
  }

  std::vector<std::uint32_t> idx(crossing.size());
  for (std::size_t i = 0; i < idx.size(); ++i) {
    idx[i] = static_cast<std::uint32_t>(i);
  }
  SplitScratch sc;
  split_assign(topo, v, crossing, idx, sc);
  for (std::size_t i = 0; i < crossing.size(); ++i) {
    (sc.assigned[i] == 0 ? out.first : out.second).push_back(crossing[i]);
  }
  return out;
}

Schedule schedule_offline(const FatTreeTopology& topo,
                          const CapacityProfile& caps, const MessageSet& m) {
  const CapacityTable table(topo, caps);
  CycleLoads probe(table);
  const NodeParts p = partition_all_nodes(topo, m, probe);

  // Paper assembly: all subtrees rooted at the same level route
  // concurrently (their channels are disjoint); levels run one after
  // another, giving d <= sum over levels of the per-level maximum. Nodes
  // ascend, so each level's nodes are one run of p.nodes.
  Schedule schedule;
  for (std::size_t k = 0; k < p.nodes.size();) {
    const std::uint32_t level = topo.level(p.nodes[k]);
    std::size_t end = k;
    std::size_t level_cycles = 0;
    for (; end < p.nodes.size() && topo.level(p.nodes[end]) == level; ++end) {
      level_cycles = std::max<std::size_t>(
          level_cycles, p.node_part[end + 1] - p.node_part[end]);
    }
    const std::size_t base = schedule.cycles.size();
    schedule.cycles.resize(base + level_cycles);
    for (; k < end; ++k) {
      for (std::uint32_t q = p.node_part[k]; q < p.node_part[k + 1]; ++q) {
        append_messages(m, p.part(q),
                        schedule.cycles[base + q - p.node_part[k]]);
      }
    }
  }

  if (!p.self_messages().empty()) {
    if (schedule.cycles.empty()) schedule.cycles.emplace_back();
    append_messages(m, p.self_messages(), schedule.cycles.front());
  }
  return schedule;
}

Schedule schedule_offline_packed(const FatTreeTopology& topo,
                                 const CapacityProfile& caps,
                                 const MessageSet& m) {
  const CapacityTable table(topo, caps);
  CycleLoads probe(table);
  const NodeParts p = partition_all_nodes(topo, m, probe);

  // First-fit packing of the per-node one-cycle sets across levels: a set
  // from a deep node often coexists with sets from other levels because
  // their channel footprints overlap without exceeding capacity.
  Schedule schedule;
  std::vector<CycleLoads> cycle_loads;
  for (std::size_t q = 0; q + 1 < p.part_off.size(); ++q) {
    const auto set = p.part(q);
    std::size_t c = 0;
    while (c < cycle_loads.size() &&
           !cycle_loads[c].try_add(m, set, /*commit=*/true)) {
      ++c;
    }
    if (c == cycle_loads.size()) {
      cycle_loads.emplace_back(table);
      FT_CHECK(cycle_loads.back().try_add(m, set, /*commit=*/true));
      schedule.cycles.emplace_back();
    }
    append_messages(m, set, schedule.cycles[c]);
  }

  if (!p.self_messages().empty()) {
    if (schedule.cycles.empty()) schedule.cycles.emplace_back();
    append_messages(m, p.self_messages(), schedule.cycles.front());
  }
  return schedule;
}

Schedule schedule_greedy(const FatTreeTopology& topo,
                         const CapacityProfile& caps, const MessageSet& m) {
  const CapacityTable table(topo, caps);
  Schedule schedule;
  std::vector<CycleLoads> cycle_loads;
  for (const auto& msg : m) {
    std::size_t c = 0;
    while (c < cycle_loads.size() &&
           !cycle_loads[c].try_add_one(msg, /*commit=*/true)) {
      ++c;
    }
    if (c == cycle_loads.size()) {
      cycle_loads.emplace_back(table);
      FT_CHECK(cycle_loads.back().try_add_one(msg, /*commit=*/true));
      schedule.cycles.emplace_back();
    }
    schedule.cycles[c].push_back(msg);
  }
  return schedule;
}

bool verify_schedule(const FatTreeTopology& topo, const CapacityProfile& caps,
                     const MessageSet& m, const Schedule& s) {
  return verify_replayed_schedule(m, s, replay_schedule(topo, caps, s));
}

}  // namespace ft
