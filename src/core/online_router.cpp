#include "core/online_router.hpp"

#include <algorithm>

#include "core/load.hpp"
#include "engine/engine.hpp"
#include "engine/fat_tree_model.hpp"
#include "util/thread_pool.hpp"

namespace ft {

namespace {

// Self messages are delivered locally in the first cycle and never enter
// the engine (they would otherwise shift message ids in trace streams).
// The filter counts them so the caller can fold them back into
// delivered_per_cycle; the count is complete once the engine has drained
// the stream.
class NonSelfStream final : public MessageStream {
 public:
  explicit NonSelfStream(MessageStream& inner) : inner_(inner) {}

  bool next(Message& out) override {
    while (inner_.next(out)) {
      if (out.src != out.dst) return true;
      ++self_;
    }
    return false;
  }

  std::uint32_t self_delivered() const { return self_; }

 private:
  MessageStream& inner_;
  std::uint32_t self_ = 0;
};

// Shard depth for the engine's subtree-sharded parallel mode: an explicit
// OnlineRouterOptions::shard_level, else auto_shard_level. Always capped
// by the topology: the spine must stay above the leaves.
std::uint32_t pick_shard_level(const FatTreeTopology& topo,
                               const OnlineRouterOptions& opts) {
  if (!opts.parallel || topo.height() < 2) return 0;
  const std::uint32_t cap = topo.height() - 1;
  if (opts.shard_level != kShardLevelAuto) {
    return std::min(opts.shard_level, cap);
  }
  return auto_shard_level(opts.threads, topo.height());
}

}  // namespace

// The shard loop is the load balancer of a contended cycle: a band's
// makespan is its slowest participant's share of whole shards, and the
// run_tasks caller is a participant too (threads + 1 of them). At one or
// two shards per participant a single heavy subtree, or one descheduled
// vCPU, stalls the band; at 8 per participant the stealing pool evens it
// out. Deeper levels widen the spine band, which small trees cannot
// fill, so a shard keeps at least 1024 leaves, and past level 6 the
// per-shard bookkeeping outgrows the balance gain. The sweep behind the
// rule is in DESIGN.md, "Shard sizing".
std::uint32_t auto_shard_level(std::size_t threads, std::uint32_t height) {
  if (height < 2) return 0;
  const std::size_t want = 8 * (resolve_threads(threads) + 1);
  std::uint32_t lvl = 1;
  while ((std::size_t{1} << lvl) < want && lvl < 6) ++lvl;
  return std::min(lvl, height > 10 ? height - 10 : 1);
}

OnlineRoutingResult route_online_stream(const FatTreeTopology& topo,
                                        const CapacityProfile& caps,
                                        MessageStream& messages,
                                        double lambda_hint, Rng& rng,
                                        const OnlineRouterOptions& opts) {
  const std::uint32_t L = topo.height();

  std::uint32_t max_cycles = opts.max_cycles;
  if (max_cycles == 0) {
    max_cycles = 64 * (static_cast<std::uint32_t>(lambda_hint) + L * L + 4);
  }

  EngineOptions eopts;
  eopts.contention = ContentionPolicy::RandomSubset;
  eopts.policy = opts.policy;
  eopts.alpha = opts.alpha;
  eopts.max_cycles = max_cycles;
  eopts.seed = rng.next();
  eopts.parallel = opts.parallel;
  eopts.threads = opts.threads;
  eopts.parallel_spine = opts.parallel_spine;
  eopts.retry = opts.retry;
  eopts.fault_plan = opts.fault_plan;
  eopts.time_phases = opts.time_phases;

  CycleEngine engine(
      fat_tree_channel_graph(topo, caps, pick_shard_level(topo, opts)), eopts);

  NonSelfStream routed(messages);
  FatTreePathSource source(topo, routed);
  const EngineResult er = engine.run_stream(source, opts.observer);

  OnlineRoutingResult result;
  result.delivery_cycles = er.cycles;
  result.total_attempts = er.total_attempts;
  result.total_losses = er.total_losses;
  result.gave_up = er.gave_up;
  result.messages_given_up = er.messages_given_up;
  result.total_backoffs = er.total_backoffs;
  result.fault_down_events = er.fault_down_events;
  result.fault_up_events = er.fault_up_events;
  result.subtree_kill_events = er.subtree_kill_events;
  result.degraded_channel_cycles = er.degraded_channel_cycles;
  result.phases = er.phases;
  result.delivered_per_cycle = er.delivered_per_cycle;
  if (opts.max_cycles == 0) result.lambda = lambda_hint;

  if (routed.self_delivered() > 0) {
    // Purely local traffic still takes one delivery cycle.
    if (result.delivery_cycles == 0) {
      result.delivery_cycles = 1;
      result.delivered_per_cycle.push_back(routed.self_delivered());
    } else {
      result.delivered_per_cycle.front() += routed.self_delivered();
    }
  }
  return result;
}

OnlineRoutingResult route_online(const FatTreeTopology& topo,
                                 const CapacityProfile& caps,
                                 const MessageSet& m, Rng& rng,
                                 const OnlineRouterOptions& opts) {
  // The materialized set allows the exact load-factor estimate for the
  // default give-up horizon; routing itself rides the streaming path.
  double lambda_hint = 0.0;
  if (opts.max_cycles == 0) lambda_hint = load_factor(topo, caps, m);

  MessageSetStream stream(m);
  return route_online_stream(topo, caps, stream, lambda_hint, rng, opts);
}

}  // namespace ft
