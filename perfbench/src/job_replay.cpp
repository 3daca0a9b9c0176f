#include "job_replay.hpp"

#include <algorithm>
#include <optional>
#include <thread>

#include "core/load.hpp"
#include "core/offline_scheduler.hpp"
#include "core/replay.hpp"
#include "core/traffic.hpp"
#include "engine/engine.hpp"
#include "engine/fat_tree_model.hpp"

namespace ftb {

namespace {

using ft::ftd::JobKind;
using ft::ftd::JobRequest;

// The helpers below mirror private code of src/core/online_router.cpp and
// src/ftd/protocol.cpp. The replay's results are compared with the
// program's on every traced run, so any drift shows as a failure.

/// Drops self messages before the engine and counts them (they deliver
/// locally in the first cycle).
class NonSelfStream final : public ft::MessageStream {
 public:
  explicit NonSelfStream(ft::MessageStream& inner) : inner_(inner) {}
  bool next(ft::Message& out) override {
    while (inner_.next(out)) {
      if (out.src != out.dst) return true;
      ++self_;
    }
    return false;
  }
  std::uint32_t self_delivered() const { return self_; }

 private:
  ft::MessageStream& inner_;
  std::uint32_t self_ = 0;
};

/// Subtree shard depth of the parallel executor: about two shards per
/// worker, capped below the leaves (the router's default heuristic).
std::uint32_t shard_level(const ft::FatTreeTopology& topo,
                          const ft::OnlineRouterOptions& opts) {
  if (!opts.parallel || topo.height() < 2) return 0;
  const std::uint32_t cap = topo.height() - 1;
  if (opts.shard_level != ft::kShardLevelAuto) {
    return std::min(opts.shard_level, cap);
  }
  std::size_t workers = opts.threads;
  if (workers == 0) {
    workers = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  std::uint32_t lvl = 1;
  while ((std::size_t{1} << lvl) < workers * 2 && lvl < 6) ++lvl;
  return std::min(lvl, cap);
}

ft::MessageSet build_workload(const JobRequest& req) {
  ft::Rng rng(req.seed);
  const std::uint32_t n = req.n;
  ft::MessageSet base;
  if (req.workload == "random-perm") {
    base = ft::random_permutation_traffic(n, rng);
  } else if (req.workload == "bit-reversal") {
    base = ft::bit_reversal_traffic(n);
  } else if (req.workload == "transpose") {
    base = ft::transpose_traffic(n);
  } else if (req.workload == "shuffle") {
    base = ft::shuffle_traffic(n);
  } else if (req.workload == "complement") {
    base = ft::complement_traffic(n);
  } else if (req.workload == "tornado") {
    base = ft::tornado_traffic(n);
  } else if (req.workload == "uniform") {
    base = ft::uniform_random_traffic(n, req.messages ? req.messages : n, rng);
  } else {
    base = ft::incast_traffic(n, req.messages ? req.messages : n, 0, rng);
  }
  ft::MessageSet m = base;
  for (std::uint32_t k = 1; k < req.stack; ++k) {
    m.insert(m.end(), base.begin(), base.end());
  }
  return m;
}

void stamp_params(ft::JsonValue& run, const JobRequest& req) {
  run["n"] = req.n;
  run["w"] = req.w;
  run["workload"] = req.workload;
  run["seed"] = req.seed;
  run["stack"] = req.stack;
}

}  // namespace

ft::OnlineRoutingResult route_stream_spanned(
    const ft::FatTreeTopology& topo, const ft::CapacityProfile& caps,
    ft::MessageStream& messages, double lambda_hint, ft::Rng& rng,
    const ft::OnlineRouterOptions& opts, Tracer& tr, std::uint64_t job,
    EngineTally& tally) {
  const std::uint32_t L = topo.height();
  std::uint32_t max_cycles = opts.max_cycles;
  if (max_cycles == 0) {
    max_cycles = 64 * (static_cast<std::uint32_t>(lambda_hint) + L * L + 4);
  }
  ft::EngineOptions eopts;
  eopts.contention = ft::ContentionPolicy::RandomSubset;
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

  std::optional<ft::CycleEngine> engine;
  {
    Tracer::Scope s(tr, "engine.build", job);
    engine.emplace(
        ft::fat_tree_channel_graph(topo, caps, shard_level(topo, opts)),
        eopts);
  }
  NonSelfStream routed(messages);
  ft::FatTreePathSource source(topo, routed);
  ft::EngineResult er;
  {
    Tracer::Scope s(tr, "engine.route_online", job);
    const std::uint64_t a0 = heap_allocs();
    const auto t0 = Clock::now();
    er = engine->run_stream(source, opts.observer);
    tally.run_seconds += seconds_between(t0, Clock::now());
    tally.run_allocs += heap_allocs() - a0;
    if (opts.time_phases) {
      tr.add_child("engine.up", job, er.phases.up_seconds);
      tr.add_child("engine.spine", job,
                   er.phases.spine_seconds + er.phases.spine_parallel_seconds);
      tr.add_child("engine.down", job, er.phases.down_seconds);
      tr.add_child("engine.coord", job, er.phases.coord_seconds);
    }
  }
  {
    // The pool joins here; it belongs to the engine's lifetime cost.
    Tracer::Scope s(tr, "engine.teardown", job);
    engine.reset();
  }

  ft::OnlineRoutingResult result;
  result.delivery_cycles = er.cycles;
  result.total_attempts = er.total_attempts;
  result.total_losses = er.total_losses;
  result.gave_up = er.gave_up;
  result.messages_given_up = er.messages_given_up;
  result.total_backoffs = er.total_backoffs;
  result.phases = er.phases;
  result.delivered_per_cycle = std::move(er.delivered_per_cycle);
  if (routed.self_delivered() > 0) {
    if (result.delivery_cycles == 0) {
      result.delivery_cycles = 1;
      result.delivered_per_cycle.push_back(routed.self_delivered());
    } else {
      result.delivered_per_cycle.front() += routed.self_delivered();
    }
  }
  tally.cycles += result.delivery_cycles;
  tally.attempts += result.total_attempts;
  tally.losses += result.total_losses;
  for (const std::uint32_t d : result.delivered_per_cycle) tally.delivered += d;
  return result;
}

ft::JsonValue replay_job(const JobRequest& req, Tracer& tr, std::uint64_t job,
                         EngineTally& tally) {
  std::optional<ft::FatTreeTopology> topo;
  std::optional<ft::CapacityProfile> caps;
  {
    Tracer::Scope s(tr, "core.setup", job);
    topo.emplace(req.n);
    caps.emplace(ft::CapacityProfile::universal(*topo, req.w));
  }
  ft::MessageSet m;
  {
    Tracer::Scope s(tr, "core.workload", job);
    m = build_workload(req);
  }

  ft::JsonValue run = ft::JsonValue::object();
  if (req.kind == JobKind::RouteOnline) {
    ft::Rng rng(req.seed ^ 0x0511e5);
    ft::OnlineRouterOptions opts;
    opts.policy = req.policy;
    opts.max_cycles = req.max_cycles;
    opts.retry = req.retry;
    // route_online() estimates λ for its give-up horizon, then streams.
    double lambda_hint = 0.0;
    if (opts.max_cycles == 0) {
      Tracer::Scope s(tr, "core.load_factor", job);
      lambda_hint = ft::load_factor(*topo, *caps, m);
    }
    ft::MessageSetStream stream(m);
    const auto res = route_stream_spanned(*topo, *caps, stream, lambda_hint,
                                          rng, opts, tr, job, tally);
    double lambda = 0.0;
    {
      Tracer::Scope s(tr, "core.load_factor", job);
      lambda = ft::load_factor(*topo, *caps, m);
    }
    Tracer::Scope s(tr, "ftd.payload", job);
    run["kind"] = "route_online";
    stamp_params(run, req);
    run["policy"] = req.policy_name;
    run["messages"] = static_cast<std::uint64_t>(m.size());
    run["lambda"] = lambda;
    run["cycles"] = res.delivery_cycles;
    run["attempts"] = res.total_attempts;
    run["losses"] = res.total_losses;
    run["gave_up"] = res.gave_up;
    run["messages_given_up"] = res.messages_given_up;
    run["backoffs"] = res.total_backoffs;
    run["verified"] = !res.gave_up && res.messages_given_up == 0;
    return run;
  }

  ft::Schedule schedule;
  {
    Tracer::Scope s(tr, "core.schedule", job);
    if (req.scheduler == "offline") {
      schedule = ft::schedule_offline(*topo, *caps, m);
    } else if (req.scheduler == "packed") {
      schedule = ft::schedule_offline_packed(*topo, *caps, m);
    } else {
      schedule = ft::schedule_greedy(*topo, *caps, m);
    }
  }
  bool verified = false;
  {
    Tracer::Scope s(tr, "core.verify", job);
    verified = ft::verify_schedule(*topo, *caps, m, schedule);
  }
  ft::ReplayResult replay;
  {
    Tracer::Scope s(tr, "core.replay", job);
    replay = ft::replay_schedule(*topo, *caps, schedule);
  }
  double lambda = 0.0;
  {
    Tracer::Scope s(tr, "core.load_factor", job);
    lambda = ft::load_factor(*topo, *caps, m);
  }
  Tracer::Scope s(tr, "ftd.payload", job);
  run["kind"] = "replay_offline";
  stamp_params(run, req);
  run["scheduler"] = req.scheduler;
  run["messages"] = static_cast<std::uint64_t>(m.size());
  run["lambda"] = lambda;
  run["cycles"] = replay.cycles;
  run["delivered"] = replay.delivered;
  run["capacity_violations"] = replay.capacity_violations;
  run["verified"] = verified;
  return run;
}

}  // namespace ftb
