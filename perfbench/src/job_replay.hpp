// In-process replay of what a job runs, one span per public call. The
// traced run uses it to split a job's or a scale run's time into layers;
// callers check that the replay reproduces the program's own results
// (run_job()'s payload, route_online_stream's counts), so a replay that
// drifted from the code it mirrors fails the benchmark instead of
// reporting layers of some other computation.
#pragma once

#include <cstdint>

#include "bench.hpp"
#include "core/online_router.hpp"
#include "ftd/protocol.hpp"
#include "obs/json.hpp"

namespace ftb {

/// Engine work done by spanned routes: simulated counts plus the host
/// cost of the CycleEngine::run_stream calls.
struct EngineTally {
  std::uint64_t cycles = 0;
  std::uint64_t attempts = 0;
  std::uint64_t losses = 0;
  std::uint64_t delivered = 0;
  double run_seconds = 0.0;      ///< inside run_stream
  std::uint64_t run_allocs = 0;  ///< heap allocations inside run_stream
};

/// route_online_stream() composed from the public engine API: span
/// engine.build around fat_tree_channel_graph + the CycleEngine
/// constructor (which starts the pool in parallel mode), and span
/// engine.route_online around run_stream. With opts.time_phases the
/// engine's phase profile becomes derived child spans engine.up,
/// engine.spine, engine.down and engine.coord.
ft::OnlineRoutingResult route_stream_spanned(
    const ft::FatTreeTopology& topo, const ft::CapacityProfile& caps,
    ft::MessageStream& messages, double lambda_hint, ft::Rng& rng,
    const ft::OnlineRouterOptions& opts, Tracer& tr, std::uint64_t job,
    EngineTally& tally);

/// run_job() for a route_online or replay_offline request, composed from
/// the core and engine calls it makes, with a span around each: core.setup,
/// core.workload, core.load_factor, engine.build, engine.route_online,
/// core.schedule, core.verify, core.replay and ftd.payload. Returns the
/// "run" payload run_job() would.
ft::JsonValue replay_job(const ft::ftd::JobRequest& req, Tracer& tr,
                         std::uint64_t job, EngineTally& tally);

}  // namespace ftb
