// scale_contended: one large contended simulation in-process, the way a
// researcher runs ftsim or E17. route_online_stream routes a random
// permutation of 2^18 leaves through a universal fat-tree of root
// capacity 1024 (λ ≈ 121, so most attempts lose arbitration and retry)
// on the subtree-sharded executor. The ftd daemon and the offline
// schedulers do nothing here.
//
// The executor gets nproc/2 threads. Each cycle waits for its slowest
// shard, so with every CPU busy one descheduled vCPU stalls the whole
// sweep: on a shared 4-vCPU host, interleaved runs spread (IQR/median)
// 0.17-0.33 with 4 threads against 0.06-0.13 with 2.
#include <algorithm>
#include <cmath>
#include <optional>
#include <sstream>

#include "bench.hpp"
#include "core/capacity.hpp"
#include "core/load.hpp"
#include "core/online_router.hpp"
#include "core/topology.hpp"
#include "core/traffic.hpp"
#include "job_replay.hpp"
#include "obs/telemetry.hpp"

namespace ftb {

namespace {

constexpr std::uint32_t kLeaves = 1u << 18;
constexpr std::uint64_t kRootCapacity = 1024;
constexpr int kSetupReps = 11;
constexpr int kMinReps = 3;
constexpr int kTracedRounds = 3;

/// What must repeat exactly across runs of one seed.
struct Counts {
  std::uint64_t cycles = 0;
  std::uint64_t attempts = 0;
  std::uint64_t losses = 0;
  std::uint64_t delivered = 0;
  bool operator==(const Counts&) const = default;
};

Counts counts_of(const ft::OnlineRoutingResult& r) {
  Counts c{r.delivery_cycles, r.total_attempts, r.total_losses, 0};
  for (const std::uint32_t d : r.delivered_per_cycle) c.delivered += d;
  return c;
}

class Scale {
 public:
  Scale(const Options& opt, Outcome& out) : opt_(opt), out_(out) {}

  /// Topology, capacities, message stream and the stream's exact load
  /// factor λ(M), timed kSetupReps times. λ sets the run's give-up
  /// horizon and bounds its cycle count from below (checked on every
  /// run). Without it set-up is ~1 ms of permutation shuffle whose time
  /// flips between two modes from one process to the next.
  void set_up() {
    std::vector<double> load_factor;
    for (int rep = 0; rep < kSetupReps; ++rep) {
      const auto t0 = Clock::now();
      topo_.emplace(kLeaves);
      caps_.emplace(ft::CapacityProfile::universal(*topo_, kRootCapacity));
      const auto t1 = Clock::now();
      ft::Rng gen(opt_.seed);
      ft::RandomPermutationStream stream(kLeaves, gen);
      ft::Rng same(opt_.seed);
      const ft::MessageSet m = ft::random_permutation_traffic(kLeaves, same);
      const auto t2 = Clock::now();
      lambda_ = ft::load_factor(*topo_, *caps_, m);
      const auto t3 = Clock::now();
      setup_.push_back(seconds_between(t0, t3));
      core_setup_.push_back(seconds_between(t0, t1));
      core_workload_.push_back(seconds_between(t1, t2));
      load_factor.push_back(seconds_between(t2, t3));
    }
    load_factor_s_ = median(load_factor);
  }

  ft::OnlineRouterOptions options(bool parallel) const {
    ft::OnlineRouterOptions o;
    o.parallel = parallel;
    o.threads = parallel ? std::max(1u, nproc() / 2) : 0;
    return o;
  }

  /// One route_online_stream call on a fresh stream; returns its wall
  /// time and checks its result.
  double route(const ft::OnlineRouterOptions& o, const char* what) {
    ft::Rng gen(opt_.seed);
    ft::RandomPermutationStream stream(kLeaves, gen);
    ft::Rng rng(opt_.seed ^ 0x5ca1eull);
    const auto t0 = Clock::now();
    const auto r = ft::route_online_stream(*topo_, *caps_, stream, lambda_, rng, o);
    const double secs = seconds_between(t0, Clock::now());
    check(r, what);
    return secs;
  }

  /// The same call composed from the engine API with spans.
  double route_traced(Tracer& tr, std::uint64_t job, EngineTally& tally) {
    ft::Rng gen(opt_.seed);
    ft::RandomPermutationStream stream(kLeaves, gen);
    ft::Rng rng(opt_.seed ^ 0x5ca1eull);
    auto o = options(true);
    o.time_phases = true;
    std::optional<ft::OnlineRoutingResult> r;
    std::uint32_t root = 0;
    {
      Tracer::Scope s(tr, "run", job);
      r.emplace(route_stream_spanned(*topo_, *caps_, stream, lambda_, rng, o,
                                     tr, job, tally));
      root = s.index();
    }
    check(*r, "traced");
    phases_.push_back(r->phases);
    return tr.duration(root);
  }

  void check(const ft::OnlineRoutingResult& r, const char* what) {
    ++out_.attempted;
    const Counts c = counts_of(r);
    std::ostringstream why;
    if (r.gave_up || r.messages_given_up != 0) {
      why << what << " run gave up";
    } else if (c.delivered != kLeaves) {
      why << what << " run delivered " << c.delivered << " of " << kLeaves;
    } else if (static_cast<double>(c.cycles) < std::ceil(lambda_)) {
      why << what << " run took " << c.cycles << " cycles, below λ = " << lambda_;
    } else if (reference_ && !(c == *reference_)) {
      why << what << " run counts differ: cycles " << c.cycles << " attempts "
          << c.attempts << " losses " << c.losses;
    }
    if (!why.str().empty()) {
      out_.fail(why.str());
    } else if (!reference_) {
      reference_ = c;
    }
  }

  void untraced() {
    const auto par = options(true);
    route(par, "warm-up");
    if (!reference_) return;
    // One run's peak, as a user running the simulation once sees it.
    const double peak_rss = self_peak_rss_mib();
    std::vector<double> reps;
    double total = 0.0;
    const auto start = Clock::now();
    while (static_cast<int>(reps.size()) < kMinReps ||
           seconds_between(start, Clock::now()) < opt_.seconds) {
      reps.push_back(route(par, "timed"));
      total += reps.back();
    }
    std::ostringstream os;
    os << "scale_contended: n=" << kLeaves << " w=" << kRootCapacity
       << " lambda=" << lambda_ << ", " << reps.size() << " timed runs on "
       << par.threads << " threads, cycles=" << reference_->cycles
       << " attempts=" << reference_->attempts << "; run times (s):";
    for (const double r : reps) os << " " << r;
    out_.note(os.str());
    out_.add("setup_s", median(setup_), "s");
    out_.add("jobs_per_s", static_cast<double>(reps.size()) / total, "jobs/s");
    out_.add("latency_p50_ms", median(reps) * 1e3, "ms");
    out_.add("run_s", median(reps), "s");
    out_.add("peak_rss_mib", peak_rss, "MiB");
  }

  void traced() {
    const auto par = options(true);
    route(par, "warm-up");
    if (!reference_) return;
    Tracer tr(true);
    EngineTally tally;
    std::vector<double> plain, spanned, probe_ratio;
    for (int round = 0; round < kTracedRounds; ++round) {
      // Rotate the order of the three kinds of run so drift on a shared
      // host does not land on one of them.
      double p = 0.0, s = 0.0, t = 0.0;
      for (int k = 0; k < 3; ++k) {
        switch ((round + k) % 3) {
          case 0:
            p = route(par, "untraced");
            break;
          case 1:
            s = route_traced(tr, static_cast<std::uint64_t>(round), tally);
            break;
          default: {
            ft::TelemetryOptions topts;
            topts.every_k = 4;
            ft::TelemetryProbe probe(topts);
            auto o = par;
            o.observer = &probe;
            t = route(o, "telemetry");
            break;
          }
        }
      }
      plain.push_back(p);
      spanned.push_back(s);
      probe_ratio.push_back(t / p - 1.0);
    }
    const double serial = route(options(false), "serial");

    const auto self = tr.self_times_by_name();
    auto med = [&self](const char* name) {
      const auto it = self.find(name);
      return it == self.end() ? 0.0 : median(it->second);
    };
    std::vector<double> up, spine, down, coord, sf;
    for (const auto& ph : phases_) {
      up.push_back(ph.up_seconds);
      spine.push_back(ph.spine_seconds + ph.spine_parallel_seconds);
      down.push_back(ph.down_seconds);
      coord.push_back(ph.coord_seconds);
      sf.push_back(ph.serial_fraction());
    }
    double covered = 0.0, total = 0.0;
    const auto all = tr.self_times();
    for (std::size_t i = 0; i < tr.spans().size(); ++i) {
      if (tr.spans()[i].parent != Tracer::kNone) continue;
      total += tr.duration(static_cast<std::uint32_t>(i));
      covered += tr.duration(static_cast<std::uint32_t>(i)) - all[i];
    }
    const Counts& c = *reference_;
    out_.add("core.setup_us", median(core_setup_) * 1e6, "us");
    out_.add("core.workload_us", median(core_workload_) * 1e6, "us");
    out_.add("core.load_factor_us", load_factor_s_ * 1e6, "us");
    out_.add("engine.build_ms", med("engine.build") * 1e3, "ms");
    out_.add("engine.route_online_ms", med("engine.route_online") * 1e3, "ms");
    out_.add("engine.ns_per_attempt",
             tally.run_seconds * 1e9 / static_cast<double>(tally.attempts), "ns");
    out_.add("engine.up_s", median(up), "s");
    out_.add("engine.spine_s", median(spine), "s");
    out_.add("engine.down_s", median(down), "s");
    out_.add("engine.coord_s", median(coord), "s");
    out_.add("engine.serial_fraction", median(sf), "ratio");
    out_.add("engine.parallel_speedup", serial / median(plain), "ratio");
    out_.add("engine.allocs_per_cycle",
             static_cast<double>(tally.run_allocs) / static_cast<double>(tally.cycles),
             "count");
    out_.add("engine.cycles", static_cast<double>(c.cycles), "count");
    out_.add("engine.attempts", static_cast<double>(c.attempts), "count");
    out_.add("engine.losses", static_cast<double>(c.losses), "count");
    out_.add("engine.delivered_per_attempt",
             static_cast<double>(c.delivered) / static_cast<double>(c.attempts),
             "ratio");
    out_.add("obs.telemetry_overhead_frac", median(probe_ratio), "ratio");
    out_.add("trace_overhead_frac", median(spanned) / median(plain) - 1.0,
             "ratio");
    out_.add("ledger.coverage", total > 0 ? covered / total : 0.0, "ratio");
    out_.add("ledger.replay_over_program", median(spanned) / median(plain),
             "ratio");
    std::ostringstream os;
    os << "traced: " << kTracedRounds << " rounds of untraced/traced/telemetry "
       << "runs, serial run " << serial << " s";
    const std::string path = opt_.work_dir + "/trace-" + opt_.workload + ".jsonl";
    if (tr.write_jsonl(path)) os << ", spans written to " << path;
    out_.note(os.str());
  }

 private:
  const Options& opt_;
  Outcome& out_;
  std::optional<ft::FatTreeTopology> topo_;
  std::optional<ft::CapacityProfile> caps_;
  double lambda_ = 0.0;
  double load_factor_s_ = 0.0;
  std::vector<double> setup_, core_setup_, core_workload_;
  std::vector<ft::EnginePhaseProfile> phases_;
  std::optional<Counts> reference_;
};

}  // namespace

void run_scale_workload(const Options& opt, Outcome& out) {
  Scale s(opt, out);
  s.set_up();
  if (opt.trace) {
    s.traced();
  } else {
    s.untraced();
  }
}

}  // namespace ftb
