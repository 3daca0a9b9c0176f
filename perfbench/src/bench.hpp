// Shared pieces of the ftbench harness: run options, the metric/outcome
// record every workload fills, order statistics, the in-memory span
// recorder of the traced run, and the allocation counter.
//
// The benchmark measures every layer from outside: spans wrap calls into
// the public functions of src/ftd, src/core, src/engine and src/obs, and
// the daemon is observed through its socket and /proc. Nothing here adds
// instrumentation inside the program.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ftb {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string ftd_path;  ///< daemon binary (ftd workloads)
  std::string work_dir;  ///< scratch directory for port files and traces
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one run reports: operation counts, metrics in emission
/// order, and human-readable notes printed before the result line.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;
  std::vector<std::string> failures;  ///< first few failure reasons

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string line) { notes.push_back(std::move(line)); }
  /// Counts one failed operation and keeps its reason (first 20).
  void fail(const std::string& why) {
    ++failed;
    if (failures.size() < 20) failures.push_back(why);
  }
};

/// The q-quantile (0..1) by linear interpolation; 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// Heap allocations made so far by this process (operator new calls).
std::uint64_t heap_allocs();

/// CPUs this process may run on (what `nproc` prints).
unsigned nproc();

/// Peak resident set of this process, MiB (VmHWM).
double self_peak_rss_mib();

/// In-memory span recorder. A span holds a name, its start and end, the
/// span that was open when it began (its parent) and the id of the job
/// it belongs to. Spans are kept in memory and written out after the
/// measured work; a layer's self time is its duration minus the time its
/// children cover. A disabled tracer records nothing, so the same code
/// path serves the untraced reference passes.
class Tracer {
 public:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  struct Span {
    const char* name;
    std::uint32_t parent;
    std::uint64_t job;
    double start;  ///< seconds since the tracer was created
    double end;
    /// Interval reported by the program (an engine phase total) rather
    /// than timed here; it ends when recorded, and only its length counts.
    bool derived;
  };

  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  class Scope {
   public:
    Scope(Tracer& t, const char* name, std::uint64_t job);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Index of the span (kNone when the tracer is disabled).
    std::uint32_t index() const { return index_; }

   private:
    Tracer& t_;
    std::uint32_t index_ = kNone;
    std::uint32_t saved_parent_ = kNone;
  };

  /// Records a closed span under the currently open one, for intervals
  /// measured by the program itself (the engine's phase profile).
  void add_child(const char* name, std::uint64_t job, double seconds);

  const std::vector<Span>& spans() const { return spans_; }
  double duration(std::uint32_t i) const {
    return spans_[i].end - spans_[i].start;
  }

  /// Self time of every span, indexed like spans().
  std::vector<double> self_times() const;
  /// Self times grouped by span name.
  std::map<std::string, std::vector<double>> self_times_by_name() const;
  /// Writes one JSON object per span; false on I/O failure.
  bool write_jsonl(const std::string& path) const;

 private:
  double now() const { return seconds_between(epoch_, Clock::now()); }

  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::uint32_t open_ = kNone;
};

/// Workload entry points (ftd_bench.cpp, scale_bench.cpp).
void run_ftd_workload(const Options& opt, Outcome& out);
void run_scale_workload(const Options& opt, Outcome& out);

}  // namespace ftb
