// ftbench — the repository's benchmark harness (run it through
// perfbench/run.py, which builds it and the daemon first).
//
//   ftbench --workload ftd_small|ftd_heavy|scale_contended --seed N
//           --seconds S --trace 0|1 --ftd PATH --work-dir DIR
//           [--git-sha REV] [--src-digest HEX]
//
// Prints an identity line, notes, one `metric <name> = <value> <unit>`
// line per metric, and as its last line one JSON object:
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
// Exits 1 when any operation failed its check.
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>

#include "bench.hpp"
#include "obs/json.hpp"
#include "obs/run_report.hpp"
#include "util/parse.hpp"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: ftbench --workload ftd_small|ftd_heavy|scale_contended "
               "--seed N --seconds S --trace 0|1 --ftd PATH --work-dir DIR "
               "[--git-sha REV] [--src-digest HEX]\n");
}

struct Identity {
  std::string git_sha = "unknown";
  std::string src_digest = "unknown";
};

bool parse(int argc, char** argv, ftb::Options& opt, Identity& who) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (v == nullptr) return false;
    ++i;
    if (arg == "--workload") {
      opt.workload = v;
    } else if (arg == "--seed") {
      if (!ft::parse_u64(v, opt.seed)) return false;
    } else if (arg == "--seconds") {
      std::uint64_t s = 0;
      if (!ft::parse_u64(v, s) || s == 0 || s > 3600) return false;
      opt.seconds = static_cast<double>(s);
    } else if (arg == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) return false;
      opt.trace = v[0] == '1';
    } else if (arg == "--ftd") {
      opt.ftd_path = v;
    } else if (arg == "--work-dir") {
      opt.work_dir = v;
    } else if (arg == "--git-sha") {
      who.git_sha = v;
    } else if (arg == "--src-digest") {
      who.src_digest = v;
    } else {
      return false;
    }
  }
  const bool ftd = opt.workload == "ftd_small" || opt.workload == "ftd_heavy";
  if (!ftd && opt.workload != "scale_contended") return false;
  if (ftd && opt.ftd_path.empty()) return false;
  return !opt.work_dir.empty();
}

}  // namespace

int main(int argc, char** argv) {
  ftb::Options opt;
  Identity who;
  if (!parse(argc, argv, opt, who)) {
    usage();
    return 2;
  }

  const std::string build_type = FTB_BUILD_TYPE;
  ft::JsonValue id = ft::JsonValue::object();
  id["workload"] = opt.workload;
  id["seed"] = opt.seed;
  id["seconds"] = opt.seconds;
  id["trace"] = opt.trace;
  id["git_sha"] = who.git_sha;
  id["src_digest"] = who.src_digest;
  id["hardware_threads"] = ft::host_hardware_threads();
  id["nproc"] = ftb::nproc();
  id["compiler"] = FTB_COMPILER;
  id["build_type"] = build_type;
  id["release_build"] = build_type == "Release";
  std::cout << "identity " << id.dump(0) << "\n";
  if (build_type != "Release") {
    std::cout << "WARNING: build type " << build_type
              << " is not Release; timings are not comparable\n";
  }

  ftb::Outcome out;
  if (opt.workload == "scale_contended") {
    ftb::run_scale_workload(opt, out);
  } else {
    ftb::run_ftd_workload(opt, out);
  }

  for (const auto& n : out.notes) std::cout << "note " << n << "\n";
  for (const auto& f : out.failures) std::cout << "FAILED " << f << "\n";
  ft::JsonValue metrics = ft::JsonValue::object();
  for (const auto& m : out.metrics) {
    std::printf("metric %s = %.9g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
    ft::JsonValue& entry = metrics[m.name];
    entry["value"] = m.value;
    entry["unit"] = m.unit;
  }
  std::fflush(stdout);
  const double failed_frac =
      out.attempted ? static_cast<double>(out.failed) /
                          static_cast<double>(out.attempted)
                    : 1.0;
  std::cout << "metric failed_frac = " << failed_frac << " ratio ("
            << out.failed << " of " << out.attempted << " operations)\n";

  const bool correct = out.failed == 0 && out.attempted > 0;
  ft::JsonValue result = ft::JsonValue::object();
  result["correct"] = correct;
  result["attempted"] = out.attempted;
  result["failed"] = out.failed;
  result["metrics"] = std::move(metrics);
  std::cout << result.dump(0) << std::endl;
  return correct ? 0 : 1;
}
