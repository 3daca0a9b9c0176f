// The two ftd workloads: a spawned daemon driven over loopback by one
// generator thread in a closed loop, every result checked byte for byte
// against an in-process run_job() of the same request.
//
//   ftd_small  up to nproc connections, a window of kSmallWindow (16)
//              outstanding requests on each; ftd_loadgen's six-variant
//              small mix (n 16..64, every policy, one packed replay).
//              Jobs cost tens of microseconds, so framing, JSON, the poll
//              loop and the completion handoff dominate.
//   ftd_heavy  up to nproc connections, one job in flight on each,
//              alternating contended route_online (n 8192, w 128,
//              random-perm; oblivious, adaptive, rlb) and replay_offline
//              (n 16384, random-perm; offline, packed, greedy). Engine and
//              schedulers dominate; daemon overhead is noise.
//
// The traced run repeats a shorter live loop for the daemon-side layers
// (queue wait, run, transport, daemon CPU) and then replays the job pool
// in-process with a span around every public call.
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>
#include <fcntl.h>
#include <poll.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <numeric>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "bench.hpp"
#include "ftd/client.hpp"
#include "ftd/protocol.hpp"
#include "job_replay.hpp"
#include "obs/json.hpp"
#include "util/prng.hpp"

namespace ftb {

namespace {

constexpr std::size_t kSmallWindow = 16;
constexpr int kSpawnReps = 31;  // setup_s is the median spawn
constexpr double kWarmupSeconds = 1.0;
constexpr int kStallTimeoutMs = 30000;  // no record for this long = hang
constexpr int kMaxReplayPasses = 40;    // bounds the span file
constexpr double kSliceSeconds = 0.5;   // throughput-over-time resolution

/// One distinct job of a workload's pool, with the payload the daemon
/// must return for it.
struct PoolJob {
  std::string body;           ///< the "job" object
  ft::ftd::JobRequest req;    ///< parsed in-process (traced replay)
  std::string expected_run;   ///< run_job() payload, dump(0)
  /// Bytes following the id in a result record, up to the timing
  /// numbers: `","run":<payload>,"timing":{"queue_seconds":`.
  std::string expected_tail;
  bool valid = false;         ///< payload is a verified, complete run
};

struct Workload {
  std::vector<PoolJob> pool;
  std::size_t window = 1;
  /// ftd_heavy alternates route_online (first half of the pool) and
  /// replay_offline (second half); ftd_small draws from the whole pool.
  bool alternate = false;
};

std::string request_line(const std::string& id, const std::string& body) {
  return "{\"schema\":\"ft.ftd/1\",\"id\":\"" + id + "\",\"job\":" + body +
         "}";
}

std::string small_body(std::uint64_t seed, std::size_t variant) {
  const std::string s = std::to_string(seed);
  switch (variant) {
    case 0:
      return "{\"kind\":\"route_online\",\"n\":32,\"workload\":\"transpose\","
             "\"seed\":" + s + "}";
    case 1:
      return "{\"kind\":\"route_online\",\"n\":32,\"workload\":\"random-perm\","
             "\"policy\":\"adaptive\",\"seed\":" + s + "}";
    case 2:
      return "{\"kind\":\"route_online\",\"n\":64,\"workload\":\"bit-reversal\","
             "\"policy\":\"rlb\",\"seed\":" + s + "}";
    case 3:
      return "{\"kind\":\"route_online\",\"n\":16,\"workload\":\"tornado\","
             "\"policy\":\"dmod\",\"seed\":" + s + "}";
    case 4:
      return "{\"kind\":\"replay_offline\",\"n\":64,\"workload\":\"transpose\","
             "\"scheduler\":\"packed\",\"seed\":" + s + "}";
    default:
      return "{\"kind\":\"route_online\",\"n\":64,\"workload\":\"uniform\","
             "\"messages\":256,\"seed\":" + s + "}";
  }
}

/// Builds the pool and its expected payloads (set-up work, untimed).
Workload make_workload(const Options& opt, Outcome& out) {
  Workload wl;
  ft::Rng rng(opt.seed * 0x9e3779b97f4a7c15ull + 0x5eed);
  auto job_seed = [&rng]() { return rng.below(1u << 30); };
  std::vector<std::string> bodies;
  if (opt.workload == "ftd_small") {
    wl.window = kSmallWindow;
    for (int k = 0; k < 16; ++k) {
      const std::uint64_t s = job_seed();
      for (std::size_t v = 0; v < 6; ++v) bodies.push_back(small_body(s, v));
    }
  } else {
    wl.alternate = true;
    constexpr int kSeeds = 3;
    for (const char* policy : {"oblivious", "adaptive", "rlb"}) {
      for (int k = 0; k < kSeeds; ++k) {
        bodies.push_back(
            "{\"kind\":\"route_online\",\"n\":8192,\"w\":128,\"workload\":"
            "\"random-perm\",\"policy\":\"" + std::string(policy) +
            "\",\"seed\":" + std::to_string(job_seed()) + "}");
      }
    }
    for (const char* sched : {"offline", "packed", "greedy"}) {
      for (int k = 0; k < kSeeds; ++k) {
        bodies.push_back(
            "{\"kind\":\"replay_offline\",\"n\":16384,\"workload\":"
            "\"random-perm\",\"scheduler\":\"" + std::string(sched) +
            "\",\"seed\":" + std::to_string(job_seed()) + "}");
      }
    }
  }
  for (const std::string& body : bodies) {
    PoolJob j;
    j.body = body;
    ft::ftd::RequestError err;
    const auto req = ft::ftd::parse_request(request_line("expected", body), err);
    if (!req) {
      out.fail("pool job does not parse: " + err.message);
      wl.pool.push_back(std::move(j));
      continue;
    }
    j.req = *req;
    const ft::JsonValue run = ft::ftd::run_job(j.req);
    j.expected_run = run.dump(0);
    j.expected_tail =
        "\",\"run\":" + j.expected_run + ",\"timing\":{\"queue_seconds\":";
    const auto* verified = run.find("verified");
    const auto* gave_up = run.find("gave_up");
    j.valid = verified != nullptr && verified->is_bool() &&
              verified->as_bool() &&
              (gave_up == nullptr || !gave_up->as_bool());
    if (!j.valid) out.note("pool job is not a verified run: " + body);
    wl.pool.push_back(std::move(j));
  }
  return wl;
}

// ---------------------------------------------------------------------------
// The daemon, observed from outside.

struct ProcSample {
  double cpu_seconds = 0.0;  ///< utime + stime
  double hwm_mib = 0.0;      ///< VmHWM
};

ProcSample sample_proc(pid_t pid) {
  ProcSample s;
  {
    std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
    std::string stat;
    std::getline(in, stat);
    // Fields after the parenthesized command name; utime and stime are
    // fields 14 and 15 of the whole line.
    const auto close = stat.rfind(')');
    if (close != std::string::npos) {
      std::istringstream rest(stat.substr(close + 2));
      std::string field;
      double ticks = 0.0;
      for (int f = 3; f <= 15 && rest >> field; ++f) {
        if (f >= 14) ticks += std::strtod(field.c_str(), nullptr);
      }
      s.cpu_seconds = ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
    }
  }
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      s.hwm_mib = std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return s;
}

/// A spawned ftd process. Killed with the benchmark if it dies (parent
/// death signal), stopped with SIGTERM and reaped on destruction.
class Daemon {
 public:
  Daemon() = default;
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Spawns the daemon and waits for the port it writes after listen().
  bool start(const std::string& path, const std::string& port_file,
             std::string* err) {
    ::unlink(port_file.c_str());
    const pid_t parent = ::getpid();
    const pid_t pid = ::fork();
    if (pid < 0) {
      *err = std::string("fork: ") + std::strerror(errno);
      return false;
    }
    if (pid == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) std::_Exit(127);
      // The benchmark's stdout carries its result; keep the daemon off it.
      const int devnull = ::open("/dev/null", O_WRONLY);
      if (devnull >= 0) ::dup2(devnull, STDOUT_FILENO);
      ::execl(path.c_str(), path.c_str(), "--port", "0", "--port-file",
              port_file.c_str(), "--quiet", static_cast<char*>(nullptr));
      std::_Exit(127);
    }
    pid_ = pid;
    const auto deadline = Clock::now() + std::chrono::seconds(20);
    while (Clock::now() < deadline) {
      std::ifstream pf(port_file);
      std::string text;
      if (std::getline(pf, text) && !pf.eof()) {  // newline-terminated
        const unsigned long p = std::strtoul(text.c_str(), nullptr, 10);
        if (p > 0 && p < 65536) {
          port_ = static_cast<std::uint16_t>(p);
          ::unlink(port_file.c_str());
          return true;
        }
      }
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        *err = "ftd exited during start-up";
        return false;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    *err = "ftd never wrote its port file";
    stop();
    return false;
  }

  /// SIGTERM (graceful drain), bounded wait, then SIGKILL. True iff the
  /// daemon exited with status 0.
  bool stop() {
    if (pid_ < 0) return true;
    ::kill(pid_, SIGTERM);
    int status = 0;
    for (int i = 0; i < 2000; ++i) {
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return WIFEXITED(status) && WEXITSTATUS(status) == 0;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    return false;
  }

  pid_t pid() const { return pid_; }
  std::uint16_t port() const { return port_; }

 private:
  pid_t pid_ = -1;
  std::uint16_t port_ = 0;
};

bool read_hello(ft::ftd::Client& c) {
  std::string line;
  if (!c.read_line(line, 10000)) return false;
  const auto doc = ft::JsonValue::parse(line);
  if (!doc || !doc->is_object()) return false;
  const auto* type = doc->find("type");
  return type != nullptr && type->is_string() && type->as_string() == "hello";
}

// ---------------------------------------------------------------------------
// Closed loop.

struct Pending {
  std::uint32_t job;
  Clock::time_point sent;
};

struct Conn {
  ft::ftd::Client client;
  std::string buf;
  std::size_t pos = 0;
  std::unordered_map<std::string, Pending> pending;
  std::uint64_t next_seq = 0;
  std::size_t index = 0;
  bool open = true;
};

/// Per-job samples taken inside the measured window.
struct Samples {
  std::vector<double> latency;  ///< seconds, request sent → record read
  std::vector<double> queue;    ///< timing.queue_seconds
  std::vector<double> run;      ///< timing.run_seconds
};

class Loop {
 public:
  Loop(const Workload& wl, std::uint64_t seed, Outcome& out)
      : wl_(wl), rng_(seed ^ 0x10adull), out_(out) {}

  bool connect(std::uint16_t port, unsigned connections) {
    conns_ = std::vector<Conn>(connections);  // Conn cannot move
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      std::string err;
      if (!conns_[i].client.connect(port, &err) ||
          !read_hello(conns_[i].client)) {
        out_.fail("connect failed: " + err);
        return false;
      }
      conns_[i].index = i;
    }
    return true;
  }

  /// Runs the loop: `warmup` seconds unrecorded, then `seconds` recorded,
  /// then stops sending and drains every outstanding request. Returns
  /// false on a hang or a dead connection.
  bool run(double warmup, double seconds, Samples& s) {
    for (Conn& c : conns_) {
      for (std::size_t k = 0; k < wl_.window; ++k) send(c);
    }
    const auto start = Clock::now();
    t0_ = start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(warmup));
    t1_ = t0_ + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    sending_ = true;
    auto last_progress = Clock::now();
    std::vector<pollfd> fds(conns_.size());
    for (;;) {
      const auto now = Clock::now();
      if (sending_ && now >= t1_) sending_ = false;
      if (!sending_ && outstanding() == 0) break;
      if (now - last_progress > std::chrono::milliseconds(kStallTimeoutMs)) {
        for (Conn& c : conns_) {
          for (std::size_t k = 0; k < c.pending.size(); ++k) {
            out_.fail("timeout: no result within 30 s");
          }
          c.pending.clear();
        }
        return false;
      }
      for (std::size_t i = 0; i < conns_.size(); ++i) {
        fds[i] = {conns_[i].open ? conns_[i].client.fd() : -1, POLLIN, 0};
      }
      const int rc = ::poll(fds.data(), fds.size(), 100);
      if (rc < 0 && errno != EINTR) return false;
      for (std::size_t i = 0; i < conns_.size(); ++i) {
        if (fds[i].revents == 0) continue;
        if (read_records(conns_[i], s) > 0) last_progress = Clock::now();
      }
      for (Conn& c : conns_) {
        if (!c.open && !c.pending.empty()) {
          for (std::size_t k = 0; k < c.pending.size(); ++k) {
            out_.fail("connection closed with requests outstanding");
          }
          c.pending.clear();
        }
      }
    }
    return true;
  }

  std::uint64_t completed_in_window() const { return in_window_; }
  /// Verified results over the whole loop (warm-up and drain included).
  std::uint64_t completed() const { return completed_; }
  const std::vector<double>& slices() const { return slices_; }
  double window_seconds() const { return seconds_between(t0_, t1_); }

 private:
  std::size_t outstanding() const {
    std::size_t n = 0;
    for (const Conn& c : conns_) n += c.pending.size();
    return n;
  }

  std::uint32_t pick() {
    const std::size_t n = wl_.pool.size();
    if (!wl_.alternate) return static_cast<std::uint32_t>(rng_.below(n));
    const std::size_t half = n / 2;
    const std::size_t base = (picks_++ % 2 == 0) ? 0 : half;
    return static_cast<std::uint32_t>(base + rng_.below(half));
  }

  void send(Conn& c) {
    const std::uint32_t job = pick();
    std::string id = std::to_string(c.index) + "-" + std::to_string(c.next_seq++);
    const std::string line = request_line(id, wl_.pool[job].body);
    ++out_.attempted;
    c.pending.emplace(std::move(id), Pending{job, Clock::now()});
    if (!c.client.send_line(line)) c.open = false;
  }

  /// Reads what the socket has and handles every complete record.
  std::size_t read_records(Conn& c, Samples& s) {
    char chunk[65536];
    const long n = ::read(c.client.fd(), chunk, sizeof chunk);
    if (n <= 0) {
      if (n < 0 && (errno == EAGAIN || errno == EINTR)) return 0;
      c.open = false;
      return 0;
    }
    const auto now = Clock::now();
    c.buf.append(chunk, static_cast<std::size_t>(n));
    std::size_t handled = 0;
    for (;;) {
      const std::size_t nl = c.buf.find('\n', c.pos);
      if (nl == std::string::npos) break;
      handle_record(c, std::string_view(c.buf).substr(c.pos, nl - c.pos), now,
                    s);
      c.pos = nl + 1;
      ++handled;
    }
    if (c.pos == c.buf.size()) {
      c.buf.clear();
      c.pos = 0;
    } else if (c.pos > sizeof chunk) {
      c.buf.erase(0, c.pos);
      c.pos = 0;
    }
    return handled;
  }

  void handle_record(Conn& c, std::string_view line, Clock::time_point now,
                     Samples& s) {
    double queue = 0.0;
    double run = 0.0;
    std::string id;
    const bool ok = check_fast(c, line, id, queue, run) ||
                    check_slow(c, line, id, queue, run);
    const auto it = c.pending.find(id);
    if (it == c.pending.end()) {
      out_.fail("record for no outstanding request: " +
                std::string(line.substr(0, 160)));
      return;
    }
    const Pending p = it->second;
    c.pending.erase(it);
    if (!ok) {
      out_.fail("wrong result for " + wl_.pool[p.job].body + ": " +
                std::string(line.substr(0, 240)));
    } else if (!wl_.pool[p.job].valid) {
      out_.fail("unverified run: " + wl_.pool[p.job].body);
    } else {
      ++completed_;
      if (now >= t0_ && now < t1_) {
        ++in_window_;
        const auto slice = static_cast<std::size_t>(
            seconds_between(t0_, now) / kSliceSeconds);
        if (slices_.size() <= slice) slices_.resize(slice + 1);
        ++slices_[slice];
        s.latency.push_back(seconds_between(p.sent, now));
        s.queue.push_back(queue);
        s.run.push_back(run);
      }
    }
    if (sending_ && c.open) send(c);
  }

  /// Byte comparison against the expected record layout: the common
  /// case, with no JSON parse on the generator thread.
  bool check_fast(const Conn& c, std::string_view line, std::string& id,
                  double& queue, double& run) const {
    static constexpr std::string_view kHead =
        "{\"schema\":\"ft.ftd/1\",\"type\":\"result\",\"id\":\"";
    static constexpr std::string_view kRun = ",\"run_seconds\":";
    if (line.substr(0, kHead.size()) != kHead) return false;
    const std::size_t id_end = line.find('"', kHead.size());
    if (id_end == std::string_view::npos) return false;
    id.assign(line.substr(kHead.size(), id_end - kHead.size()));
    const auto it = c.pending.find(id);
    if (it == c.pending.end()) return false;
    const std::string& tail = wl_.pool[it->second.job].expected_tail;
    if (line.substr(id_end, tail.size()) != tail) return false;
    const std::string rest(line.substr(id_end + tail.size()));
    char* end = nullptr;
    queue = std::strtod(rest.c_str(), &end);
    if (end == rest.c_str() || std::string_view(end).substr(0, kRun.size()) != kRun) {
      return false;
    }
    const char* run_at = end + kRun.size();
    run = std::strtod(run_at, &end);
    return end != run_at && std::string_view(end) == "}}";
  }

  /// Full parse: accepts any record layout whose run payload is
  /// byte-identical to the in-process one.
  bool check_slow(const Conn& c, std::string_view line, std::string& id,
                  double& queue, double& run) const {
    const auto doc = ft::JsonValue::parse(line);
    if (!doc || !doc->is_object()) return false;
    const auto* idv = doc->find("id");
    if (idv == nullptr || !idv->is_string()) return false;
    id = idv->as_string();
    const auto* type = doc->find("type");
    if (type == nullptr || !type->is_string() ||
        type->as_string() != "result") {
      return false;
    }
    const auto it = c.pending.find(id);
    const auto* payload = doc->find("run");
    const auto* timing = doc->find("timing");
    if (it == c.pending.end() || payload == nullptr || timing == nullptr) {
      return false;
    }
    if (payload->dump(0) != wl_.pool[it->second.job].expected_run) return false;
    const auto* q = timing->find("queue_seconds");
    const auto* r = timing->find("run_seconds");
    if (q == nullptr || r == nullptr || !q->is_number() || !r->is_number()) {
      return false;
    }
    queue = q->as_double();
    run = r->as_double();
    return true;
  }

  const Workload& wl_;
  ft::Rng rng_;
  Outcome& out_;
  std::vector<Conn> conns_;
  std::uint64_t picks_ = 0;
  bool sending_ = false;
  Clock::time_point t0_{};
  Clock::time_point t1_{};
  std::uint64_t in_window_ = 0;
  std::uint64_t completed_ = 0;
  std::vector<double> slices_;  ///< results per kSliceSeconds of the window
};

double tail_ms(const std::vector<double>& v, double q) {
  return quantile(v, q) * 1e3;
}

/// p99 needs at least ten samples beyond it; report how the tail was
/// taken so a short run cannot pass off a maximum as a p99.
void note_tail(Outcome& out, const char* what, const std::vector<double>& v) {
  std::ostringstream os;
  os << what << ": " << v.size() << " samples, "
     << static_cast<std::size_t>(static_cast<double>(v.size()) * 0.01)
     << " beyond p99" << (v.size() >= 1000 ? "" : " (fewer than 10: p99 unreliable)")
     << ", mean " << (v.empty() ? 0.0 : std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size())) * 1e3
     << " ms, p99.9 " << quantile(v, 0.999) * 1e3 << " ms, max "
     << (v.empty() ? 0.0 : *std::max_element(v.begin(), v.end())) * 1e3 << " ms";
  out.note(os.str());
}

// ---------------------------------------------------------------------------
// Traced in-process replay of the pool.

void replay_pool(const Options& opt, const Workload& wl, double budget,
                 Outcome& out) {
  Tracer tr(true);
  Tracer off(false);
  EngineTally tally;       // first traced pass: simulated counts
  EngineTally scratch;     // later passes
  std::vector<double> traced_pass, plain_pass;
  std::uint64_t allocs = 0, alloc_jobs = 0;
  double replay_total = 0.0, run_job_total = 0.0;
  const auto start = Clock::now();
  std::uint64_t job_id = 0;
  for (int pass = 0;
       pass < 2 || (pass < kMaxReplayPasses &&
                    seconds_between(start, Clock::now()) < budget);
       ++pass) {
    // Untraced and traced replays of the whole pool, alternating which
    // goes first, give the tracing overhead as paired passes.
    for (int half = 0; half < 2; ++half) {
      const bool traced = (half == 0) == (pass % 2 == 0);
      Tracer& t = traced ? tr : off;
      const auto p0 = Clock::now();
      for (const PoolJob& j : wl.pool) {
        if (!j.valid) continue;
        const std::uint64_t id = job_id++;
        std::optional<Tracer::Scope> root;
        root.emplace(t, "replay", id);
        const ft::JsonValue run =
            replay_job(j.req, t, id, pass == 0 && traced ? tally : scratch);
        const std::uint32_t root_index = root->index();
        root.reset();
        ++out.attempted;
        if (run.dump(0) != j.expected_run) {
          out.fail("in-process replay differs from run_job for " + j.body);
        }
        if (traced) replay_total += tr.duration(root_index);
      }
      (traced ? traced_pass : plain_pass).push_back(
          seconds_between(p0, Clock::now()));
    }
    // The ftd codec and run_job() itself, for the same jobs.
    for (const PoolJob& j : wl.pool) {
      if (!j.valid) continue;
      const std::uint64_t id = job_id++;
      const std::string line = request_line(std::to_string(id), j.body);
      const std::uint64_t a0 = heap_allocs();
      Tracer::Scope root(tr, "job", id);
      ft::ftd::RequestError err;
      std::optional<ft::ftd::JobRequest> req;
      {
        Tracer::Scope s(tr, "ftd.parse_request", id);
        req = ft::ftd::parse_request(line, err);
      }
      ++out.attempted;
      if (!req) {
        out.fail("parse_request rejected " + j.body);
        continue;
      }
      ft::JsonValue run;
      std::uint32_t run_index = 0;
      {
        Tracer::Scope s(tr, "ftd.run_job", id);
        run = ft::ftd::run_job(*req);
        run_index = s.index();
      }
      {
        Tracer::Scope s(tr, "ftd.result_record", id);
        const std::string rec = ft::ftd::result_record(req->id, run, 0.0, 0.0);
        if (rec.empty()) out.fail("empty result record");
      }
      allocs += heap_allocs() - a0;
      ++alloc_jobs;
      run_job_total += tr.spans()[run_index].end - tr.spans()[run_index].start;
      if (run.dump(0) != j.expected_run) {
        out.fail("run_job is not deterministic for " + j.body);
      }
    }
  }

  const auto self = tr.self_times_by_name();
  auto med = [&self](const char* name, double scale) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : median(it->second) * scale;
  };
  // Ledger: what share of each replayed job its named layers cover.
  double covered = 0.0, total = 0.0;
  {
    const auto all = tr.self_times();
    for (std::size_t i = 0; i < tr.spans().size(); ++i) {
      if (std::strcmp(tr.spans()[i].name, "replay") != 0) continue;
      total += tr.duration(static_cast<std::uint32_t>(i));
      covered += tr.duration(static_cast<std::uint32_t>(i)) - all[i];
    }
  }
  out.add("ftd.parse_request_us", med("ftd.parse_request", 1e6), "us");
  out.add("ftd.run_job_us", med("ftd.run_job", 1e6), "us");
  out.add("ftd.result_record_us", med("ftd.result_record", 1e6), "us");
  out.add("ftd.payload_us", med("ftd.payload", 1e6), "us");
  out.add("ftd.allocs_per_job",
          alloc_jobs ? static_cast<double>(allocs) / static_cast<double>(alloc_jobs) : 0.0,
          "count");
  out.add("core.setup_us", med("core.setup", 1e6), "us");
  out.add("core.workload_us", med("core.workload", 1e6), "us");
  out.add("core.load_factor_us", med("core.load_factor", 1e6), "us");
  out.add("core.schedule_ms", med("core.schedule", 1e3), "ms");
  out.add("core.verify_ms", med("core.verify", 1e3), "ms");
  out.add("core.replay_ms", med("core.replay", 1e3), "ms");
  out.add("engine.build_ms", med("engine.build", 1e3), "ms");
  out.add("engine.route_online_ms", med("engine.route_online", 1e3), "ms");
  out.add("engine.ns_per_attempt",
          tally.attempts ? tally.run_seconds * 1e9 / static_cast<double>(tally.attempts) : 0.0,
          "ns");
  out.add("engine.allocs_per_cycle",
          tally.cycles ? static_cast<double>(tally.run_allocs) / static_cast<double>(tally.cycles) : 0.0,
          "count");
  out.add("engine.cycles", static_cast<double>(tally.cycles), "count");
  out.add("engine.attempts", static_cast<double>(tally.attempts), "count");
  out.add("engine.losses", static_cast<double>(tally.losses), "count");
  out.add("engine.delivered_per_attempt",
          tally.attempts ? static_cast<double>(tally.delivered) / static_cast<double>(tally.attempts) : 0.0,
          "ratio");
  out.add("trace_overhead_frac", median(traced_pass) / median(plain_pass) - 1.0,
          "ratio");
  out.add("ledger.coverage", total > 0 ? covered / total : 0.0, "ratio");
  out.add("ledger.replay_over_program",
          run_job_total > 0 ? replay_total / run_job_total : 0.0, "ratio");
  std::ostringstream os;
  os << "replay: " << traced_pass.size() << " traced and " << plain_pass.size()
     << " untraced passes over " << wl.pool.size() << " jobs, "
     << tr.spans().size() << " spans";
  const std::string path = opt.work_dir + "/trace-" + opt.workload + ".jsonl";
  if (tr.write_jsonl(path)) os << ", written to " << path;
  out.note(os.str());
}

}  // namespace

void run_ftd_workload(const Options& opt, Outcome& out) {
  const Workload wl = make_workload(opt, out);
  const unsigned connections = std::min(nproc(), 4u);

  // Set-up: spawn the daemon until its hello arrives, several times.
  const std::string port_file = opt.work_dir + "/ftd.port";
  std::vector<double> setups;
  Daemon daemon;
  ft::ftd::Client probe;
  for (int rep = 0; rep < kSpawnReps; ++rep) {
    if (rep > 0 && !daemon.stop()) out.fail("ftd did not drain cleanly");
    probe.close();
    const auto t0 = Clock::now();
    std::string err;
    if (!daemon.start(opt.ftd_path, port_file, &err) ||
        !probe.connect(daemon.port(), &err) || !read_hello(probe)) {
      ++out.attempted;
      out.fail("ftd start-up failed: " + err);
      return;
    }
    setups.push_back(seconds_between(t0, Clock::now()));
  }
  probe.close();

  Samples samples;
  Loop loop(wl, opt.seed, out);
  const double live = opt.trace ? opt.seconds / 2 : opt.seconds;
  const ProcSample before = sample_proc(daemon.pid());
  if (!loop.connect(daemon.port(), connections) ||
      !loop.run(kWarmupSeconds, live, samples)) {
    out.note("closed loop aborted");
  }
  const ProcSample after = sample_proc(daemon.pid());
  const double jobs = static_cast<double>(loop.completed_in_window());
  if (jobs == 0) out.fail("no verified result inside the measured window");

  // Sustained throughput is the median rate over short slices of the
  // window, so a burst of interference from a shared host moves it less
  // than it moves the window average.
  std::vector<double> rates = loop.slices();
  for (double& r : rates) r /= kSliceSeconds;
  std::ostringstream os;
  os << "closed loop: " << connections << " connections x window " << wl.window
     << ", pool of " << wl.pool.size() << " jobs, " << jobs
     << " verified results in " << loop.window_seconds() << " s ("
     << jobs / loop.window_seconds() << " jobs/s); per " << kSliceSeconds
     << " s slice: min " << quantile(rates, 0.0) << ", max "
     << quantile(rates, 1.0) << " jobs/s";
  out.note(os.str());
  note_tail(out, "latency", samples.latency);

  std::vector<double> transport(samples.latency.size());
  for (std::size_t i = 0; i < transport.size(); ++i) {
    transport[i] = samples.latency[i] - samples.queue[i] - samples.run[i];
  }
  if (!opt.trace) {
    out.add("setup_s", median(setups), "s");
    out.add("jobs_per_s", median(rates), "jobs/s");
    out.add("latency_p50_ms", tail_ms(samples.latency, 0.50), "ms");
    out.add("latency_p99_ms", tail_ms(samples.latency, 0.99), "ms");
    out.add("run_s", median(samples.run), "s");
    out.add("peak_rss_mib", after.hwm_mib, "MiB");
  } else {
    out.add("ftd.queue_wait_p50_ms", tail_ms(samples.queue, 0.50), "ms");
    out.add("ftd.queue_wait_p99_ms", tail_ms(samples.queue, 0.99), "ms");
    out.add("ftd.run_p50_ms", tail_ms(samples.run, 0.50), "ms");
    out.add("ftd.transport_p50_ms", tail_ms(transport, 0.50), "ms");
    out.add("ftd.transport_p99_ms", tail_ms(transport, 0.99), "ms");
    out.add("ftd.daemon_cpu_ms_per_job",
            (after.cpu_seconds - before.cpu_seconds) * 1e3 /
                static_cast<double>(std::max<std::uint64_t>(1, loop.completed())),
            "ms");
  }
  if (!daemon.stop()) out.fail("ftd did not drain cleanly");

  if (opt.trace) replay_pool(opt, wl, opt.seconds / 2, out);
}

}  // namespace ftb
