#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <fstream>
#include <new>
#include <sstream>

#include "bench.hpp"

// ---------------------------------------------------------------------------
// Heap-allocation counter, benchmark binary only (the bench_micro pattern):
// plain, array and nothrow operator new become a counting malloc
// passthrough. The over-aligned variants are left alone; nothing on the
// measured paths takes them, so aligned new still pairs with aligned
// delete. The library code linked into this binary allocates through
// these too, which is what makes per-job and per-cycle counts possible.

namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
void* counted_alloc(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size != 0 ? size : 1);
}
}  // namespace

// GCC's -Wmismatched-new-delete pairs new-expressions with the free()
// inside these deletes without seeing that the replaced operator new is a
// malloc passthrough, so the pairing is in fact correct.
#if defined(__GNUC__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t& t) noexcept {
  return ::operator new(size, t);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
#if defined(__GNUC__)
#pragma GCC diagnostic pop
#endif

namespace ftb {

std::uint64_t heap_allocs() {
  return g_heap_allocs.load(std::memory_order_relaxed);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

unsigned nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  const int n = CPU_COUNT(&set);
  return n > 0 ? static_cast<unsigned>(n) : 1;
}

double self_peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// ---------------------------------------------------------------------------
// Tracer

Tracer::Scope::Scope(Tracer& t, const char* name, std::uint64_t job) : t_(t) {
  if (!t_.enabled_) return;
  index_ = static_cast<std::uint32_t>(t_.spans_.size());
  saved_parent_ = t_.open_;
  t_.spans_.push_back({name, t_.open_, job, t_.now(), 0.0, false});
  t_.open_ = index_;
}

Tracer::Scope::~Scope() {
  if (index_ == kNone) return;
  t_.spans_[index_].end = t_.now();
  t_.open_ = saved_parent_;
}

void Tracer::add_child(const char* name, std::uint64_t job, double seconds) {
  if (!enabled_) return;
  const double end = now();
  spans_.push_back({name, open_, job, end - seconds, end, true});
}

std::vector<double> Tracer::self_times() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) self[i] = duration(i);
  for (const Span& s : spans_) {
    if (s.parent != kNone) self[s.parent] -= s.end - s.start;
  }
  for (double& x : self) x = std::max(x, 0.0);
  return self;
}

std::map<std::string, std::vector<double>> Tracer::self_times_by_name() const {
  const auto self = self_times();
  std::map<std::string, std::vector<double>> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].name].push_back(self[i]);
  }
  return out;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  os.precision(9);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << "{\"span\":" << i << ",\"name\":\"" << s.name << "\",\"parent\":";
    if (s.parent == kNone) {
      os << "null";
    } else {
      os << s.parent;
    }
    os << ",\"job\":" << s.job << ",\"start_s\":" << s.start
       << ",\"end_s\":" << s.end << ",\"derived\":"
       << (s.derived ? "true" : "false") << "}\n";
  }
  return static_cast<bool>(os.flush());
}

}  // namespace ftb
