#include "engine/engine.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <memory>
#include <type_traits>
#include <utility>

#include "engine/channel_scan.hpp"
#include "engine/chunked_ring.hpp"
#include "util/check.hpp"
#include "util/prng.hpp"

// Inlining control for the hot path; each use says why.
#if defined(__GNUC__) || defined(__clang__)
#define FT_ALWAYS_INLINE __attribute__((always_inline))
#define FT_NOINLINE __attribute__((noinline))
#else
#define FT_ALWAYS_INLINE
#define FT_NOINLINE
#endif

namespace ft {
namespace {

/// Independent arbitration stream per (run seed, cycle, channel): no
/// random decision depends on the order channels are resolved in, which
/// is what makes parallel mode bit-identical to serial mode.
std::uint64_t arbitration_seed(std::uint64_t seed, std::uint32_t cycle,
                               std::uint32_t channel) {
  SplitMix64 sm(seed ^ (static_cast<std::uint64_t>(cycle) << 32) ^ channel);
  return sm.next();
}

/// Below this much work a segment of the sharded sweep (or a cycle's
/// compaction) runs inline: waking the pool costs more than the work
/// itself. Worklists shrink as messages deliver, so late cycles drop back
/// to inline sweeps automatically.
constexpr std::size_t kMinParallelWork = 4096;

/// Restores ascending pending order before a bucket's lottery. Buckets
/// are small (a channel's contenders) and usually already sorted — fed
/// straight off the ascending seed list, or scrambled only by upstream
/// lottery winners — so adaptive insertion sort beats std::sort here: the
/// already-sorted case is one compare per element with no call overhead,
/// and near-sorted buckets finish in a handful of moves.
inline void sort_small(std::uint32_t* b, std::size_t n) {
  if (n > 64) {  // quadratic guard; big buckets are rare
    if (!std::is_sorted(b, b + n)) std::sort(b, b + n);
    return;
  }
  for (std::size_t k = 1; k < n; ++k) {
    const std::uint32_t x = b[k];
    std::size_t j = k;
    for (; j > 0 && b[j - 1] > x; --j) b[j] = b[j - 1];
    b[j] = x;
  }
}

/// Sorts a large bucket by marking its entries — distinct pending-message
/// indices — in a bit-per-message scratch and reading the bits back in
/// order: O(n + span/64) with word-at-a-time constants, against
/// std::sort's n log n comparison sort. `bits` must be all-zero on entry
/// and is left all-zero: extraction clears each word it reads. Each
/// shard owns its scratch.
inline void sort_by_bitmap(std::uint64_t* bits, std::uint32_t* b,
                           std::uint32_t n) {
  std::uint32_t wmin = 0xffffffffu;
  std::uint32_t wmax = 0;
  for (std::uint32_t t = 0; t < n; ++t) {
    const std::uint32_t v = b[t];
    const std::uint32_t w = v >> 6;
    bits[w] |= 1ull << (v & 63u);
    wmin = std::min(wmin, w);
    wmax = std::max(wmax, w);
  }
  std::uint32_t out = 0;
  for (std::uint32_t w = wmin; w <= wmax; ++w) {
    std::uint64_t m = bits[w];
    if (m == 0) continue;
    bits[w] = 0;
    const std::uint32_t base = w << 6;
    do {
      b[out++] = base + static_cast<std::uint32_t>(std::countr_zero(m));
      m &= m - 1;
    } while (m != 0);
  }
}

/// AdaptiveOccupancy tuning. A channel is "hot" once it has run over its
/// admission limit for this many consecutive cycles — one contended cycle
/// is normal lottery noise, a streak is persistent congestion (the
/// persistence test of Rocher-Gonzalez et al., arXiv:2502.00597, in
/// delivery-cycle units).
constexpr std::uint32_t kAdaptiveHotStreak = 3;
/// Widest desynchronization window: a hot channel's losers spread their
/// retries over min(streak, kAdaptiveMaxDelay) upcoming cycles.
constexpr std::uint32_t kAdaptiveMaxDelay = 8;

/// True for the disciplines that assign individual wires (and can
/// therefore admit fewer than `limit` winners); ObliviousRandom and
/// AdaptiveOccupancy keep the paper's cap-subset lottery.
inline bool wire_selecting(RoutingPolicy pol) {
  return pol == RoutingPolicy::DeterministicDmod ||
         pol == RoutingPolicy::RandomLoadBalanced;
}

/// Wire-claim scratch for the wire-selecting disciplines: a flag per wire
/// plus the claimed-wire list that re-zeroes it. thread_local because
/// shard sweeps run on pool workers.
struct WireClaims {
  std::vector<std::uint8_t> taken;
  std::vector<std::uint32_t> claimed;
};

/// Resolves one over-limit bucket under a wire-selecting discipline.
/// `b[0..size)` must already be in ascending pending order (the same
/// sorted view the oblivious lottery sees). Each contender bids for one
/// of the channel's `limit` wires — DeterministicDmod by destination key
/// (the path's final channel, stable wherever the cursor points and
/// identical in every executor), RandomLoadBalanced by hashing the
/// bucket's pinned (seed, cycle, channel) stream with the contender's
/// pending index (the executor-invariant per-message identity) — and the
/// lowest pending index wins each wire. Winners are swapped stably to
/// b[0..w); returns w. Wires nobody bids for idle, which is exactly the
/// static-path pathology the adversarial traffic generators target.
/// Depends only on the sorted bucket, ce, limit and the pinned stream,
/// so every executor computes the same winner set.
template <typename ChanT>
std::uint32_t select_policy_winners(RoutingPolicy pol, std::uint32_t* b,
                                    std::size_t size, std::uint64_t limit,
                                    std::uint64_t seed, std::uint32_t cycle,
                                    std::uint32_t channel,
                                    const std::uint64_t* ce,
                                    const ChanT* chan) {
  if (limit == 0) return 0;
  thread_local WireClaims wc;
  if (wc.taken.size() < limit) wc.taken.resize(limit, 0);
  wc.claimed.clear();
  const std::uint64_t arb = arbitration_seed(seed, cycle, channel);
  std::uint32_t w = 0;
  for (std::size_t t = 0; t < size; ++t) {
    const std::uint32_t i = b[t];
    std::uint64_t wire;
    if (pol == RoutingPolicy::DeterministicDmod) {
      const std::uint64_t end = ce[i] >> 32;
      wire = static_cast<std::uint64_t>(chan[end - 1]) % limit;
    } else {
      SplitMix64 h(arb ^
                   (static_cast<std::uint64_t>(i) * 0x9e3779b97f4a7c15ull));
      wire = h.next() % limit;
    }
    if (!wc.taken[wire]) {
      wc.taken[wire] = 1;
      wc.claimed.push_back(static_cast<std::uint32_t>(wire));
      std::swap(b[w], b[t]);  // stable for winners: w <= t
      ++w;
    }
  }
  for (const std::uint32_t wire : wc.claimed) wc.taken[wire] = 0;
  return w;
}

/// Worklist entry layout (see ShardState::stage_list): (msg, channel)
/// packed into one 64-bit word. A 16+16-bit packing for small runs was
/// tried and measured ~10% slower despite halving the stream, so the
/// layout is fixed.
inline std::uint64_t pack_entry(std::uint32_t msg, std::uint32_t chan) {
  return (static_cast<std::uint64_t>(msg) << 32) | chan;
}
inline std::uint32_t entry_msg(std::uint64_t e) {
  return static_cast<std::uint32_t>(e >> 32);
}
inline std::uint32_t entry_chan(std::uint64_t e) {
  return static_cast<std::uint32_t>(e);
}

/// Prefetch hint for the wide-path stage sweep; a no-op where the
/// compiler has no builtin. Forced inline: GCC's IPA pass otherwise finds
/// an out-of-line copy free of side effects and deletes every call.
#if defined(__GNUC__) || defined(__clang__)
FT_ALWAYS_INLINE inline void prefetch(const void* p) { __builtin_prefetch(p); }
#else
inline void prefetch(const void*) {}
#endif

/// Phase timing (EngineOptions::time_phases) clock. Timing reads happen
/// on the coordination path only, so they never perturb arbitration or
/// any other simulated outcome.
using PhaseClock = std::chrono::steady_clock;
inline double phase_delta(PhaseClock::time_point a, PhaseClock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// One timed phase: adds the wall time from construction to destruction
/// to `acc` when timing is on, and costs one branch when it is off.
class PhaseSpan {
 public:
  PhaseSpan(bool on, double& acc) : acc_(on ? &acc : nullptr) {
    if (acc_ != nullptr) t0_ = PhaseClock::now();
  }
  ~PhaseSpan() {
    if (acc_ != nullptr) *acc_ += phase_delta(t0_, PhaseClock::now());
  }
  PhaseSpan(const PhaseSpan&) = delete;
  PhaseSpan& operator=(const PhaseSpan&) = delete;

 private:
  double* acc_;
  PhaseClock::time_point t0_;
};

/// Injection-time path validation against the engine's check table (see
/// CycleEngine::check_tbl_): every hop must name a known channel and, when
/// `staged`, the stages must strictly increase.
inline void check_path(const std::uint32_t* tbl, std::uint32_t num_channels,
                       const std::uint32_t* hop, const std::uint32_t* end,
                       bool staged) {
  std::uint32_t prev = 0;
  for (; hop != end; ++hop) {
    const std::uint32_t v = *hop < num_channels ? tbl[*hop] : 0;
    FT_CHECK_MSG(v != 0, "path uses an unknown channel");
    FT_CHECK_MSG(!staged || v > prev, "path stages must strictly increase");
    prev = v;
  }
}

}  // namespace

/// See the declaration in engine.hpp. The cycle loop calls next(cycle)
/// repeatedly within one cycle until it returns nullptr, consuming each
/// returned batch before the following call (so feeds may reuse one
/// buffer). exhausted() must be accurate by the end of the cycle that
/// injected the last batch: the loop's termination test reads it, and a
/// late flip would cost a spurious empty cycle that the materialized
/// engine would not run.
class BatchFeed {
 public:
  virtual ~BatchFeed() = default;
  virtual const PathSet* next(std::uint32_t cycle) = 0;
  virtual bool exhausted() const = 0;
};

namespace {

/// One materialized batch, injected at cycle 1 (run()).
class SingleBatchFeed final : public BatchFeed {
 public:
  explicit SingleBatchFeed(const PathSet& batch) : batch_(&batch) {}

  const PathSet* next(std::uint32_t) override {
    return std::exchange(batch_, nullptr);
  }
  bool exhausted() const override { return batch_ == nullptr; }

 private:
  const PathSet* batch_;
};

/// Streams every chunk of a MessageSource into cycle 1 (run_stream). One
/// PathSet buffer is refilled in place between next() calls; the first
/// chunk is prefetched so an empty source is exhausted before the cycle
/// loop starts (cycles == 0, matching run() on an empty set).
class StreamAllFeed final : public BatchFeed {
 public:
  explicit StreamAllFeed(MessageSource& source) : source_(source) {
    pending_ = source_.next_chunk(chunk_);
  }

  const PathSet* next(std::uint32_t cycle) override {
    if (cycle != 1 || !pending_) return nullptr;
    if (!served_first_) {
      served_first_ = true;
      return &chunk_;
    }
    pending_ = source_.next_chunk(chunk_);
    return pending_ ? &chunk_ : nullptr;
  }
  bool exhausted() const override { return !pending_; }

 private:
  MessageSource& source_;
  PathSet chunk_;
  bool pending_ = false;
  bool served_first_ = false;
};

/// Streams one chunk per cycle (run_batched_stream). The following chunk
/// is prefetched as the current one is served, so exhausted() flips in
/// the same cycle the last chunk is injected.
class StreamBatchFeed final : public BatchFeed {
 public:
  explicit StreamBatchFeed(MessageSource& source) : source_(source) {
    pending_ = source_.next_chunk(cur_);
  }

  const PathSet* next(std::uint32_t cycle) override {
    if (!pending_ || cycle == last_cycle_) return nullptr;
    last_cycle_ = cycle;
    std::swap(cur_, serve_);
    pending_ = source_.next_chunk(cur_);
    return &serve_;
  }
  bool exhausted() const override { return !pending_; }

 private:
  MessageSource& source_;
  PathSet cur_;    ///< prefetched, served next
  PathSet serve_;  ///< being consumed by the engine
  bool pending_ = false;
  std::uint32_t last_cycle_ = 0;
};

}  // namespace

CycleEngine::CycleEngine(ChannelGraph graph, const EngineOptions& opts)
    : graph_(std::move(graph)), opts_(opts) {
  FT_CHECK_MSG(opts_.alpha > 0.0, "alpha must be positive");
  // Admission limits are a pure function of (policy, alpha, capacity), all
  // fixed at construction: resolve the floating-point math once here so
  // the per-cycle loop is integer-only.
  const std::size_t num_channels = graph_.num_channels();
  // Limits are clamped to 2^32 - 1; counts compared against them are
  // bounded by the number of live messages, which is below 2^32, so the
  // clamp never changes an admission decision (see the limit_ comment).
  constexpr std::uint64_t kMaxLimit = 0xffffffffu;
  limit_.resize(num_channels);
  if (opts_.contention == ContentionPolicy::Tally) {
    tally_room_.resize(num_channels);
  }
  for (std::size_t c = 0; c < num_channels; ++c) {
    switch (opts_.contention) {
      case ContentionPolicy::Tally:
        limit_[c] = static_cast<std::uint32_t>(kMaxLimit);
        tally_room_[c] = static_cast<std::uint32_t>(
            std::min(graph_.capacity[c], kMaxLimit));
        break;
      case ContentionPolicy::Fifo:
        limit_[c] = static_cast<std::uint32_t>(
            std::min(graph_.capacity[c], kMaxLimit));
        break;
      case ContentionPolicy::RandomSubset:
        limit_[c] = static_cast<std::uint32_t>(std::min(
            kMaxLimit,
            std::max<std::uint64_t>(
                1, static_cast<std::uint64_t>(
                       static_cast<double>(graph_.capacity[c]) *
                       opts_.alpha))));
        break;
    }
  }
  check_tbl_.resize(num_channels);
  for (std::size_t c = 0; c < num_channels; ++c) {
    check_tbl_[c] = graph_.capacity[c] > 0 ? graph_.stage[c] + 1 : 0;
  }
  active_limit_ = limit_.data();
  narrow_ = num_channels <= 65536 && graph_.num_stages <= 65536;
  if (narrow_) {
    stage16_.resize(num_channels);
    for (std::size_t c = 0; c < num_channels; ++c) {
      stage16_[c] = static_cast<std::uint16_t>(graph_.stage[c]);
    }
  }
  // Subtree sharding is the lossy/tally cycle loop's only parallelism;
  // without a shard partition (and in FIFO mode) the run is one shard.
  // Every dispatch hands work to a second participant, so a one-worker
  // pool could never run a task: it is not built.
  sharded_ = opts_.parallel && graph_.num_shards > 1 &&
             opts_.contention != ContentionPolicy::Fifo;
  if (sharded_) {
    const std::size_t workers = resolve_threads(opts_.threads);
    if (workers > 1) pool_ = std::make_unique<ThreadPool>(workers);
  }
  if (sharded_) {
    FT_CHECK_MSG(graph_.shard.size() == num_channels,
                 "shard table must cover every channel");
    FT_CHECK_MSG(graph_.spine_stage_lo <= graph_.spine_stage_hi &&
                     graph_.spine_stage_hi <= graph_.num_stages,
                 "spine stage band out of range");
    for (std::size_t c = 0; c < num_channels; ++c) {
      if (graph_.capacity[c] == 0) continue;
      const std::uint32_t sh = graph_.shard[c];
      if (sh == ChannelGraph::kNoShard) {
        // A channel outside the shard partition (the fat-tree root's
        // external-interface pair) has no home in the sharded executor.
        // No internal path uses such channels; poisoning the validation
        // table turns any path that tries into an injection-time abort
        // instead of silent corruption.
        check_tbl_[c] = 0;
      } else {
        FT_CHECK_MSG(sh < graph_.num_shards, "shard id out of range");
      }
    }
  }
  if (opts_.policy == RoutingPolicy::AdaptiveOccupancy) {
    // The congestion-feedback scan walks the telemetry probe's in-budget
    // channel list (engine/channel_scan.hpp), built once per engine; the
    // hot-streak pass only needs the channel indices.
    for (const ChannelScanEntry& e : build_channel_scan(graph_)) {
      adaptive_scan_.push_back(e.channel);
    }
  }
}

template <typename ChanT>
const auto* CycleEngine::stage_table() const {
  if constexpr (sizeof(ChanT) == 2) {
    return stage16_.data();
  } else {
    return graph_.stage.data();
  }
}

CycleEngine::~CycleEngine() = default;

EngineResult CycleEngine::run(const PathSet& paths, EngineObserver* observer) {
  if (opts_.contention == ContentionPolicy::Fifo) {
    return run_fifo(paths, observer);
  }
  if (paths.empty()) return {};
  SingleBatchFeed feed(paths);
  return run_lossy(feed, observer);
}

EngineResult CycleEngine::run_stream(MessageSource& source,
                                     EngineObserver* observer) {
  if (opts_.contention == ContentionPolicy::Fifo) {
    // FIFO rounds seed every queue before round 1, so the whole set must
    // exist at once; ingesting the stream into CSR form still beats a
    // vector-of-vectors route list by ~6x in bytes per hop.
    PathSet all;
    PathSet chunk;
    while (source.next_chunk(chunk)) all.append_set(chunk);
    return run_fifo(all, observer);
  }
  StreamAllFeed feed(source);
  return run_lossy(feed, observer);
}

EngineResult CycleEngine::run_batched_stream(MessageSource& source,
                                             EngineObserver* observer) {
  FT_CHECK_MSG(opts_.contention != ContentionPolicy::Fifo,
               "batched injection requires a lossy or tally policy");
  StreamBatchFeed feed(source);
  return run_lossy(feed, observer);
}

/// The lossy stage sweep: bucket building, arbitration, accounting and
/// survivor forwarding fused into two sweeps of one worklist, over one
/// shard's arena/over/sort scratch. Only over-limit (contended) buckets
/// are materialized in the arena; everyone else advances and forwards in
/// place during the fill sweep, because an uncontended channel admits its
/// whole bucket no matter the order. Sweeps agree bit for bit at every
/// shard count because contended buckets still sort to pending order
/// before the pinned lottery, and worklist order is unobservable (see
/// ShardState::stage_list).
///
/// On the wide (u32) path the sweep is software-pipelined. There the CSR
/// hop buffer and the packed message words outgrow the caches, and each
/// survivor's next-hop read is a dependent miss (ce_ word, then hop
/// buffer). The loops prefetch both a fixed distance ahead. A prefetch is
/// a hint that reads only words of messages in this worklist (or this
/// bucket) and addresses at most one past the end of the hop buffer
/// (cursor + 1 <= end), so results are unchanged. The narrow path stays
/// L2-resident and measured no gain, so it compiles the hints out.
template <typename ChanT, typename Forward>
void CycleEngine::fused_stage(const ChanT* chan, std::uint32_t cycle,
                              std::vector<std::uint64_t>& list,
                              std::vector<std::uint32_t>& touched,
                              ShardState& st, Forward&& forward) {
  // bucket_pos_ sentinel for channels that stay under their limit; arena
  // fill cursors never reach it (PathSet caps hop offsets below 2^32 - 1).
  constexpr std::uint32_t kUncontended = 0xffffffffu;
  constexpr bool kPipelined = sizeof(ChanT) == 4;
  // The sweeps below hoist every member array into a local: the worklist
  // push_backs can allocate, and past any opaque call the compiler must
  // reload member-reachable pointers — locals stay in registers. None of
  // the hoisted buffers reallocates during the stage (the arena is sized
  // before the sweep; a forward to stage s' != stage moves only that
  // inner vector's storage, not the outer arrays or this worklist).
  std::vector<std::uint32_t>& arena = st.arena;
  std::vector<OverBucket>& over = st.over;
  std::uint64_t& cycle_losses = st.losses;
  std::uint64_t& cycle_hops = st.hops;
  std::uint32_t* const bp = bucket_pos_.data();
  const std::uint32_t* const lim = active_limit_;
  over.clear();
  std::uint32_t total = 0;
  for (const std::uint32_t c : touched) {
    const std::uint32_t count = bp[c];
    if (count > lim[c]) {
      over.push_back({c, total, count});
      bp[c] = total;  // fill cursor for the sweep below
      total += count;
    } else {
      if (want_carried_) carried_[c] = count;
      cycle_hops += count;
      bp[c] = kUncontended;
    }
  }
  arena.resize(total);
  std::uint64_t* const ce = ce_.data();
  std::uint32_t* const ar = arena.data();
  const std::uint64_t* const le = list.data();
  const std::size_t entries = list.size();
  for (std::size_t k = 0; k < entries; ++k) {
    if constexpr (kPipelined) {
      if (k + 16 < entries) prefetch(ce + entry_msg(le[k + 16]));
      if (k + 8 < entries) {
        prefetch(chan + static_cast<std::uint32_t>(ce[entry_msg(le[k + 8])]) +
                 1);
      }
    }
    const std::uint64_t e = le[k];
    const std::uint32_t c = entry_chan(e);
    const std::uint32_t i = entry_msg(e);
    const std::uint32_t pos = bp[c];
    if (pos == kUncontended) {
      const std::uint64_t v = ++ce[i];
      if (static_cast<std::uint32_t>(v) < (v >> 32)) {
        forward(i, static_cast<std::uint32_t>(
                       chan[static_cast<std::uint32_t>(v)]));
      }
    } else {
      ar[pos] = i;
      bp[c] = pos + 1;
    }
  }
  std::uint64_t* const bits = st.sort_bits.data();
  const RoutingPolicy pol = opts_.policy;
  const bool wire_sel = wire_selecting(pol);
  const bool adaptive = pol == RoutingPolicy::AdaptiveOccupancy;
  for (const OverBucket& ob : over) {
    std::uint32_t* b = ar + ob.off;
    const std::uint64_t limit = lim[ob.chan];
    // The pinned arbitration lottery sees contenders in ascending pending
    // index (the original engine scanned messages in order); worklist
    // forwarding scrambles that, so restore the exact sequence first.
    // Under-limit buckets skip this: with no lottery, order is invisible.
    if (ob.count > 64) {
      sort_by_bitmap(bits, b, ob.count);
    } else {
      sort_small(b, ob.count);
    }
    std::uint64_t winners = limit;
    if (wire_sel) {
      winners = select_policy_winners(pol, b, ob.count, limit, opts_.seed,
                                      cycle, ob.chan, ce, chan);
    } else {
      // Adaptive pressure marks are per-channel, and only the channel's
      // owning shard sweeps it, so a worker's write never races.
      if (adaptive) over_pressure_[ob.chan] = 1;
      Rng arb(arbitration_seed(opts_.seed, cycle, ob.chan));
      // Truncated Fisher–Yates: the full backward shuffle finalizes the
      // loser block [limit, count) with its first count - limit draws —
      // every later draw only permutes the winner block [0, limit) — so
      // stopping there keeps the kept/killed partition bit-identical
      // while skipping O(limit) tail work. Losers land in lottery order
      // rather than index order, which nothing observable depends on
      // (see DESIGN.md, "Engine hot path").
      for (std::size_t i = ob.count; i > limit; --i) {
        const std::size_t j = arb.below(i);
        std::swap(b[i - 1], b[j]);
      }
    }
    // Losers need no write: their cursor stops here, short of end, and
    // everything downstream (compaction, tracing) reads the delivered
    // state straight off the packed word (cursor == end).
    for (std::size_t k = 0; k < winners; ++k) {
      if constexpr (kPipelined) {
        if (k + 8 < winners) prefetch(ce + b[k + 8]);
        if (k + 4 < winners) {
          prefetch(chan + static_cast<std::uint32_t>(ce[b[k + 4]]) + 1);
        }
      }
      const std::uint64_t v = ++ce[b[k]];
      if (static_cast<std::uint32_t>(v) < (v >> 32)) {
        forward(b[k], static_cast<std::uint32_t>(
                          chan[static_cast<std::uint32_t>(v)]));
      }
    }
    if (want_carried_) carried_[ob.chan] = static_cast<std::uint32_t>(winners);
    cycle_hops += winners;
    cycle_losses += ob.count - winners;
  }
  for (const std::uint32_t c : touched) bp[c] = 0;  // sticky zeros
  touched.clear();
  list.clear();
}

/// One cycle's stage sweep: a loop over segments — the up band [0,
/// spine_lo), each spine stage on its own, then the down band [spine_hi,
/// num_stages). In a segment every shard runs the fused stage sweep over
/// its own worklists (on the pool when the segment is heavy), then the
/// coordinating thread distributes the survivors that moved to another
/// shard. A message changes shard only on a hop out of the up band's last
/// stage or out of a spine stage, and each such hop lands in a later
/// segment, so no shard ever receives work for a stage it has already
/// swept. A one-shard run's up band is every stage (spine_lo = spine_hi =
/// num_stages): its forward closure never reads the shard table and its
/// outbox stays empty. Results do not depend on the shard count: every
/// channel's contender set is assembled from the same messages, restored
/// to ascending pending order before its pinned (seed, cycle, channel)
/// lottery, and under-limit buckets admit everyone regardless of order.
template <typename ChanT>
#if defined(__GNUC__) && !defined(__clang__)
// The engine's instantiations grow this translation unit past GCC's
// unit-growth inlining budget, at which point the inliner leaves the
// push_back fast paths in the sweeps as out-of-line calls — one call per
// forwarded hop, ~20% of lossy throughput (verified with gprof). flatten
// forces full inlining of fused_stage and its forward closures
// regardless of the unit budget.
__attribute__((flatten))
#endif
void CycleEngine::run_cycle_sharded(const ChanT* chan, std::uint32_t cycle,
                                    std::uint64_t& cycle_losses,
                                    std::uint64_t& cycle_hops,
                                    std::uint64_t& cycle_violations) {
  const std::uint32_t num_stages = graph_.num_stages;
  const std::uint32_t spine_lo = sharded_ ? graph_.spine_stage_lo : num_stages;
  const std::uint32_t spine_hi = sharded_ ? graph_.spine_stage_hi : num_stages;
  const std::uint32_t* const shard_tbl = graph_.shard.data();
  const auto* const stg = stage_table<ChanT>();
  const std::size_t num_shards = shards_.size();

  // Each shard's bitmap-sort scratch must span every live message index
  // (the arena holds global indices); new words join zeroed and stay
  // zeroed between uses.
  const std::size_t words = (ce_.size() + 63) / 64;
  for (ShardState& st : shards_) {
    if (st.sort_bits.size() < words) st.sort_bits.resize(words, 0);
  }

  // A shard's stages [s_begin, s_end): the fused algorithm on its own
  // scratch. A survivor whose next channel is ours stays on our
  // worklists (below the spine it always is); any other leaves through
  // the outbox for the serial distribution step. A (faulted) tally then
  // counts the stage's channels carried over capacity from the occupancy
  // the sweep wrote (run_lossy_t keeps want_carried_ on for it); the sweep
  // clears the touched list, so the shard keeps a copy. The lossy sweep
  // is the same code and pays one branch per stage.
  const bool tally = opts_.contention == ContentionPolicy::Tally;
  const std::uint32_t* const room = tally_room_.data();
  auto run_band = [&](ShardState& st, std::uint32_t my_shard,
                      std::uint32_t s_begin, std::uint32_t s_end) {
    std::uint32_t* const bp = bucket_pos_.data();
    auto* const lst = st.stage_list.data();
    auto* const touch = st.stage_touched.data();
    for (std::uint32_t s = s_begin; s < s_end; ++s) {
      if (lst[s].empty()) continue;
      auto forward = [&](std::uint32_t i, std::uint32_t nc) {
        const std::uint32_t ns = stg[nc];
        if (ns < spine_lo || shard_tbl[nc] == my_shard) {
          if (bp[nc]++ == 0) touch[ns].push_back(nc);
          lst[ns].push_back(pack_entry(i, nc));
        } else {
          st.outbox.push_back(pack_entry(i, nc));
        }
      };
      if (tally) st.tally_chans.assign(touch[s].begin(), touch[s].end());
      fused_stage(chan, cycle, lst[s], touch[s], st, forward);
      if (tally) {
        for (const std::uint32_t c : st.tally_chans) {
          st.violations += carried_[c] > room[c] ? 1 : 0;
        }
      }
    }
  };

  const bool pooled = pool_ != nullptr;
  auto band_entries = [&](std::uint32_t s_begin, std::uint32_t s_end) {
    std::size_t entries = 0;
    for (const ShardState& st : shards_) {
      for (std::uint32_t s = s_begin; s < s_end; ++s) {
        entries += st.stage_list[s].size();
      }
    }
    return entries;
  };

  // One segment. Phase timing charges the shard sweep to `sweep_acc` (its
  // band's accumulator) and the distribution to the serial spine share.
  // The distribution routes each crossing survivor to its destination
  // shard's worklists, counting it into the target bucket as it lands.
  // A segment with no work has nothing to sweep or distribute.
  auto segment = [&](std::uint32_t s_begin, std::uint32_t s_end,
                     std::size_t work, bool on_pool, double& sweep_acc) {
    if (work == 0) return;
    {
      const PhaseSpan span(time_phases_, sweep_acc);
      auto sweep = [&](std::size_t sh) {
        run_band(shards_[sh], static_cast<std::uint32_t>(sh), s_begin, s_end);
      };
      if (on_pool) {
        pool_->run_tasks(num_shards, sweep);
      } else {
        for (std::size_t sh = 0; sh < num_shards; ++sh) sweep(sh);
      }
    }
    const PhaseSpan span(time_phases_, ph_spine_);
    std::uint32_t* const bp = bucket_pos_.data();
    for (ShardState& st : shards_) {
      for (const std::uint64_t e : st.outbox) {
        const std::uint32_t nc = entry_chan(e);
        const std::uint32_t ns = stg[nc];
        ShardState& tgt = shards_[shard_tbl[nc]];
        if (bp[nc]++ == 0) tgt.stage_touched[ns].push_back(nc);
        tgt.stage_list[ns].push_back(e);
      }
      st.outbox.clear();
    }
  };

  // A segment goes to the pool when its work reaches kMinParallelWork;
  // small cycles run the shard loop inline — same structure, same results,
  // no pool wakeup. The up band's work is its entry count: every contender
  // is seeded on its first stage before the band starts. A one-shard
  // sweep is serial work, so it counts as spine, not as the up band.
  const std::size_t up_work = band_entries(0, spine_lo);
  segment(0, spine_lo, up_work, pooled && up_work >= kMinParallelWork,
          sharded_ ? ph_up_ : ph_spine_);

  // Spine stages, one segment each: the stages whose survivors may move
  // between shards. None when the shard roots sit directly under the
  // fat-tree root (shard level 1). A heavy spine stage goes to the pool
  // when parallel_spine is on, counted as spine_parallel; otherwise its
  // shards sweep one after another on this thread, counted as spine.
  const bool spine_pooled = pooled && opts_.parallel_spine;
  for (std::uint32_t s = spine_lo; s < spine_hi; ++s) {
    const std::size_t entries = band_entries(s, s + 1);
    const bool on_pool = spine_pooled && entries >= kMinParallelWork;
    segment(s, s + 1, entries, on_pool, on_pool ? ph_spine_par_ : ph_spine_);
  }

  // Down band: descent never leaves the subtree, so its distribution
  // finds no outbox entries. The lists hold only the entries that turned
  // downward so far; each descends to its leaf, crossing one down stage
  // after another unless it loses, so the band's work is weighted by its
  // stage count (its entry count alone stays below the threshold even
  // when the band carries most of a contended cycle's hops).
  const std::size_t down_work =
      band_entries(spine_hi, num_stages) * (num_stages - spine_hi);
  segment(spine_hi, num_stages, down_work,
          pooled && down_work >= kMinParallelWork, ph_down_);

  for (ShardState& st : shards_) {
    cycle_losses += st.losses;
    cycle_hops += st.hops;
    cycle_violations += st.violations;
    st.losses = 0;
    st.hops = 0;
    st.violations = 0;
  }
}

/// Block-parallel stable compaction and reseed. Three pool batches:
/// count each block's losers, scatter them to their stable rank (the
/// prefix of the counts) in the double buffers while staging each reseed
/// under its owning shard, then let every shard drain its own seeds, in
/// block order, into its worklists and bucket counts — a channel's count
/// is only ever written by the task of the shard that owns it. Pending
/// indices equal the serial compaction's, so everything keyed by them
/// (sorted lotteries, the RLB hash, the adaptive stagger) is unchanged;
/// worklist order was already unobservable (see ShardState::stage_list).
template <typename ChanT, typename Compact>
std::size_t CycleEngine::compact_pooled(const Compact& compact) {
  const std::size_t pending = ce_.size();
  const std::size_t num_shards = shards_.size();
  // About four blocks per participant so stealing evens out clustered
  // losers, and at least 1024 messages a block.
  const std::size_t num_blocks = std::max<std::size_t>(
      1, std::min((pool_->size() + 1) * 4, pending / 1024));
  auto block_lo = [&](std::size_t b) { return pending * b / num_blocks; };
  block_rank_.assign(num_blocks + 1, 0);
  std::uint32_t* const rank = block_rank_.data();
  const std::uint64_t* const ce = ce_.data();
  pool_->run_tasks(num_blocks, [&](std::size_t b) {
    std::uint32_t losers = 0;
    for (std::size_t i = block_lo(b); i < block_lo(b + 1); ++i) {
      const std::uint64_t v = ce[i];
      losers += static_cast<std::uint32_t>(v) != (v >> 32) ? 1 : 0;
    }
    rank[b + 1] = losers;
  });
  for (std::size_t b = 0; b < num_blocks; ++b) rank[b + 1] += rank[b];
  const std::size_t kept = rank[num_blocks];
  ce_next_.resize(kept);
  begin_next_.resize(kept);
  first_chan_next_.resize(kept);
  if (seed_stage_.size() < num_blocks * num_shards) {
    seed_stage_.resize(num_blocks * num_shards);
  }
  const std::uint32_t* const shard_tbl = graph_.shard.data();
  pool_->run_tasks(num_blocks, [&](std::size_t b) {
    std::vector<std::uint64_t>* const staged =
        seed_stage_.data() + b * num_shards;
    compact(block_lo(b), block_lo(b + 1), rank[b], ce_next_.data(),
            begin_next_.data(), first_chan_next_.data(),
            [&](std::uint32_t k, std::uint32_t fc) {
              staged[shard_tbl[fc]].push_back(pack_entry(k, fc));
            });
  });
  ce_.swap(ce_next_);
  begin_.swap(begin_next_);
  first_chan_.swap(first_chan_next_);

  const auto* const stg = stage_table<ChanT>();
  std::uint32_t* const bp = bucket_pos_.data();
  pool_->run_tasks(num_shards, [&](std::size_t sh) {
    auto* const lst = shards_[sh].stage_list.data();
    auto* const touch = shards_[sh].stage_touched.data();
    for (std::size_t b = 0; b < num_blocks; ++b) {
      std::vector<std::uint64_t>& seeds = seed_stage_[b * num_shards + sh];
      for (const std::uint64_t e : seeds) {
        const std::uint32_t fc = entry_chan(e);
        const std::uint32_t fs = stg[fc];
        if (bp[fc]++ == 0) touch[fs].push_back(fc);
        lst[fs].push_back(e);
      }
      seeds.clear();
    }
  });
  return kept;
}

/// Hops and occupancy are exactly what the stage sweep would account with
/// every bucket under limit, and a cursor on end is all the delivery,
/// trace and compaction code downstream reads.
///
/// A channel goes over capacity on exactly one hop: the one that takes its
/// headroom (tally_room_) down from 0. The first pass counts headroom down
/// along every path; the second counts it back up and moves the cursors.
/// Two sequential walks of the hops over one u32 table, and nothing
/// proportional to the channel count.
template <typename ChanT>
void CycleEngine::tally_sweep(const ChanT* chan, std::uint64_t& cycle_hops,
                              std::uint64_t& cycle_violations) {
  std::uint64_t* const ce = ce_.data();
  const std::size_t live = ce_.size();
  std::uint32_t* const room = tally_room_.data();
  std::uint32_t* const car = want_carried_ ? carried_.data() : nullptr;
  std::uint64_t over = 0;
  for (std::size_t i = 0; i < live; ++i) {
    const std::uint64_t v = ce[i];
    const auto end = static_cast<std::uint32_t>(v >> 32);
    for (auto h = static_cast<std::uint32_t>(v); h < end; ++h) {
      const std::uint32_t c = chan[h];
      over += room[c]-- == 0 ? 1 : 0;
      if (car != nullptr) ++car[c];
    }
  }
  for (std::size_t i = 0; i < live; ++i) {
    const std::uint64_t v = ce[i];
    const auto cursor = static_cast<std::uint32_t>(v);
    const auto end = static_cast<std::uint32_t>(v >> 32);
    for (std::uint32_t h = cursor; h < end; ++h) ++room[chan[h]];
    cycle_hops += end - cursor;
    ce[i] = (v & 0xffffffff00000000ull) | end;
  }
  cycle_violations += over;
}

/// The hop-width-independent part of a lossy/tally run: the per-run
/// setup and reset of every message, worklist and feedback buffer, and the
/// give-up events of a run cut short by max_cycles.
EngineResult CycleEngine::run_lossy(BatchFeed& feed, EngineObserver* observer) {
  const RunFrame run = begin_run(observer);
  const std::size_t num_channels = graph_.num_channels();
  carried_.assign(num_channels, 0);
  bucket_pos_.assign(num_channels, 0);
  shards_.resize(sharded_ ? graph_.num_shards : 1);
  for (ShardState& st : shards_) {
    st.stage_list.resize(graph_.num_stages);
    for (auto& list : st.stage_list) list.clear();
    st.stage_touched.resize(graph_.num_stages);
    for (auto& t : st.stage_touched) t.clear();
    st.outbox.clear();
    st.losses = 0;
    st.hops = 0;
    st.violations = 0;
  }
  ce_.clear();
  begin_.clear();
  id_.clear();
  first_chan_.clear();
  attempts_.clear();
  wake_.clear();
  inject_cycle_.clear();
  if (opts_.policy == RoutingPolicy::AdaptiveOccupancy) {
    over_pressure_.assign(num_channels, 0);
    hot_streak_.assign(num_channels, 0);
  }
  EngineResult result =
      narrow_ ? run_lossy_t<std::uint16_t>(chan_buf16_, feed, run)
              : run_lossy_t<std::uint32_t>(chan_buf_, feed, run);
  if (result.gave_up && run.trace) {
    const auto last_cycle = static_cast<std::uint32_t>(result.cycles);
    for (const std::uint32_t id : id_) {
      observer->on_message_event(
          {MessageEventKind::GiveUp, id, last_cycle, kNoChannel});
    }
  }
  return result;
}

CycleEngine::RunFrame CycleEngine::begin_run(EngineObserver* observer) {
  RunFrame run;
  run.observer = observer;
  // Message-event tracing and latency sampling are sampled once per run;
  // when off, the only cost is one predictable branch per cycle.
  run.trace = observer != nullptr && observer->wants_message_events();
  run.lat_on = observer != nullptr && observer->wants_latency_samples();
  // Faults evolve on the coordination path, once per cycle. Without a
  // plan every arbitration site reads limit_: the classic hot path.
  if (opts_.fault_plan != nullptr && !opts_.fault_plan->empty()) {
    run.faults = std::make_unique<FaultState>(*opts_.fault_plan, graph_);
  }
  active_limit_ = limit_.data();
  lat_samples_.clear();
  time_phases_ = opts_.time_phases;
  ph_up_ = ph_spine_ = ph_spine_par_ = ph_down_ = ph_compact_ = 0.0;
  return run;
}

template <typename Pending, typename Body>
void CycleEngine::cycle_loop(const RunFrame& run, EngineResult& result,
                             const Pending& pending, const Body& body) {
  EngineObserver* const observer = run.observer;
  double ph_coord = 0.0;
  while (pending()) {
    // The arbitration stream folds the cycle index into 32 bits of the
    // seed; widening it would change every golden, so the engine gives up
    // loudly at the domain edge instead (EngineResult::cycles itself is
    // 64-bit and never wraps).
    FT_CHECK_MSG(result.cycles < 0xffffffffULL,
                 "cycle index overflows the 32-bit arbitration-seed domain");
    const auto cycle = static_cast<std::uint32_t>(result.cycles + 1);
    PhaseClock::time_point cyc_t0;
    double timed_before = 0.0;
    if (time_phases_) {
      cyc_t0 = PhaseClock::now();
      timed_before = timed_sum();
    }
    if (run.lat_on) lat_samples_.clear();
    // Channel state is consulted per cycle, so a sampling observer only
    // pays for the occupancy bookkeeping on the cycles it keeps.
    const bool show_carried =
        observer != nullptr && observer->wants_channel_state(cycle);
    const FaultState::CycleFaults* cf = nullptr;
    if (run.faults) {
      cf = &run.faults->begin_cycle(cycle, limit_);
      active_limit_ = run.faults->eff_limit().data();
      result.fault_down_events += cf->went_down.size();
      result.fault_up_events += cf->came_up.size();
      result.subtree_kill_events += cf->killed_nodes.size();
      result.degraded_channel_cycles += cf->degraded_channels;
      if (run.trace) {
        for (const std::uint32_t node : cf->killed_nodes) {
          observer->on_message_event(
              {MessageEventKind::SubtreeKill, kNoMessage, cycle, node});
        }
        for (const std::uint32_t c : cf->went_down) {
          observer->on_message_event(
              {MessageEventKind::FaultDown, kNoMessage, cycle, c});
        }
        for (const std::uint32_t c : cf->came_up) {
          observer->on_message_event(
              {MessageEventKind::FaultUp, kNoMessage, cycle, c});
        }
      }
    }

    const CycleCounts n = body(cycle, cf, show_carried);
    ++result.cycles;
    result.total_attempts += n.attempts;
    result.total_losses += n.losses;
    result.total_hops += n.hops;
    result.delivered += n.delivered;
    result.delivered_per_cycle.push_back(n.delivered);
    result.total_backoffs += n.backoffs;
    result.messages_given_up += n.gave_up;
    result.max_queue = std::max(result.max_queue, n.peak_queue);

    if (observer != nullptr) {
      CycleSnapshot snap;
      snap.cycle = cycle;
      snap.pending_before = n.pending_before;
      snap.delivered = n.delivered;
      snap.attempts = n.attempts;
      snap.losses = n.losses;
      snap.peak_queue = n.peak_queue;
      if (cf != nullptr) {
        snap.faults_down = static_cast<std::uint32_t>(cf->went_down.size());
        snap.faults_up = static_cast<std::uint32_t>(cf->came_up.size());
        snap.subtree_kills =
            static_cast<std::uint32_t>(cf->killed_nodes.size());
        snap.channels_down = cf->channels_down;
        snap.degraded_channels = cf->degraded_channels;
      }
      snap.backoffs = n.backoffs;
      snap.gave_up = n.gave_up;
      snap.carried = show_carried ? &carried_ : nullptr;
      snap.latencies = run.lat_on ? &lat_samples_ : nullptr;
      snap.graph = &graph_;
      observer->on_cycle(snap);
    }

    if (time_phases_) {
      // Everything this cycle spent outside the timed phases — injection,
      // serial compaction, fault bookkeeping, observer callbacks — is
      // serial coordination. Clamped at zero against clock jitter.
      const double cyc = phase_delta(cyc_t0, PhaseClock::now());
      ph_coord += std::max(0.0, cyc - (timed_sum() - timed_before));
    }

    if (opts_.max_cycles != 0 && result.cycles >= opts_.max_cycles &&
        pending()) {
      result.gave_up = true;
      break;
    }
  }
  if (time_phases_) {
    result.phases.up_seconds = ph_up_;
    result.phases.spine_seconds = ph_spine_;
    result.phases.spine_parallel_seconds = ph_spine_par_;
    result.phases.down_seconds = ph_down_;
    result.phases.compact_seconds = ph_compact_;
    result.phases.coord_seconds = ph_coord;
    result.phases.timed_cycles = result.cycles;
  }
}

/// The lossy/tally cycle body, in the order a message meets it: inject
/// (this cycle's batches), sweep (every contender crosses its path or
/// loses at the first channel whose lottery it loses), feedback
/// (AdaptiveOccupancy's hot streaks) and compact (survivors delivered,
/// losers rewound and reseeded for the next cycle).
template <typename ChanT>
EngineResult CycleEngine::run_lossy_t(std::vector<ChanT>& chan_buf,
                                      BatchFeed& feed, const RunFrame& run) {
  EngineResult result;
  EngineObserver* const observer = run.observer;
  const bool trace = run.trace;
  const bool lat_on = run.lat_on;
  chan_buf.clear();
  std::uint32_t next_id = 0;
  const auto* const stg = stage_table<ChanT>();

  // Routes one worklist seed (injection or retry rewind) to the owning
  // shard's lists; a one-shard run skips the shard-table read. The
  // pointers are captured by value: run_lossy sized shards_ and it never
  // moves again this run, and value captures keep the per-message path in
  // registers across the opaque push_back calls (a reference capture of
  // `this` would force member reloads on every seed — the same hoisting
  // rule as the fused stage sweeps).
  const std::uint32_t* const shard_tbl =
      sharded_ ? graph_.shard.data() : nullptr;
  // Forced inline for the same reason as fused_stage: the surrounding
  // function is big enough that the inliner otherwise leaves this as an
  // out-of-line call on every injected/retried message.
  auto seed_entry = [shard_tbl, stg, g_bp = bucket_pos_.data(),
                     sh = shards_.data()](std::uint32_t idx,
                                          std::uint32_t fc) FT_ALWAYS_INLINE {
    ShardState& st = sh[shard_tbl != nullptr ? shard_tbl[fc] : 0];
    const std::uint32_t fs = stg[fc];
    if (g_bp[fc]++ == 0) st.stage_touched[fs].push_back(fc);
    st.stage_list[fs].push_back(pack_entry(idx, fc));
  };

  // Pooled compaction: sharded runs with a pool.
  const bool pooled = pool_ != nullptr;
  // The retry policy is sampled once per run; without one (and without
  // faults) every phase below is the classic hot path.
  const RetryPolicy& retry = opts_.retry;
  // AdaptiveOccupancy parks losers of persistently hot channels through
  // the retry machinery, so it forces the retry-aware compaction even
  // under the default (never-dropping) RetryPolicy: adaptive only ever
  // adds delay, never drops on its own.
  const bool adaptive_on =
      opts_.policy == RoutingPolicy::AdaptiveOccupancy &&
      opts_.contention == ContentionPolicy::RandomSubset;
  const bool retry_on = retry.enabled() || adaptive_on;
  // Fault-free tally: every limit is 2^32 - 1 and nothing can lower it,
  // so every seeded message crosses all of its hops in the cycle it is
  // seeded. Such runs build no worklists and run tally_sweep in place of
  // the stage sweep. A faulted tally counts its violations from carried_
  // after each stage sweep (run_cycle_sharded), so it writes occupancy on
  // every cycle.
  const bool tally = opts_.contention == ContentionPolicy::Tally;
  const bool sweep_free = tally && run.faults == nullptr;
  const bool faulted_tally = tally && run.faults != nullptr;
  // Messages seeded to contend in the current cycle; equals pending when
  // no retry policy parks anyone.
  std::uint64_t contenders = 0;

  // inject: one streaming copy of each batch's hop buffer into the
  // engine's (possibly narrowed) buffer; message slices keep their offsets
  // relative to base, so path layout is untouched. Streamed sources can
  // concatenate past the single-PathSet bound, so the combined buffer
  // re-proves the 32-bit offset and message-index invariants every batch
  // (the narrowing helper aborts on the first workload that genuinely
  // outgrows the index discipline). Once no message is live, nothing reads
  // the buffer, so it starts over: a replay holds one scheduled cycle's
  // hops, not the whole schedule's.
  auto inject = [&](std::uint32_t cycle, CycleCounts& n) FT_ALWAYS_INLINE {
    while (const PathSet* batch_ptr = feed.next(cycle)) {
      const PathSet& batch = *batch_ptr;
      const std::uint32_t* chans = batch.channels().data();
      if (ce_.empty()) chan_buf.clear();
      const std::uint32_t base =
          checked_u32(chan_buf.size(), "injected hop buffer overflows "
                                       "32-bit offsets");
      const std::size_t hops = batch.channels().size();
      FT_CHECK_MSG(base + static_cast<std::uint64_t>(hops) < 0xffffffffULL,
                   "injected hop buffer overflows 32-bit offsets");
      FT_CHECK_MSG(ce_.size() + batch.size() < 0xffffffffULL &&
                       next_id + static_cast<std::uint64_t>(batch.size()) <
                           0xffffffffULL,
                   "live message count overflows 32-bit message indices");
      chan_buf.resize(base + hops);
      ChanT* dst = chan_buf.data() + base;
      for (std::size_t h = 0; h < hops; ++h) {
        dst[h] = static_cast<ChanT>(chans[h]);
      }
      const std::uint32_t* const ctbl = check_tbl_.data();
      const auto nch = static_cast<std::uint32_t>(check_tbl_.size());
      for (std::size_t p = 0; p < batch.size(); ++p) {
        const std::uint32_t off = batch.offset(p);
        const std::uint32_t len = batch.length(p);
        check_path(ctbl, nch, chans + off, chans + off + len, true);
        const std::uint32_t id = next_id++;
        if (len == 0) {
          ++n.delivered;  // local delivery, no channel used
          if (lat_on) lat_samples_.push_back({1, 1});
          if (trace) {
            observer->on_message_event(
                {MessageEventKind::Inject, id, cycle, kNoChannel});
            observer->on_message_event(
                {MessageEventKind::Deliver, id, cycle, kNoChannel});
          }
          continue;
        }
        const std::uint32_t begin = base + off;
        const auto idx = static_cast<std::uint32_t>(ce_.size());
        const std::uint32_t fc = chans[off];
        ce_.push_back((static_cast<std::uint64_t>(begin + len) << 32) | begin);
        begin_.push_back(begin);
        id_.push_back(id);
        first_chan_.push_back(fc);
        if (retry_on) {
          attempts_.push_back(1);
          wake_.push_back(cycle);
        }
        if (lat_on) inject_cycle_.push_back(cycle);
        ++contenders;
        if (!sweep_free) seed_entry(idx, fc);
        if (trace) {
          observer->on_message_event(
              {MessageEventKind::Inject, id, cycle, fc});
        }
      }
    }
  };

  // sweep: worklists were seeded by last cycle's compaction (retries) and
  // this cycle's injection, both in ascending message order. A fault-free
  // tally's single pass over the live messages is timed as the serial
  // (spine) band.
  auto sweep = [&](std::uint32_t cycle, CycleCounts& n) {
    const ChanT* chan = chan_buf.data();
    if (sweep_free) {
      const PhaseSpan span(time_phases_, ph_spine_);
      tally_sweep(chan, n.hops, result.capacity_violations);
    } else {
      run_cycle_sharded(chan, cycle, n.losses, n.hops,
                        result.capacity_violations);
    }
  };

  // feedback: fold this cycle's over-pressure marks into the per-channel
  // hot streaks before compaction decides parking. The scan list is the
  // telemetry probe's in-budget channel set, so feedback acts on exactly
  // the channels the observatory watches; every executor wrote the same
  // pressure marks (a channel is over limit or it is not), so the streaks
  // — and every parking decision downstream — are executor-invariant.
  auto feedback = [&] {
    std::uint32_t* const hs = hot_streak_.data();
    std::uint32_t* const op = over_pressure_.data();
    for (const std::uint32_t c : adaptive_scan_) {
      hs[c] = op[c] != 0 ? hs[c] + 1 : 0;
      op[c] = 0;
    }
  };

  // Message events of the cycle's contenders (parked messages have none).
  // A loser's cursor stops at the channel whose lottery it lost, which is
  // the Loss event's channel.
  auto trace_attempts = [&](std::uint32_t cycle, std::size_t pending) {
    for (std::size_t i = 0; i < pending; ++i) {
      if (retry_on && wake_[i] != cycle) continue;
      observer->on_message_event(
          {MessageEventKind::Attempt, id_[i], cycle, first_chan_[i]});
    }
  };
  auto trace_outcomes = [&](std::uint32_t cycle) {
    const ChanT* chan = chan_buf.data();
    for (std::size_t i = 0; i < ce_.size(); ++i) {
      if (retry_on && wake_[i] != cycle) continue;
      const std::uint64_t v = ce_[i];
      if (static_cast<std::uint32_t>(v) == (v >> 32)) {
        observer->on_message_event(
            {MessageEventKind::Deliver, id_[i], cycle, kNoChannel});
      } else {
        observer->on_message_event({MessageEventKind::Loss, id_[i], cycle,
                                    chan[static_cast<std::uint32_t>(v)]});
      }
    }
  };

  // compact: survivors are delivered; compacting the losers doubles as
  // next cycle's reseed (cursors rewind to the first hop and each retry
  // lands on its stage worklist), so the cycle loop never takes a separate
  // O(pending) seeding pass.
  auto compact = [&](std::uint32_t cycle, CycleCounts& n) FT_ALWAYS_INLINE {
    const ChanT* chan = chan_buf.data();
    // Retry fate of message i, which contended this cycle and lost for the
    // `att`-th time: the cycle it next contends in, or 0 when it gives up
    // (attempts or deadline exhausted).
    auto next_wake = [&](std::size_t i, std::uint32_t att, std::uint64_t v) {
      const std::uint32_t lost_at = chan[static_cast<std::uint32_t>(v)];
      std::uint32_t delay = 0;
      bool drop = retry.max_attempts != 0 && att >= retry.max_attempts;
      if (!drop) {
        if (retry.exponential_backoff) {
          const std::uint32_t shift = std::min(att - 1, 31u);
          delay = std::min<std::uint32_t>(retry.max_backoff,
                                          (1u << shift) - 1);
        }
        // Congestion-persistence backoff: once the loss channel has been
        // hot for kAdaptiveHotStreak cycles, its losers desynchronize —
        // the pending index staggers retries across a window that widens
        // with the streak, so the channel stays fed (about one waker per
        // cycle) while upstream contention drops.
        const std::uint32_t streak = adaptive_on ? hot_streak_[lost_at] : 0;
        if (streak >= kAdaptiveHotStreak) {
          const std::uint32_t window = std::min(streak, kAdaptiveMaxDelay);
          delay = std::max(delay, 1 + static_cast<std::uint32_t>(i) % window);
        }
        // The deadline check runs after every delay extension (backoff
        // and adaptive): a parked message's wake never exceeds the
        // deadline, so a deadline can only expire on a message that
        // contended — give-up accounting stays exactly-once (pinned in
        // test_fault_plan).
        drop = retry.deadline_cycles != 0 &&
               static_cast<std::uint64_t>(cycle) + 1 + delay >
                   retry.deadline_cycles;
      }
      if (drop) {
        ++n.gave_up;
        if (trace) {
          observer->on_message_event(
              {MessageEventKind::GiveUp, id_[i], cycle, kNoChannel});
        }
        return 0u;
      }
      if (delay > 0) {
        ++n.backoffs;
        if (trace) {
          observer->on_message_event(
              {MessageEventKind::Backoff, id_[i], cycle, lost_at});
        }
      }
      return cycle + 1 + delay;
    };
    // The one compaction body, over a block [lo, hi) of pending messages:
    // kept losers go to output ranks from `rank` on, each one due next
    // cycle is handed to `seed` for next cycle's worklists, and the next
    // free rank is returned. Without a retry policy (retry_tag false) every
    // loser is kept and due, so the body is a stable partition by the
    // delivered test; with one it also decides each loser's fate —
    // give up, park (backoff) or reseed — wakes parked messages whose delay
    // has elapsed, and compacts attempts_/wake_. Serial runs (and every
    // retry, traced or latency-sampling run) execute it as a single block,
    // in place, that seeds directly; sharded pooled cycles without those
    // run the non-retry body block-parallel (compact_pooled). Ranks, and so
    // pending indices, are the same either way.
    auto body = [&](auto retry_tag, std::size_t lo, std::size_t hi,
                    std::size_t rank, std::uint64_t* ce_out,
                    std::uint32_t* bg_out, std::uint32_t* fc_out,
                    auto&& seed) {
      constexpr bool kRetry = decltype(retry_tag)::value;
      const std::uint64_t* const ce = ce_.data();
      const std::uint32_t* const bg = begin_.data();
      const std::uint32_t* const fcs = first_chan_.data();
      std::uint32_t* const ids = id_.data();
      std::uint32_t* const ic = inject_cycle_.data();
      std::uint32_t* const att = attempts_.data();
      std::uint32_t* const wk = wake_.data();
      for (std::size_t i = lo; i < hi; ++i) {
        const std::uint64_t v = ce[i];
        if (static_cast<std::uint32_t>(v) == (v >> 32)) {
          // Latency counts delivery cycles from injection inclusive; ideal
          // is 1 in the lossy modes (an uncontended path traverses in one
          // cycle).
          if (lat_on) lat_samples_.push_back({cycle - ic[i] + 1, 1});
          continue;
        }
        std::uint32_t wake = cycle + 1;
        if constexpr (kRetry) {
          // A parked message keeps its wake, its cursor already rewound.
          wake = wk[i] == cycle ? next_wake(i, att[i], v) : wk[i];
          if (wake == 0) continue;
        }
        const std::uint32_t b = bg[i];
        const std::uint32_t fc = fcs[i];
        // Rewind the cursor to the first hop; the end half is untouched.
        ce_out[rank] = (v & 0xffffffff00000000ull) | b;
        bg_out[rank] = b;
        if (trace) ids[rank] = ids[i];  // ids are only read when tracing
        fc_out[rank] = fc;
        if (lat_on) ic[rank] = ic[i];
        if constexpr (kRetry) {
          att[rank] = wake == cycle + 1 ? att[i] + 1 : att[i];
          wk[rank] = wake;
          if (wake == cycle + 1) ++contenders;
        }
        if (wake == cycle + 1) seed(static_cast<std::uint32_t>(rank), fc);
        ++rank;
      }
      return rank;
    };
    const std::size_t pending = ce_.size();
    std::size_t kept = 0;
    if (retry_on) {
      contenders = 0;
      kept = body(std::true_type{}, 0, pending, 0, ce_.data(), begin_.data(),
                  first_chan_.data(), seed_entry);
      attempts_.resize(kept);
      wake_.resize(kept);
    } else {
      if (pooled && !trace && !lat_on && pending >= kMinParallelWork) {
        const PhaseSpan span(time_phases_, ph_compact_);
        kept = compact_pooled<ChanT>([&](auto&&... args) {
          return body(std::false_type{}, args...);
        });
      } else {
        kept = body(std::false_type{}, 0, pending, 0, ce_.data(),
                    begin_.data(), first_chan_.data(), seed_entry);
      }
      contenders = kept;
    }
    n.delivered += static_cast<std::uint32_t>(pending - kept - n.gave_up);
    ce_.resize(kept);
    begin_.resize(kept);
    id_.resize(kept);
    first_chan_.resize(kept);
    if (lat_on) inject_cycle_.resize(kept);
  };

  // The phases inline into one out-of-line cycle body per hop width. Left
  // to itself, GCC outlines inject and compact and inlines the rest into
  // the skeleton, which grew the object's text by ~5 KB.
  cycle_loop(
      run, result, [&] { return !feed.exhausted() || !ce_.empty(); },
      [&](std::uint32_t cycle, const FaultState::CycleFaults*,
          bool show_carried) FT_NOINLINE {
        want_carried_ = show_carried || faulted_tally;
        CycleCounts n;
        inject(cycle, n);
        n.pending_before = ce_.size();
        // Messages parked in backoff are alive but do not contend; without
        // a retry policy every pending message was seeded, so attempts ==
        // pending_before.
        n.attempts = contenders;
        if (trace) trace_attempts(cycle, n.pending_before);
        if (show_carried) std::fill(carried_.begin(), carried_.end(), 0);
        sweep(cycle, n);
        if (adaptive_on) feedback();
        if (trace) trace_outcomes(cycle);
        compact(cycle, n);
        return n;
      });
  return result;
}

EngineResult CycleEngine::run_fifo(const PathSet& paths,
                                   EngineObserver* observer) {
  EngineResult result;
  const RunFrame run = begin_run(observer);
  const bool trace = run.trace;
  const bool lat_on = run.lat_on;
  const std::size_t num_channels = graph_.num_channels();
  const std::uint32_t* chans = paths.channels().data();
  const std::uint32_t* offs = paths.offsets().data();
  std::vector<ChunkedRing> queues(num_channels);
  // Absolute cursor of each message within the CSR buffer; message i is
  // delivered when its cursor reaches offs[i + 1].
  std::vector<std::uint32_t> pos(paths.size());
  carried_.assign(num_channels, 0);

  // Every message is queued at its first channel before round 1. FIFO
  // ignores stages (flat graphs put every channel at stage 0), so a path
  // need only name known channels.
  const auto nch = static_cast<std::uint32_t>(check_tbl_.size());
  std::size_t in_flight = 0;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    const auto id = static_cast<std::uint32_t>(i);
    check_path(check_tbl_.data(), nch, chans + offs[i], chans + offs[i + 1],
               false);
    pos[i] = offs[i];
    if (offs[i] == offs[i + 1]) {
      ++result.delivered;  // local message, finishes at round 0
      if (trace) {
        observer->on_message_event(
            {MessageEventKind::Inject, id, 0, kNoChannel});
        observer->on_message_event(
            {MessageEventKind::Deliver, id, 0, kNoChannel});
      }
      continue;
    }
    queues[chans[offs[i]]].push(id);
    ++in_flight;
    if (trace) {
      observer->on_message_event(
          {MessageEventKind::Inject, id, 0, chans[offs[i]]});
    }
  }

  // Each round every channel forwards up to its capacity in FIFO order,
  // in ascending channel order (the order of its trace events and latency
  // samples); arrivals are buffered so a message moves at most one hop
  // per round. A down channel forwards nothing (its queue simply waits), a
  // browned-out one forwards fewer.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> arrivals;
  cycle_loop(
      run, result, [&] { return in_flight > 0; },
      [&](std::uint32_t round, const FaultState::CycleFaults* cf, bool) {
        CycleCounts n;
        n.pending_before = in_flight;
        {
          // The round's sweep is serial: it counts as spine.
          const PhaseSpan span(time_phases_, ph_spine_);
          arrivals.clear();
          for (std::size_t lid = 0; lid < num_channels; ++lid) {
            ChunkedRing& q = queues[lid];
            const std::uint64_t cap = active_limit_[lid];
            std::uint32_t forwarded = 0;
            for (; forwarded < cap && !q.empty(); ++forwarded) {
              const std::uint32_t msg = q.pop();
              if (trace) {
                observer->on_message_event({MessageEventKind::Hop, msg, round,
                                            static_cast<std::uint32_t>(lid)});
              }
              if (++pos[msg] == offs[msg + 1]) {
                result.latency_sum += round;
                ++n.delivered;
                // Finish round vs the path's contention-free round count: a
                // message that never queued behind anyone has stretch 1.
                if (lat_on) {
                  lat_samples_.push_back({round, offs[msg + 1] - offs[msg]});
                }
                if (trace) {
                  observer->on_message_event(
                      {MessageEventKind::Deliver, msg, round,
                       static_cast<std::uint32_t>(lid)});
                }
              } else {
                arrivals.emplace_back(chans[pos[msg]], msg);
              }
            }
            n.hops += forwarded;
            carried_[lid] = forwarded;
            n.peak_queue =
                std::max(n.peak_queue, static_cast<std::uint32_t>(q.size()));
          }
          for (const auto& [lid, msg] : arrivals) queues[lid].push(msg);
        }
        // A round may legitimately stall while faults hold channels down;
        // the no-progress invariant only applies at full health.
        FT_CHECK_MSG(n.hops > 0 || (cf != nullptr && cf->channels_down > 0),
                     "FIFO engine made no progress");
        n.attempts = n.hops;
        in_flight -= n.delivered;
        return n;
      });
  if (result.gave_up && trace) {
    const auto last_round = static_cast<std::uint32_t>(result.cycles);
    for (std::size_t lid = 0; lid < num_channels; ++lid) {
      ChunkedRing& q = queues[lid];
      while (!q.empty()) {
        observer->on_message_event({MessageEventKind::GiveUp, q.pop(),
                                    last_round,
                                    static_cast<std::uint32_t>(lid)});
      }
    }
  }
  return result;
}

}  // namespace ft
