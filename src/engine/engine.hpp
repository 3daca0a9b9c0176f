// The unified delivery-cycle engine. One instrumented simulation core runs
// the paper's batched cycle loop (Section II: contending bit-serial
// traffic, loss + acknowledgment + retry) for every router in the
// repository; the per-topology simulators are thin adapters that compile
// their topology into a ChannelGraph and their messages into EnginePaths.
//
// Policy points:
//   * Contention — how a channel resolves more contenders than wires:
//       RandomSubset  a uniformly random cap-subset survives, the rest are
//                     lost and retry next cycle (the paper's concentrator
//                     + acknowledgment mechanism; `alpha` models partial
//                     concentrators, Section IV);
//       Fifo          store-and-forward rounds with per-channel FIFO
//                     queues, up to cap(c) forwards per round (competitor
//                     networks, k-ary n-trees);
//       Tally         no arbitration, pure occupancy accounting (offline
//                     schedule replay and utilization analytics). Without
//                     an active fault plan no channel can reject, so a
//                     tally cycle skips the stage sweep: one pass over the
//                     live messages counts every hop (tally_sweep).
//   * Channel model — the ChannelGraph handed to the constructor
//     (engine/fat_tree_model.hpp, nets/Network, kary/KaryTree adapters).
//
// Both modes run one per-cycle skeleton (cycle_loop): the cycle-index
// check, the fault advance, the observer's snapshot, the phase timing and
// the max_cycles cap exist once. Its body is either the lossy/tally cycle
// in named phases — inject, sweep, feedback, compact (one compaction body,
// retry-aware by instantiation) — or one FIFO store-and-forward round.
// Both validate every injected hop against the same channel table.
//
// One executor runs the lossy/tally cycle: the subtree-sharded segment
// loop, whose shards sweep their own channels (fused_stage), on a
// persistent thread pool when the engine is parallel and the graph
// carries a shard partition. A serial run is one shard swept inline.
// Results are identical at every shard count and thread count: every
// random arbitration draws from a private stream seeded by (seed, cycle,
// channel), so no decision depends on sweep order or thread scheduling.
// FIFO rounds always run serially.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "engine/channel_graph.hpp"
#include "engine/fault_plan.hpp"
#include "engine/message_source.hpp"
#include "engine/observer.hpp"
#include "engine/phase_profile.hpp"
#include "util/thread_pool.hpp"

namespace ft {

/// Internal injection schedule abstraction: hands run_lossy the next batch
/// to inject, one cycle at a time (defined in engine.cpp; implementations
/// wrap one PathSet or a MessageSource).
class BatchFeed;

enum class ContentionPolicy : std::uint8_t { RandomSubset, Fifo, Tally };

/// How a lossy (RandomSubset) channel assigns its wires when contended —
/// the routing-discipline seam. Every policy resolves an over-limit
/// bucket from the same sorted contender list and the same per-(seed,
/// cycle, channel) stream, so serial, sharded-parallel and parallel-spine
/// execution stay bit-identical for all of them. Uncontended channels
/// admit everyone under every policy.
enum class RoutingPolicy : std::uint8_t {
  /// The paper's oblivious lottery (Section II): a uniformly random
  /// cap-subset of the contenders survives. Byte-identical to the
  /// pre-seam engine; all goldens pin this policy.
  ObliviousRandom,
  /// Deterministic D-mod-k-style wire assignment: a contender bids for
  /// wire (destination-key mod limit) and the lowest pending index wins
  /// each wire. Destination-collapsed traffic can idle most wires —
  /// the static-path pathology the adversarial generators target.
  DeterministicDmod,
  /// Randomized load balancing (Wang et al., arXiv:1708.09135): each
  /// contender hashes (arbitration stream, pending index) to a uniformly
  /// random wire; wire collisions lose. Balls-into-bins rather than a
  /// concentrator, so a few wires idle under heavy contention.
  RandomLoadBalanced,
  /// Oblivious winner selection plus congestion feedback (Rocher-Gonzalez
  /// et al., arXiv:2502.00597): per-channel queue-occupancy pressure is
  /// folded into a hot-streak counter on the serial coordination path
  /// (reusing the telemetry probe's channel-scan list), and losers at a
  /// persistently hot channel desynchronize their retries over a widening
  /// window. Engages the retry machinery; see DESIGN.md, "Routing
  /// disciplines".
  AdaptiveOccupancy,
};

struct EngineOptions {
  ContentionPolicy contention = ContentionPolicy::RandomSubset;
  /// RandomSubset: a channel of capacity c accepts floor(alpha * c)
  /// messages per cycle, floor 1 (alpha = 1 is the ideal concentrator,
  /// 3/4 the partial concentrators of Section IV).
  double alpha = 1.0;
  /// Wire-assignment discipline for contended RandomSubset channels.
  /// ObliviousRandom reproduces the pre-seam engine bit for bit; the
  /// other disciplines exist to be raced (bench/exp_routing_race).
  /// Ignored by Fifo and Tally.
  RoutingPolicy policy = RoutingPolicy::ObliviousRandom;
  /// Stop after this many cycles/rounds (0 = unbounded). A lossy run that
  /// still has pending messages when the cap is hit sets
  /// EngineResult::gave_up instead of looping forever.
  std::uint32_t max_cycles = 0;
  /// Seed for RandomSubset arbitration streams.
  std::uint64_t seed = 0;
  /// Lossy/tally on a graph with a shard partition: sweep one shard per
  /// subtree, on a thread pool when more than one worker is resolved.
  /// Otherwise (serial, no shard partition, FIFO) the cycle runs as one
  /// shard on the calling thread and no pool starts. Identical results
  /// at any shard and thread count.
  bool parallel = false;
  /// Worker threads for parallel mode (0 = hardware concurrency). One
  /// worker starts no pool: the shards sweep on the calling thread.
  std::size_t threads = 0;
  /// Sharded executor only: sweep a heavy spine stage's shards on the
  /// thread pool instead of one after another on the coordinating thread
  /// (each spine channel belongs to one shard and its lottery is keyed
  /// by (seed, cycle, channel), so the shards are independent — see
  /// DESIGN.md, "Spine parallelization"). On by default; exists as a
  /// switch so the Amdahl cost of a serial spine stays measurable
  /// (exp_scaleout compares both).
  bool parallel_spine = true;
  /// Per-message retry policy (lossy/tally modes; FIFO rounds have no
  /// losses to retry, so it is ignored there). Off by default.
  RetryPolicy retry;
  /// Transient mid-run faults, consulted once per delivery cycle from the
  /// coordinating thread (see engine/fault_plan.hpp). Not owned; must
  /// outlive every run. nullptr or an empty plan costs nothing.
  const FaultPlan* fault_plan = nullptr;
  /// Wall-clock phase timing (EngineResult::phases): splits each cycle
  /// into the parallel up/down sweeps, the serial spine band, and the
  /// serial coordination remainder — the measured Amdahl decomposition of
  /// the sharded executor. Timing never changes simulation results; it is
  /// off by default because steady_clock reads are not free at small n.
  bool time_phases = false;
};

struct EngineResult {
  /// Delivery cycles (lossy) or rounds (FIFO). 64-bit: a heavily faulted
  /// or backoff-parked run at n = 2^20 can legitimately exceed what the
  /// old 32-bit counter assumed; the engine's internal cycle index stays
  /// 32-bit (the arbitration-stream domain) and is overflow-checked.
  std::uint64_t cycles = 0;
  bool gave_up = false;      ///< max_cycles hit with messages undelivered
  std::uint64_t delivered = 0;
  std::uint64_t total_attempts = 0;  ///< path attempts (lossy), hops (FIFO)
  std::uint64_t total_losses = 0;    ///< attempts killed by contention
  /// Successful channel traversals, every mode: each channel a message
  /// crosses (wins arbitration at, is forwarded over, or tallies on)
  /// counts one hop. For a completed FIFO or tally run this equals the
  /// sum of path lengths; lossy runs additionally count the partial
  /// prefix a message crossed before losing a lottery.
  std::uint64_t total_hops = 0;
  double latency_sum = 0.0;          ///< FIFO: sum of per-message finish rounds
  std::uint32_t max_queue = 0;       ///< FIFO: peak queue depth
  /// Messages that exhausted their RetryPolicy (max_attempts or deadline)
  /// and were dropped; disjoint from `delivered`.
  std::uint64_t messages_given_up = 0;
  std::uint64_t total_backoffs = 0;  ///< retry-backoff parkings
  // Dynamic-fault accounting (zero without an active FaultPlan).
  std::uint64_t fault_down_events = 0;
  std::uint64_t fault_up_events = 0;
  /// Correlated subtree-kill events (scheduled or storm-drawn domain
  /// strikes); each also contributes its channels to fault_down_events.
  std::uint64_t subtree_kill_events = 0;
  /// Channel-cycles spent below full admission limit (down or browned
  /// out): the time-degraded numerator of availability.
  std::uint64_t degraded_channel_cycles = 0;
  /// Tally only: channel-cycles whose tallied load exceeded the channel's
  /// capacity. Zero iff every injected batch that completed in its cycle
  /// fit its wire budget (the offline schedule check).
  std::uint64_t capacity_violations = 0;
  /// Wall-clock phase decomposition; all-zero unless
  /// EngineOptions::time_phases was set.
  EnginePhaseProfile phases;
  std::vector<std::uint32_t> delivered_per_cycle;
};

class CycleEngine {
 public:
  explicit CycleEngine(ChannelGraph graph, const EngineOptions& opts = {});
  ~CycleEngine();

  CycleEngine(const CycleEngine&) = delete;
  CycleEngine& operator=(const CycleEngine&) = delete;

  const ChannelGraph& graph() const { return graph_; }

  /// Runs one batch of messages to completion. Lossy/tally: all messages
  /// contend from cycle 1 and losers retry until delivered (or the engine
  /// gives up). Fifo: synchronous store-and-forward rounds.
  EngineResult run(const PathSet& paths, EngineObserver* observer = nullptr);

  /// Streaming run(): consumes the source chunk by chunk, injecting every
  /// path at cycle 1, bit-identical to run() on the concatenation of all
  /// chunks — but peak memory is O(chunk) instead of O(total paths) in the
  /// lossy/tally modes. FIFO mode needs every queue seeded before round 1,
  /// so it ingests the stream into one PathSet first (still cheaper than a
  /// vector-of-vectors route list: 4 bytes per hop, two allocations).
  EngineResult run_stream(MessageSource& source,
                          EngineObserver* observer = nullptr);

  /// Lossy/tally only: chunk i is injected at cycle i + 1 (the offline
  /// schedule replay: one chunk per scheduled delivery cycle). Losers of
  /// chunk i retry alongside chunk i + 1. Every chunk opens a cycle, so a
  /// valid offline schedule replays in exactly schedule.num_cycles()
  /// cycles with zero losses.
  EngineResult run_batched_stream(MessageSource& source,
                                  EngineObserver* observer = nullptr);

 private:
  /// One contended (over-limit) bucket in fused_stage: channel plus its
  /// [off, off + count) slice of the sweep's arena.
  struct OverBucket {
    std::uint32_t chan;
    std::uint32_t off;
    std::uint32_t count;
  };

  /// Per-shard execution state of the segment loop: a shard owns the
  /// worklists, arena and sort scratch of every channel the graph's shard
  /// table assigns to it (every channel, when the run is one shard), so
  /// each segment of a cycle's sweep runs shard-parallel with no shared
  /// mutable state. The outbox collects survivors whose next channel
  /// belongs to another shard; the coordinating thread distributes it
  /// between segments. Cache-line aligned: neighbouring shards' worklist
  /// headers and loss/hop counters are written by different workers every
  /// cycle, and letting them share a line costs real coherence traffic at
  /// high shard counts.
  struct alignas(64) ShardState {
    /// stage_list[s] holds the shard's live messages whose next channel
    /// lies in stage s, packed as (msg << 32) | channel so bucket building
    /// never re-derives the channel through the message table and the
    /// CSR buffer. Seeded once per cycle from each message's first hop;
    /// stage s arbitration appends its survivors directly to later stages
    /// (paths have strictly increasing stages), so a cycle costs O(hops)
    /// instead of O(stages × pending). List order is unobservable: a
    /// later bucket either sorts its contenders before the lottery or is
    /// under limit, where order decides nothing.
    std::vector<std::vector<std::uint64_t>> stage_list;
    /// stage_touched[s]: the distinct channels of stage s with a nonzero
    /// bucket count.
    std::vector<std::vector<std::uint32_t>> stage_touched;
    std::vector<std::uint32_t> arena;
    std::vector<OverBucket> over;
    /// Bit-per-pending-message scratch for the bitmap sort of large
    /// contended buckets (engine.cpp sort_by_bitmap). Kept all-zero
    /// between uses: extraction clears each word it reads.
    std::vector<std::uint64_t> sort_bits;
    std::vector<std::uint64_t> outbox;  ///< packed (msg << 32) | channel
    std::uint64_t losses = 0;
    std::uint64_t hops = 0;
    std::uint64_t violations = 0;  ///< tally: channels carried over capacity
    /// Tally only: the channels of the stage being swept, kept for the
    /// violation count after the sweep clears its touched list.
    std::vector<std::uint32_t> tally_chans;
  };

  /// Base pointer of the stage lookup table for the given hop width
  /// (stage16_ on the narrow path, the graph's table on the wide one).
  /// Hot loops hoist it into a local so worklist reallocations never
  /// force a reload.
  template <typename ChanT>
  const auto* stage_table() const;
  /// The fused stage algorithm (bucket counting, arbitration, accounting,
  /// survivor forwarding in two sweeps) over one stage of shard `st`'s
  /// worklists, on its scratch and counters — the one lossy stage sweep.
  /// Software-pipelined (prefetching) on the wide u32 path only.
  /// `forward` is invoked as forward(msg, next_channel) for every surviving message with hops
  /// left and routes it to its next worklist.
  /// Must inline into its caller: the forward closures capture
  /// caller-local hoisted pointers by reference, and an out-of-line
  /// instantiation reads them through the closure on every inner-loop
  /// iteration (measured ~25% of lossy throughput when the compiler
  /// declined on size alone).
  template <typename ChanT, typename Forward>
#if defined(__GNUC__) || defined(__clang__)
  __attribute__((always_inline))
#endif
  inline void
  fused_stage(const ChanT* chan, std::uint32_t cycle,
              std::vector<std::uint64_t>& list,
              std::vector<std::uint32_t>& touched, ShardState& st,
              Forward&& forward);
  /// One full cycle's stage sweep: a loop over segments (the up band, each
  /// spine stage, the down band), each a shard sweep followed by the
  /// serial outbox distribution, then a per-shard counter reduction (see
  /// DESIGN.md, "Scale-out"). One shard's up band covers every stage. A
  /// (faulted) tally counts each swept stage's channels carried over
  /// capacity into cycle_violations.
  template <typename ChanT>
  void run_cycle_sharded(const ChanT* chan, std::uint32_t cycle,
                         std::uint64_t& cycle_losses,
                         std::uint64_t& cycle_hops,
                         std::uint64_t& cycle_violations);
  /// A fault-free Tally cycle's whole sweep: every live message crosses
  /// its remaining hops (occupancy into carried_, hop totals into
  /// cycle_hops, channels over capacity into cycle_violations) and its
  /// cursor moves to end. No worklists, buckets or arbitration — no
  /// channel can reject.
  template <typename ChanT>
  void tally_sweep(const ChanT* chan, std::uint64_t& cycle_hops,
                   std::uint64_t& cycle_violations);
  /// Block-parallel compaction and reseed of a sharded, pooled cycle
  /// with no retry policy, tracing or latency sampling (see engine.cpp).
  /// Runs `compact(lo, hi, rank, ce_out, begin_out, first_out, seed)`,
  /// the lossy cycle's one compaction body, once per block; returns the
  /// number of messages kept.
  template <typename ChanT, typename Compact>
  std::size_t compact_pooled(const Compact& compact);

  /// Per-run state of the shared cycle skeleton, set up by begin_run.
  struct RunFrame {
    EngineObserver* observer = nullptr;
    bool trace = false;   ///< observer wants per-message events
    bool lat_on = false;  ///< observer wants latency samples
    std::unique_ptr<FaultState> faults;  ///< null without an active plan
  };
  /// What one executor's cycle body did; the skeleton folds it into the
  /// result and the observer's snapshot.
  struct CycleCounts {
    std::size_t pending_before = 0;
    std::uint64_t attempts = 0;
    std::uint64_t losses = 0;
    std::uint64_t hops = 0;
    std::uint32_t delivered = 0;
    std::uint32_t backoffs = 0;
    std::uint32_t gave_up = 0;
    std::uint32_t peak_queue = 0;
  };
  /// The per-run setup both executors share: the observer's opt-ins, the
  /// FaultState, and the admission-limit and phase-timer resets.
  RunFrame begin_run(EngineObserver* observer);
  /// The one delivery-cycle loop (Section II) both executors run. While
  /// pending() holds, each cycle checks the cycle index, advances the
  /// fault plan, calls body(cycle, faults, show_carried) — the executor's
  /// inject/sweep/compact or store-and-forward round — then folds its
  /// CycleCounts into `result`, hands the observer its snapshot, charges
  /// the untimed remainder to coord and applies max_cycles.
  template <typename Pending, typename Body>
  void cycle_loop(const RunFrame& run, EngineResult& result,
                  const Pending& pending, const Body& body);
  EngineResult run_lossy(BatchFeed& feed, EngineObserver* observer);
  template <typename ChanT>
  EngineResult run_lossy_t(std::vector<ChanT>& chan_buf, BatchFeed& feed,
                           const RunFrame& run);
  EngineResult run_fifo(const PathSet& paths, EngineObserver* observer);

  ChannelGraph graph_;
  EngineOptions opts_;
  std::unique_ptr<ThreadPool> pool_;  ///< live for the engine's lifetime

  /// One shard per subtree: engaged when the graph carries a shard
  /// partition, the engine is parallel and the policy is lossy or tally;
  /// otherwise shards_ holds one shard that owns every channel. One-shard
  /// and sharded runs are bit-identical — every channel's contender set
  /// and pinned (seed, cycle, channel) lottery are the same — so this is
  /// purely an execution strategy, not a model change.
  bool sharded_ = false;
  std::vector<ShardState> shards_;

  /// Per-channel admission limit, fixed for the engine's lifetime:
  /// floor(alpha * capacity) floor 1 (RandomSubset), unlimited (Tally),
  /// capacity (Fifo), all clamped to 2^32 - 1. The clamp is lossless:
  /// contender counts and queue lengths are bounded by the number of live
  /// messages, which is below 2^32. Precomputed so the per-cycle loops
  /// never touch doubles, and 32-bit so the table is half as tall.
  std::vector<std::uint32_t> limit_;

  /// Admission limits in force for the current cycle: limit_.data()
  /// without a fault plan, the FaultState's effective limits (0 = channel
  /// down) with one. Every arbitration site reads limits through this
  /// pointer, so the fault-free hot path is unchanged.
  const std::uint32_t* active_limit_ = nullptr;

  /// Per-message retry state, maintained only when opts_.retry.enabled():
  /// attempts_[i] counts the cycles message i has contended in, wake_[i]
  /// is the cycle it next contends (== current cycle while active, a
  /// future cycle while parked in backoff). Compacted with ce_.
  std::vector<std::uint32_t> attempts_;
  std::vector<std::uint32_t> wake_;

  /// Graphs with at most 2^16 channels and stages — every simulator in
  /// the repository — run the lossy loop on 16-bit hop and stage buffers:
  /// half the random-access footprint of the per-cycle path walk, which
  /// is what the L2 working set is made of.
  bool narrow_ = false;
  std::vector<std::uint16_t> stage16_;   ///< narrow copy of graph_.stage

  /// Tally engines only: each channel's capacity, clamped to 2^32 - 1
  /// like limit_ (lossless for the same reason). Violations are counts
  /// over it. A fault-free tally pass counts it down and back up within
  /// the pass, so between passes it always holds the capacity; a faulted
  /// tally only reads it.
  std::vector<std::uint32_t> tally_room_;

  /// Path validation table: stage + 1 for a usable channel, 0 for an
  /// unknown one (zero capacity), one 32-bit lookup per injected hop in
  /// both executors. A lossy path's stages must strictly increase — the
  /// worklist invariant the stage sweep relies on: a message's next
  /// channel always lies in a later stage, so each message is bucketed
  /// once per cycle — and stage + 1 increases exactly when stage does.
  /// FIFO ignores stages and checks only that each channel is known.
  std::vector<std::uint32_t> check_tbl_;

  // All per-run/per-cycle scratch below is a member so repeated run()
  // calls on one engine reach a steady state with no allocation: vectors
  // are cleared, never shrunk.
  std::vector<std::uint32_t> chan_buf_;   ///< injected CSR hops (wide)
  std::vector<std::uint16_t> chan_buf16_; ///< injected CSR hops (narrow)
  /// Live messages, injection order, struct-of-arrays. The stage sweeps
  /// index messages randomly but only ever touch the packed
  /// (end << 32) | cursor word — advance is one 64-bit increment, the
  /// delivered test one compare — so splitting the cold fields out halves
  /// the random-access footprint of a cycle. begin_ (cursor rewind) and
  /// id_ (trace events) are read in index order once per cycle at most.
  std::vector<std::uint64_t> ce_;     ///< (end << 32) | cursor per message
  std::vector<std::uint32_t> begin_;  ///< first hop, index into chan_buf_
  std::vector<std::uint32_t> id_;     ///< injection-order message id
  /// First hop of each live message, cached at injection so the per-cycle
  /// reseed never chases the (cold) CSR buffer. Compacted with ce_.
  std::vector<std::uint32_t> first_chan_;
  /// Scatter targets of the block-parallel compaction (sharded, pooled
  /// cycles only): kept messages land here at their stable rank and the
  /// pairs swap with ce_/begin_/first_chan_, because in-place stable
  /// compaction would let one block overwrite words another block has
  /// not read yet.
  std::vector<std::uint64_t> ce_next_;
  std::vector<std::uint32_t> begin_next_;
  std::vector<std::uint32_t> first_chan_next_;
  /// Block-parallel compaction scratch: block b's first output rank
  /// (entry b, after a prefix scan of the per-block loser counts; entry
  /// num_blocks holds the total), and its reseeds staged per owning
  /// shard (slot b * num_shards + shard).
  std::vector<std::uint32_t> block_rank_;
  std::vector<std::vector<std::uint64_t>> seed_stage_;

  // Bucket state. Contender counts accumulate at the forward/seed sites
  // (channels partition across stages, so counts for a later stage are
  // stable by the time it runs): bucket_pos_[c] is the count of channel
  // c's contenders, then a fill cursor or under-limit sentinel during the
  // stage's sweep, and is reset to zero (sticky) when the stage ends.
  // bucket_pos_ is shared: a channel's count is only written by the
  // shard that owns it, or by the coordinating thread between segments.
  std::vector<std::uint32_t> bucket_pos_;
  /// AdaptiveOccupancy state. over_pressure_[c] is set (by the sweep that
  /// arbitrated channel c — only c's owner ever does, so writes never
  /// race) when c's bucket ran over limit this cycle; the serial
  /// end-of-cycle scan folds it into hot_streak_[c]
  /// (consecutive over-pressure cycles, reset on a calm one) and clears
  /// it. The scan walks adaptive_scan_: the telemetry probe's in-budget
  /// channel list (engine/channel_scan.hpp), built once per engine.
  /// Parking decisions read hot_streak_ only, on the serial compaction
  /// path — occupancy feedback never crosses a thread boundary, which is
  /// what keeps the adaptive policy's parity argument identical to the
  /// oblivious one's.
  std::vector<std::uint32_t> over_pressure_;
  std::vector<std::uint32_t> hot_streak_;
  std::vector<std::uint32_t> adaptive_scan_;

  /// carried_ is only observable through an observer's CycleSnapshot;
  /// without one — or on cycles the observer declines via
  /// wants_channel_state() — the lossy stage loops skip the per-channel
  /// occupancy writes (and the per-cycle clear) entirely. A faulted tally
  /// writes it on every cycle (its violation count reads the swept
  /// channels back) but clears and shows it only on observed cycles.
  bool want_carried_ = true;
  std::vector<std::uint32_t> carried_;  ///< per-channel, current cycle

  /// Latency sampling (observer wants_latency_samples() only): the cycle
  /// each live message was injected in, compacted with ce_, and the
  /// current cycle's delivered samples handed out through the snapshot.
  std::vector<std::uint32_t> inject_cycle_;
  std::vector<LatencySample> lat_samples_;

  /// Phase-timing accumulators (opts_.time_phases only), reset per run
  /// and folded into EngineResult::phases: the stage sweeps add to
  /// up/spine/down from the coordination path, the cycle loop attributes
  /// its remainder to coord.
  bool time_phases_ = false;
  double ph_up_ = 0.0;
  double ph_spine_ = 0.0;
  double ph_spine_par_ = 0.0;  ///< spine stages resolved on the pool
  double ph_down_ = 0.0;
  double ph_compact_ = 0.0;  ///< block-parallel compaction + reseed
  /// Sum of the timed phase accumulators: the cycle loop charges its
  /// remainder (wall time minus the growth of this sum) to coord.
  double timed_sum() const {
    return ph_up_ + ph_spine_ + ph_spine_par_ + ph_down_ + ph_compact_;
  }
};

}  // namespace ft
