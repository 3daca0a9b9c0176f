// Wall-clock phase decomposition of a timed engine run. Split out of
// engine.hpp so topology adapters can surface the profile in their result
// structs without depending on the full engine interface.
#pragma once

#include <cstdint>

namespace ft {

/// Wall-clock decomposition of a timed run (EngineOptions::time_phases)
/// into its parallelizable and inherently serial parts. In a sharded run
/// `up`/`down` cover the up- and down-band shard sweeps,
/// `spine_parallel` the spine stages swept on the thread pool
/// (EngineOptions::parallel_spine), and `spine` the spine stages swept
/// on the coordinating thread plus every serial outbox distribution. A
/// one-shard run's whole stage sweep is serial and counts as `spine`, as
/// do a fault-free tally pass and every FIFO round's sweep. `compact` is
/// the block-parallel compaction and reseed of heavy pooled cycles. `coord` is everything else in
/// the cycle loop — injection, serial compaction, fault bookkeeping,
/// observer callbacks — which is serial in every mode.
struct EnginePhaseProfile {
  double up_seconds = 0.0;
  double spine_seconds = 0.0;
  double spine_parallel_seconds = 0.0;
  double down_seconds = 0.0;
  double compact_seconds = 0.0;
  double coord_seconds = 0.0;
  std::uint64_t timed_cycles = 0;  ///< cycles covered (0 = timing was off)
  double parallel_seconds() const {
    return up_seconds + spine_parallel_seconds + down_seconds +
           compact_seconds;
  }
  double serial_seconds() const { return spine_seconds + coord_seconds; }
  double total_seconds() const {
    return parallel_seconds() + serial_seconds();
  }
  /// The measured Amdahl serial fraction: serial time over total timed
  /// time (0 when nothing was timed).
  double serial_fraction() const {
    const double t = total_seconds();
    return t > 0.0 ? serial_seconds() / t : 0.0;
  }
};

}  // namespace ft
