//===- runtime/Safepoint.h - GC phase machine and rendezvous ---*- C++ -*-===//
//
// Part of the dtbgc project (Barrett & Zorn DTB reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The collector/mutator handshake vocabulary for the multi-threaded
/// mutator runtime (runtime/Mutator.h): the heap-global *phase machine*
/// and the states a registered MutatorContext moves through.
///
/// Phase machine (per Heap, driven by whichever thread owns the stopped
/// world):
///
///           store buffered                   store -> sink directly
///   +----------------+   rendezvous   +------------+   trace done
///   | NOT_COLLECTING | -------------> | COLLECTING | -------------+
///   +----------------+                +------------+              |
///           ^                                                     v
///           |            world released              +-----------+
///           +------------------------------------- --| RESTORING |
///                                                    +-----------+
///                                                store -> sink directly
///
///  * NOT_COLLECTING — mutators run freely. Per-context write barriers
///    *buffer* forward-in-time stores locally (lock-free) and flush them
///    into the shared RememberedSet sink at capacity or at the next
///    safepoint, so the allocation/store fast paths take no lock.
///  * COLLECTING — the world is stopped (every context counted out or
///    parked) and the trace runs; any store issued now (by the collector
///    or a safepoint callback driving a context) goes to the sink
///    immediately, because the trace consumes the set in this phase.
///  * RESTORING — post-trace bookkeeping (sweep accounting, remembered-
///    set rebuild, publication); stores still go straight to the sink.
///
/// Count-in / count-out: a context *counts in* (enters the Mutating
/// state) at every heap-API call and *counts out* (back to AtSafepoint)
/// when the call returns, so between calls a context is always at a
/// safepoint. A rendezvous therefore waits only on contexts that are
/// mid-operation; long-running mutator loops should still poll
/// MutatorContext::safepoint() so a count-in blocked on an open
/// rendezvous is reached promptly.
///
/// The records at the end of this file (the last rendezvous, the
/// cumulative TTSP attribution, the heap-level runtime counters) are plain
/// data the heap keeps current whether or not the telemetry recorder is
/// enabled; the recorder only adds events and registry metrics on top.
///
//===----------------------------------------------------------------------===//

#ifndef DTB_RUNTIME_SAFEPOINT_H
#define DTB_RUNTIME_SAFEPOINT_H

#include "support/Statistics.h"

#include <cstdint>

namespace dtb {
namespace runtime {

/// The heap-global collection phase (see the file comment's diagram).
enum class GcPhase : uint8_t {
  NotCollecting,
  Collecting,
  Restoring,
};

/// Stable lowercase identifier ("not-collecting", "collecting",
/// "restoring").
inline const char *gcPhaseName(GcPhase Phase) {
  switch (Phase) {
  case GcPhase::NotCollecting:
    return "not-collecting";
  case GcPhase::Collecting:
    return "collecting";
  case GcPhase::Restoring:
    return "restoring";
  }
  return "unknown";
}

/// Where a registered MutatorContext stands relative to the rendezvous
/// protocol.
enum class MutatorState : uint8_t {
  /// Inside a heap-API call (counted in); a rendezvous must wait for the
  /// call to finish.
  Mutating,
  /// Between calls (counted out); the collector never waits on it.
  AtSafepoint,
  /// Explicitly parked (MutatorContext::park): like AtSafepoint, but the
  /// context promises not to count in until unpark(), which blocks while
  /// a rendezvous is open.
  Parked,
};

/// Stable lowercase identifier ("mutating", "at-safepoint", "parked").
inline const char *mutatorStateName(MutatorState State) {
  switch (State) {
  case MutatorState::Mutating:
    return "mutating";
  case MutatorState::AtSafepoint:
    return "at-safepoint";
  case MutatorState::Parked:
    return "parked";
  }
  return "unknown";
}

/// How the last context to arrive at a rendezvous was found. "Mid-op"
/// means the collector observed it Mutating at least once while waiting;
/// "parked"/"polling" contexts were already counted out when first
/// scanned (Parked vs. AtSafepoint respectively).
enum class StragglerKind : uint8_t {
  /// No contexts were registered (record is empty).
  None,
  /// Counted out between calls (or blocked at a safepoint poll).
  Polling,
  /// Explicitly parked.
  Parked,
  /// Observed inside a heap op; the rendezvous waited for its count-out.
  MidOp,
};

inline const char *stragglerKindName(StragglerKind Kind) {
  switch (Kind) {
  case StragglerKind::None:
    return "none";
  case StragglerKind::Polling:
    return "polling";
  case StragglerKind::Parked:
    return "parked";
  case StragglerKind::MidOp:
    return "mid-op";
  }
  return "unknown";
}

/// Snapshot of the most recent safepoint rendezvous, kept by the heap for
/// the GC log's safepoint line, HeapDump, and tests (always compiled;
/// updating it is O(1) per rendezvous on top of the publication work the
/// rendezvous does anyway).
///
/// The deterministic time-to-safepoint (TtspMillis) is the machine-model
/// cost (core::MachineModel::pauseMillisForTracedBytes) of the pending
/// allocation bytes the rendezvous drained: the work mutators accumulated
/// since the last safepoint is exactly what the stop had to wait behind,
/// so it replays bit-identically across thread counts and platforms. The
/// *wall* latency of the same rendezvous stays quarantined in the
/// `wall.runtime.safepoint_rendezvous_ns` telemetry channel.
struct SafepointRendezvousRecord {
  /// Rendezvous serial (== MutatorRuntimeStats::SafepointRendezvous).
  uint64_t Serial = 0;
  /// Allocation clock when the world stopped.
  uint64_t Time = 0;
  /// Contexts that arrived.
  uint64_t Contexts = 0;
  /// Pending allocations published by this rendezvous.
  uint64_t PendingAllocObjects = 0;
  /// Gross bytes of those pending allocations (the TTSP input).
  uint64_t PendingAllocBytes = 0;
  /// Barrier-buffer entries flushed into the remembered set.
  uint64_t FlushedBarrierEntries = 0;
  /// Deterministic time-to-safepoint (see above).
  double TtspMillis = 0.0;
  /// Context id (MutatorContext::id) of the last arriver.
  uint64_t StragglerContext = 0;
  /// How that straggler was found.
  StragglerKind Straggler = StragglerKind::None;
};

/// Cumulative deterministic TTSP attribution, snapshot via
/// Heap::safepointTtspStats(). Unlike the telemetry registry it
/// accumulates whether or not the recorder is enabled — like
/// ScavengeHistory — so the bench driver can export exact percentiles
/// without enabling the event recorder. It keeps two samples per
/// rendezvous for the heap's whole life.
struct SafepointTtspStats {
  /// One deterministic TTSP sample per rendezvous.
  SampleSet TtspMillis;
  /// One pending-allocation-bytes sample per rendezvous.
  SampleSet PendingBytes;
  /// Straggler classification tallies.
  uint64_t StragglerMidOp = 0;
  uint64_t StragglerParked = 0;
  uint64_t StragglerPolling = 0;
};

/// Heap-level counters for the mutator runtime, snapshot via
/// Heap::mutatorStats(). Deterministic under single-threaded driving.
/// The Tlab* counters describe context TLABs only; the blocks a copying
/// heap carves for itself are reported by Heap::heapBlocksResident().
struct MutatorRuntimeStats {
  /// Rendezvous the heap completed (collections, safepoint callbacks).
  uint64_t SafepointRendezvous = 0;
  /// TLAB blocks carved from the refill lock.
  uint64_t TlabRefills = 0;
  /// Gross bytes of all blocks ever carved, TlabRefills *
  /// Heap::BlockBytes (filled by the snapshot, not counted).
  uint64_t TlabCarvedBytes = 0;
  /// Bytes left unused in retired blocks (carve granularity waste).
  uint64_t TlabWastedBytes = 0;
  /// Blocks whose storage was returned to the OS (last object died after
  /// retirement; never in quarantine mode).
  uint64_t TlabBlocksFreed = 0;
  /// TLAB blocks currently resident (carved minus freed).
  uint64_t TlabBlocksResident = 0;
  /// Objects moved from per-context pending lists into the heap's
  /// birth-ordered allocation list at safepoints.
  uint64_t PublishedObjects = 0;
  /// Barrier-buffer flushes into the shared remembered-set sink.
  uint64_t BarrierFlushes = 0;
  /// Entries those flushes delivered.
  uint64_t BarrierFlushedEntries = 0;
};

} // namespace runtime
} // namespace dtb

#endif // DTB_RUNTIME_SAFEPOINT_H
