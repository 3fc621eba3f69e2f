//===- runtime/Degradation.h - Graceful-degradation events -----*- C++ -*-===//
//
// Part of the dtbgc project (Barrett & Zorn DTB reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structured records of the runtime's graceful-degradation ladder. The
/// paper's collectors honor user constraints (Trace_max, Mem_max); when a
/// constraint *cannot* be met the heap does not abort — it climbs a ladder
/// of progressively more drastic recoveries and records every rung here:
///
///   allocation over HeapLimitBytes
///     1. normal scavenge at the policy's boundary   (EmergencyScavenge)
///     2. emergency FULL collection, TB = 0 — the paper's always-
///        admissible fallback                        (EmergencyFullCollection)
///     3. report OOM to the caller                   (AllocationFailure)
///
///   allocation over HeapLimitBytes *while an incremental cycle is open*
///   (automatic triggering is suspended, so the cycle itself must yield):
///     i1. accelerate — run extra quanta now         (CycleAccelerated)
///     i2. complete-now — drain the cycle when the
///         remaining gray work is bounded            (CycleCompletedEarly)
///     i3. abort the cycle, then fall through to
///         rungs 1–3 above                           (CycleAborted)
///
///   per-quantum pause deadline blown (machine-model cost, or injected
///   watchdog fault) → halve the scavenge budget; after K consecutive
///   violations degrade tracing to a serial shared
///   cursor for the rest of the collection           (WatchdogDeadline)
///
///   remembered-set overflow → drop the set, pessimize the next boundary
///   to 0 and rebuild during that full trace         (RemSetOverflow,
///                                                    BoundaryPessimized)
///
///   unusable/inconsistent policy → FIXED1 fallback  (PolicyFallback)
///
/// Events are queryable via Heap::degradationLog() (a bounded ring of the
/// newest 1,024) and summarized by HeapDump.
///
//===----------------------------------------------------------------------===//

#ifndef DTB_RUNTIME_DEGRADATION_H
#define DTB_RUNTIME_DEGRADATION_H

#include "core/AllocClock.h"

#include <cstdint>
#include <string>

namespace dtb {
namespace runtime {

/// What kind of degradation rung was taken.
enum class DegradationKind : uint8_t {
  /// Allocation pressure triggered an out-of-schedule scavenge at the
  /// policy's boundary (ladder rung 1).
  EmergencyScavenge,
  /// Allocation pressure escalated to a full collection at TB = 0
  /// (ladder rung 2).
  EmergencyFullCollection,
  /// The ladder was exhausted: the allocation was refused and the caller
  /// saw nullptr (ladder rung 3).
  AllocationFailure,
  /// The remembered set overflowed its bound (or its insert faulted) and
  /// was dropped; barrier completeness is suspended until rebuilt.
  RemSetOverflow,
  /// A collection's boundary was forced to 0 (full) to restore soundness
  /// after a remembered-set loss or an injected barrier fault.
  BoundaryPessimized,
  /// A boundary policy could not run (missing/inconsistent demographics,
  /// injected fault, out-of-range answer); a FIXED1/FULL fallback boundary
  /// was used instead.
  PolicyFallback,
  /// Mid-cycle allocation pressure ran extra quanta on the open
  /// incremental cycle (mid-cycle rung i1).
  CycleAccelerated,
  /// Mid-cycle allocation pressure drained the open incremental cycle to
  /// completion because its remaining gray work was bounded (rung i2).
  CycleCompletedEarly,
  /// An open incremental cycle was cancelled — by the mid-cycle pressure
  /// ladder (rung i3), an injected incremental-step fault, or an explicit
  /// abortIncrementalScavenge() call. The heap is restored to a state
  /// observably equivalent to the cycle never having started.
  CycleAborted,
  /// A trace quantum exceeded the configured per-quantum pause deadline
  /// (deterministic machine-model cost) or an injected watchdog fault
  /// fired; the effective scavenge budget was halved, and after K
  /// consecutive violations tracing degrades to a serial shared cursor.
  WatchdogDeadline,
};

inline constexpr unsigned NumDegradationKinds = 10;

/// Stable lowercase identifier for a kind.
inline const char *degradationKindName(DegradationKind Kind) {
  switch (Kind) {
  case DegradationKind::EmergencyScavenge:
    return "emergency-scavenge";
  case DegradationKind::EmergencyFullCollection:
    return "emergency-full-collection";
  case DegradationKind::AllocationFailure:
    return "allocation-failure";
  case DegradationKind::RemSetOverflow:
    return "remset-overflow";
  case DegradationKind::BoundaryPessimized:
    return "boundary-pessimized";
  case DegradationKind::PolicyFallback:
    return "policy-fallback";
  case DegradationKind::CycleAccelerated:
    return "cycle-accelerated";
  case DegradationKind::CycleCompletedEarly:
    return "cycle-completed-early";
  case DegradationKind::CycleAborted:
    return "cycle-aborted";
  case DegradationKind::WatchdogDeadline:
    return "watchdog-deadline";
  }
  return "unknown";
}

/// One rung taken on the degradation ladder.
struct DegradationEvent {
  DegradationKind Kind;
  /// Allocation clock when the rung was taken.
  core::AllocClock Time = 0;
  /// Bytes the triggering allocation asked for (allocation rungs only).
  uint64_t RequestedBytes = 0;
  /// The configured budget in force (HeapLimitBytes or RemSetMaxEntries).
  uint64_t LimitValue = 0;
  /// Resident bytes at the moment of the event.
  uint64_t ResidentBytes = 0;
  /// Human-readable specifics ("injected policy-evaluation fault", ...).
  std::string Detail;
};

/// One human-readable line for an event (used by HeapDump).
inline std::string describeDegradation(const DegradationEvent &Event) {
  std::string Line = degradationKindName(Event.Kind);
  Line += " @t=" + std::to_string(Event.Time);
  if (Event.RequestedBytes != 0)
    Line += " requested=" + std::to_string(Event.RequestedBytes);
  if (Event.LimitValue != 0)
    Line += " limit=" + std::to_string(Event.LimitValue);
  Line += " resident=" + std::to_string(Event.ResidentBytes);
  if (!Event.Detail.empty())
    Line += " (" + Event.Detail + ")";
  return Line;
}

} // namespace runtime
} // namespace dtb

#endif // DTB_RUNTIME_DEGRADATION_H
