//===- runtime/HeapDump.h - Heap demographics introspection ----*- C++ -*-===//
//
// Part of the dtbgc project (Barrett & Zorn DTB reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Introspection over a live heap's age demographics — the information a
/// threatening-boundary policy acts on, made visible. Buckets the
/// resident objects by age (now − birth) on a log scale and reports,
/// per bucket, resident and reachable bytes; the difference is garbage
/// that a boundary older than the bucket would reclaim.
///
//===----------------------------------------------------------------------===//

#ifndef DTB_RUNTIME_HEAPDUMP_H
#define DTB_RUNTIME_HEAPDUMP_H

#include "core/AllocClock.h"
#include "runtime/Degradation.h"
#include "runtime/Mutator.h"

#include <array>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace dtb {
namespace runtime {

/// One age band of the demographics report.
struct AgeBand {
  /// Age range [AgeLo, AgeHi) in allocated bytes.
  core::AllocClock AgeLo = 0;
  core::AllocClock AgeHi = 0;
  uint64_t ResidentObjects = 0;
  uint64_t ResidentBytes = 0;
  /// Bytes in this band reachable from the roots.
  uint64_t ReachableBytes = 0;
};

/// The full demographics snapshot.
struct HeapDemographics {
  uint64_t ResidentObjects = 0;
  uint64_t ResidentBytes = 0;
  uint64_t ReachableBytes = 0;
  size_t RememberedSetEntries = 0;
  /// Oldest-first age bands, log2-scaled starting at \c BaseAgeBytes.
  std::vector<AgeBand> Bands;
  /// Degradation-ladder summary: total events ever recorded (including
  /// ones dropped from the heap's bounded log), per-kind counts over the
  /// retained log, and pre-rendered lines for the most recent events.
  uint64_t DegradationEventsTotal = 0;
  std::array<uint64_t, NumDegradationKinds> DegradationCounts{};
  std::vector<std::string> RecentDegradations;
  /// Bump blocks a copying heap carved for itself (its direct-allocation
  /// block and the trace lanes' evacuation blocks) that are still
  /// resident, Heap::BlockBytes each. A block stays until its last object
  /// is evacuated or reclaimed, so partly emptied blocks show here.
  /// Context TLABs are counted with the mutators below.
  uint64_t HeapBlocksResident = 0;
  /// The open incremental cycle (all-zero when none is open). A heap
  /// dumped mid-cycle is mostly explained by it: the boundary/black
  /// window says what is threatened, the gray backlog says how far
  /// marking got.
  IncrementalCycleInfo Cycle;
  /// Multi-mutator runtime state (all-zero / "not-collecting" for a heap
  /// with no registered contexts): the phase machine and the
  /// TLAB/safepoint counters.
  std::string Phase = "not-collecting";
  MutatorRuntimeStats MutatorStats;
  /// One row per registered context, in registration order.
  struct MutatorRow {
    uint64_t Id = 0;
    MutatorState State = MutatorState::AtSafepoint;
    MutatorContext::Stats Stats;
  };
  std::vector<MutatorRow> Mutators;
  /// The most recent safepoint rendezvous (Serial 0 = none yet).
  SafepointRendezvousRecord Rendezvous;
  /// Flight-recorder tail: total events ever recorded plus pre-rendered
  /// lines for the retained ones (oldest first).
  uint64_t FlightEventsRecorded = 0;
  std::vector<std::string> FlightEvents;
};

/// Collects a demographics snapshot of \p H. \p BaseAgeBytes is the width
/// of the youngest band; each subsequent band doubles.
HeapDemographics collectDemographics(const Heap &H,
                                     core::AllocClock BaseAgeBytes = 4096);

/// Pretty-prints the snapshot with text bars to \p Out.
void printDemographics(const HeapDemographics &Demo, std::FILE *Out);

} // namespace runtime
} // namespace dtb

#endif // DTB_RUNTIME_HEAPDUMP_H
