//===- sim/HeapModel.h - Oracle heap model for simulation ------*- C++ -*-===//
//
// Part of the dtbgc project (Barrett & Zorn DTB reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The simulated heap: the set of *resident* objects — live objects plus
/// garbage that no scavenge has reclaimed yet. Deaths are oracle events
/// from the allocation trace (the paper drives its simulations with
/// malloc/free traces, so the simulated collector reclaims exactly the
/// threatened objects whose free event has passed).
///
/// Residents are kept in birth order, so the threatened suffix for any
/// boundary is found by binary search and scavenges touch only that
/// suffix.
///
/// The oracle queries that DTBMEM's boundary search hammers
/// (liveBytesBornAfter, residentBytesBornAfter, garbageBytes) are answered
/// from incremental indexes instead of per-call scans:
///
///  * a Fenwick tree of resident sizes keyed by the object's position in
///    the (birth-ordered) resident vector, so any born-after suffix sum
///    is O(log residents);
///  * a second Fenwick tree holding the sizes of dead-but-resident
///    objects, fed by a death-clock-ordered queue that is advanced
///    monotonically with the query clock, so garbageBytes is O(1) once
///    the clock has caught up and liveBytesBornAfter is two suffix sums.
///
/// Keying by resident position (rather than a global birth index) keeps
/// both trees as small as the resident set itself — a few hundred KB that
/// stay cache-hot — at the price of an O(survivors) index rebuild per
/// scavenge, which is subsumed by the scavenge's own compaction pass.
/// Death-queue entries are keyed by Birth (stable and unique) and mapped
/// to the current position by binary search when they are drained.
///
/// Queries at clocks *behind* the advanced death clock (only tests do
/// this) fall back to the retained naive scans, which also serve as the
/// cross-check reference: setCrossCheck(true) re-runs every indexed query
/// against the scan and aborts on divergence.
///
//===----------------------------------------------------------------------===//

#ifndef DTB_SIM_HEAPMODEL_H
#define DTB_SIM_HEAPMODEL_H

#include "core/AllocClock.h"

#include <cstddef>
#include <cstdint>
#include <queue>
#include <utility>
#include <vector>

namespace dtb {
namespace sim {

using core::AllocClock;

/// One resident object.
struct ResidentObject {
  AllocClock Birth = 0;
  uint32_t Size = 0;
  /// Oracle death clock (trace::NeverDies for immortal objects).
  AllocClock Death = 0;
};

/// Byte counts produced by one scavenge.
struct ScavengeOutcome {
  /// Live threatened bytes examined by the collector (Trace_n).
  uint64_t TracedBytes = 0;
  /// Dead threatened bytes reclaimed.
  uint64_t ReclaimedBytes = 0;
  /// Resident bytes before the scavenge (Mem_n).
  uint64_t MemBeforeBytes = 0;
  /// Resident bytes after (S_n = Mem_n - Reclaimed).
  uint64_t SurvivedBytes = 0;
};

/// The resident-object set.
class HeapModel {
public:
  /// How the demographics queries are answered.
  enum class QueryMode {
    /// Incremental Fenwick/death-queue indexes (the default).
    Indexed,
    /// The original O(residents) scans, with no index maintenance at all —
    /// kept for benchmark baselines (bench_driver --suite timing).
    Scan,
  };

  explicit HeapModel(QueryMode Mode = QueryMode::Indexed) : Mode(Mode) {}

  /// Pre-sizes the resident vector and indexes for \p NumObjects births.
  void reserve(size_t NumObjects);

  /// Adds a newly allocated object; births must arrive in increasing
  /// clock order.
  void addObject(AllocClock Birth, uint32_t Size, AllocClock Death);

  /// Performs a scavenge at clock \p Now with threatening boundary
  /// \p Boundary: every resident born after the boundary is threatened;
  /// threatened objects dead at \p Now are reclaimed, live ones are traced.
  /// Immune objects (born at or before the boundary) are untouched —
  /// dead immune objects remain resident as tenured garbage.
  ScavengeOutcome scavenge(AllocClock Now, AllocClock Boundary);

  /// Total resident bytes (live + unreclaimed garbage).
  uint64_t residentBytes() const { return ResidentBytes; }
  size_t residentObjects() const { return Residents.size(); }

  /// Exact live bytes born strictly after \p Boundary, judged at clock
  /// \p Now — the tracing cost a scavenge with that boundary would incur.
  /// O(log n) once the death clock has caught up with \p Now.
  uint64_t liveBytesBornAfter(AllocClock Boundary, AllocClock Now) const;

  /// Exact dead-but-resident (garbage) bytes at clock \p Now. O(1)
  /// amortized for monotonically non-decreasing \p Now.
  uint64_t garbageBytes(AllocClock Now) const;

  /// Exact resident bytes born strictly after \p Boundary. O(log n).
  uint64_t residentBytesBornAfter(AllocClock Boundary) const;

  /// Naive-scan reference implementations (the pre-index code). Used as
  /// the benchmark baseline and as the cross-check oracle in tests.
  uint64_t liveBytesBornAfterScan(AllocClock Boundary, AllocClock Now) const;
  uint64_t garbageBytesScan(AllocClock Now) const;
  uint64_t residentBytesBornAfterScan(AllocClock Boundary) const;

  /// When enabled (Indexed mode only), every indexed query is re-answered
  /// by the naive scan and a mismatch is a fatal error.
  void setCrossCheck(bool Enabled) { CrossCheck = Enabled; }
  QueryMode queryMode() const { return Mode; }

  const std::vector<ResidentObject> &residents() const { return Residents; }

private:
  /// Append-only Fenwick (binary indexed) tree over resident positions.
  class SizeFenwick {
  public:
    void reserve(size_t N) { Tree.reserve(N); }
    /// Appends a new leaf holding \p Value.
    void append(uint64_t Value);
    /// Adds \p Delta (possibly "negative" via two's complement) to leaf
    /// \p Index.
    void add(size_t Index, uint64_t Delta);
    /// Sum of leaves [0, \p Count).
    uint64_t prefix(size_t Count) const;
    /// Sum of leaves [\p From, size).
    uint64_t suffix(size_t From) const { return Total - prefix(From); }
    uint64_t total() const { return Total; }
    size_t size() const { return Tree.size(); }
    /// Drops every leaf at or beyond \p Count; the kept prefix is
    /// untouched (node i only ever covers leaves <= i).
    void truncate(size_t Count) {
      Tree.resize(Count);
      Total = prefix(Count);
    }

  private:
    std::vector<uint64_t> Tree; // 0-based; Tree[i] covers a power-of-two
                                // block ending at leaf i.
    uint64_t Total = 0;
  };

  /// Index of the first resident born strictly after \p Boundary.
  size_t firstBornAfter(AllocClock Boundary) const;
  /// Current position of the resident born exactly at \p Birth.
  size_t positionOfBirth(AllocClock Birth) const;
  /// Moves dead objects with Death <= Now into the dead index.
  void advanceDeathClock(AllocClock Now) const;
  /// Rebuilds both Fenwicks from position \p Begin onward over the
  /// (just-compacted) resident vector; leaves below \p Begin kept as-is.
  void rebuildIndexes(size_t Begin);
  void checkQuery(uint64_t Indexed, uint64_t Scan, const char *What) const;

  QueryMode Mode;
  bool CrossCheck = false;
  std::vector<ResidentObject> Residents; // Sorted by Birth (strictly).
  uint64_t ResidentBytes = 0;

  // Indexed-mode state (Scan mode leaves all of it empty). The Fenwicks
  // are keyed by position in Residents and rebuilt whenever a scavenge
  // compacts it. Mutable: queries advance the death clock lazily.
  mutable SizeFenwick ResidentSizes; // Resident bytes by position.
  mutable SizeFenwick DeadSizes;     // Dead-but-resident bytes.
  // Deaths are staged in an unsorted buffer first; the next clock advance
  // moves entries already dead straight into DeadSizes and heap-pushes
  // only the genuine long-livers. Most objects in the paper traces die
  // before the next advance, so they never pay the heap's O(log n).
  // Immortals (NeverDies) are never queued at all.
  //
  // Staged entries carry the object's *position*: positions only go stale
  // when a scavenge compacts the resident vector, and every scavenge
  // drains this buffer (advanceDeathClock) before compacting, so a staged
  // position is always valid when it is read. Heap entries outlive
  // compactions, so they carry the stable Birth key instead and are
  // mapped to the current position by binary search when popped.
  using PendingEntry = std::pair<AllocClock, uint32_t>; // (Death, Position)
  using DeathEntry = std::pair<AllocClock, AllocClock>; // (Death, Birth)
  mutable std::vector<PendingEntry> PendingDeaths;
  mutable std::priority_queue<DeathEntry, std::vector<DeathEntry>,
                              std::greater<DeathEntry>>
      DeathQueue;
  mutable AllocClock DeathClock = 0; // Deaths <= this are in DeadSizes.
};

} // namespace sim
} // namespace dtb

#endif // DTB_SIM_HEAPMODEL_H
