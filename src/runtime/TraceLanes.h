//===- runtime/TraceLanes.h - Work-stealing trace lanes --------*- C++ -*-===//
//
// Part of the dtbgc project (Barrett & Zorn DTB reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The parallel scan engine both collectors share. A transitive trace is
/// run as a sequence of *rounds*: the main thread owns a canonical gray
/// queue, hands one round of it to the lanes, and merges the lanes' output
/// back in fixed lane order before the next round. Inside a round, lane I
/// owns the contiguous segment [N*I/L, N*(I+1)/L) of the round's items and
/// claims chunks of indices through a per-segment atomic cursor; a lane
/// whose own segment runs dry steals from victims in round-robin order
/// (I+1, I+2, ...), so the load balances without per-item locking. Leaves
/// (objects with no pointer slots) count toward a round but are never
/// handed to the lanes: scanning one does nothing.
///
/// Determinism: which lane scans an item is scheduling-dependent, but the
/// *set* of items scanned in a round is exactly the round's content, and
/// claiming a child (an atomic fetch_or on the object header) succeeds for
/// exactly one lane. All per-lane accumulators are either commutative
/// sums or are merged on the main thread in fixed lane order, so every
/// exported result is bit-identical for 1 lane vs N. See DESIGN.md
/// ("Parallel and incremental scavenging").
///
/// The engine deliberately does NOT use support::parallelFor: parallelFor
/// runs inline whenever the caller is already on any pool's worker thread
/// (nested fan-out protection), which would silently serialize collections
/// running inside harness workers. TraceLaneSet does its own submit/join
/// fan-out over the heap's private pool, whose workers never run anything
/// else, so fanning out is safe from any calling thread.
///
/// Both collectors drive the engine through one quantum step,
/// Heap::traceQuantum, defined at the end of this header: it applies the
/// scavenge budget and the pause-deadline watchdog's backoff and serial
/// fallback to the mark-sweep trace and the copying evacuation alike.
///
//===----------------------------------------------------------------------===//

#ifndef DTB_RUNTIME_TRACELANES_H
#define DTB_RUNTIME_TRACELANES_H

#include "runtime/Heap.h"
#include "runtime/Object.h"
#include "support/FaultInjector.h"
#include "support/ThreadPool.h"
#include "telemetry/Telemetry.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <mutex>
#include <optional>
#include <vector>

namespace dtb {
namespace runtime {

/// Children a lane may buffer privately per round before detouring to the
/// shared (mutex-protected) overflow list. The degraded path is the same
/// algorithm with this cap at zero, so chaos tests can force it cheaply.
inline constexpr size_t TraceLaneChildCap = 1u << 16;

/// Rounds with fewer items than this, or fewer pointer slots among their
/// items, run inline on the calling thread: fan-out costs a few wakeups,
/// which chain-shaped heaps (round size 1) would pay per object. Purely a
/// scheduling decision — results are identical.
inline constexpr size_t TraceLaneMinRound = 64;

/// Items a lane claims with one cursor fetch_add in a fanned-out round, so
/// lanes bounce a cursor's cache line once per chunk rather than once per
/// item. Purely a scheduling decision — results are identical.
inline constexpr size_t TraceLaneClaimChunk = 32;

/// The cache-line size the lane state is padded to, so that one lane's
/// counters and cursor never share a line with another's.
inline constexpr size_t TraceLaneLineBytes = 64;

/// Per-lane accumulation buffers for one scan round. Lanes never touch
/// each other's buffers; the main thread drains them in fixed lane order
/// after the round joins.
struct alignas(TraceLaneLineBytes) TraceLane {
  /// Newly claimed children, bound for the next round's gray queue.
  std::vector<Object *> Children;
  uint64_t TracedBytes = 0;
  uint64_t ObjectsTraced = 0;
  uint64_t ObjectsMoved = 0;
  uint64_t OverflowEvents = 0;

  void addChild(Object *O) {
    if (Children.size() < ChildCap) {
      Children.push_back(O);
      return;
    }
    OverflowEvents += 1;
    std::lock_guard<std::mutex> Lock(*OverflowMutex);
    Overflow->push_back(O);
  }

private:
  friend class TraceLaneSet;
  size_t ChildCap = TraceLaneChildCap;
  std::vector<Object *> *Overflow = nullptr;
  std::mutex *OverflowMutex = nullptr;
};

/// The lane set + round scheduler. One instance lives for one trace (or
/// one incremental quantum); the pool it fans out over is owned by the
/// heap and reused across collections.
class TraceLaneSet {
public:
  /// \p Pool, the heap's private trace pool, may be null (one lane).
  explicit TraceLaneSet(ThreadPool *Pool)
      : Pool(Pool), Lanes(Pool ? Pool->numThreads() + 1 : 1),
        Cursors(Lanes.size()) {
    for (TraceLane &Lane : Lanes) {
      Lane.Overflow = &Overflow;
      Lane.OverflowMutex = &OverflowMutex;
    }
  }

  unsigned numLanes() const { return static_cast<unsigned>(Lanes.size()); }
  TraceLane &lane(size_t I) { return Lanes[I]; }
  /// The lane serial phases (root scan, remset scan) accumulate into.
  TraceLane &serialLane() { return Lanes[0]; }
  /// The shared overflow list; drained (and cleared) by the heap together
  /// with the per-lane child buffers.
  std::vector<Object *> &overflow() { return Overflow; }

  /// Degrades the next round (fault injection): zero private child caps
  /// and a single shared cursor all lanes contend on.
  void degradeNextRound() { DegradeNextRound = true; }

  /// Degrades every round for this lane set's lifetime (the watchdog's
  /// serial fallback after repeated deadline violations): same mechanism
  /// as degradeNextRound, but sticky. Results stay bit-identical; only
  /// scheduling changes.
  void degradeAllRounds() { DegradeAllRounds = true; }

  /// Scans Items[0..N), which hold \p Slots pointer slots in all, across
  /// the lanes; Scan(Object*, TraceLane&) must only touch its lane's
  /// buffers and lane-safe (atomic) object state. N may be zero (a round
  /// of leaves): the round still consumes a pending degradation.
  template <typename ScanFn>
  void scanRound(Object *const *Items, size_t N, uint64_t Slots,
                 const ScanFn &Scan) {
    const unsigned L = numLanes();
    const bool Degrade = DegradeNextRound || DegradeAllRounds;
    DegradeNextRound = false;
    for (TraceLane &Lane : Lanes)
      Lane.ChildCap = Degrade ? 0 : TraceLaneChildCap;

    if (L == 1 || N < TraceLaneMinRound || Slots < TraceLaneMinRound) {
      for (size_t I = 0; I != N; ++I)
        Scan(Items[I], Lanes[0]);
      return;
    }

    auto SegmentBegin = [&](unsigned I) { return N * I / L; };
    for (unsigned I = 0; I != L; ++I)
      Cursors[I].Next.store(SegmentBegin(I), std::memory_order_relaxed);

    // Claims Chunk items at a time from Cursor until it passes End.
    auto ClaimAndScan = [&](std::atomic<size_t> &Cursor, size_t End,
                            size_t Chunk, TraceLane &Lane) {
      for (;;) {
        size_t I = Cursor.fetch_add(Chunk, std::memory_order_relaxed);
        if (I >= End)
          break;
        for (size_t Stop = std::min(I + Chunk, End); I != Stop; ++I)
          Scan(Items[I], Lane);
      }
    };
    auto LaneBody = [&](unsigned LaneIndex) {
      TraceLane &Lane = Lanes[LaneIndex];
      if (Degrade) {
        // Single shared cursor: every lane fights for every item.
        ClaimAndScan(Cursors[0].Next, N, 1, Lane);
        return;
      }
      for (unsigned V = 0; V != L; ++V) {
        unsigned Victim = (LaneIndex + V) % L;
        ClaimAndScan(Cursors[Victim].Next, SegmentBegin(Victim + 1),
                     TraceLaneClaimChunk, Lane);
      }
    };

    std::vector<std::future<void>> Helpers;
    Helpers.reserve(L - 1);
    for (unsigned I = 1; I != L; ++I)
      Helpers.push_back(Pool->submit([&LaneBody, I] { LaneBody(I); }));
    LaneBody(0);
    for (std::future<void> &Helper : Helpers)
      Helper.get();
  }

private:
  /// One lane's segment cursor, alone on its cache line.
  struct alignas(TraceLaneLineBytes) Cursor {
    std::atomic<size_t> Next{0};
  };

  ThreadPool *Pool;
  std::vector<TraceLane> Lanes;
  std::vector<Cursor> Cursors;
  bool DegradeNextRound = false;
  bool DegradeAllRounds = false;
  std::vector<Object *> Overflow;
  std::mutex OverflowMutex;
};

/// Runs one budget-bounded trace *quantum* over \p Gray: repeatedly takes
/// the longest prefix whose cumulative gross bytes fit the remaining
/// budget (always at least one item, so an oversized object cannot stall
/// the trace), scans it as one parallel round, and lets \p Drain append
/// the round's freshly claimed children back onto \p Gray. Returns the
/// gross bytes scanned; \p Gray keeps any unscanned tail when the budget
/// runs out first. BudgetBytes == 0 means unbounded (monolithic trace).
///
/// Every item of the prefix counts toward the round's bytes, the budget
/// and the return value, but only those with pointer slots are scanned:
/// they are compacted, in order, to the front of the consumed prefix,
/// which is discarded after the round anyway.
///
/// When budgeted, \p Gray is kept sorted by birth (unique per object), so
/// the prefix each quantum selects is independent of lane scheduling —
/// this is what makes a budgeted trace bit-identical to the monolithic
/// one and to itself across thread counts.
template <typename ScanFn, typename DrainFn>
uint64_t runTraceQuantum(TraceLaneSet &Lanes, std::vector<Object *> &Gray,
                         uint64_t BudgetBytes, const ScanFn &Scan,
                         const DrainFn &Drain) {
  const bool Canonical = BudgetBytes != 0;
  auto ByBirth = [](const Object *A, const Object *B) {
    return A->birth() < B->birth();
  };
  if (Canonical)
    std::sort(Gray.begin(), Gray.end(), ByBirth);

  uint64_t Scanned = 0;
  size_t Head = 0;
  while (Head != Gray.size() && (BudgetBytes == 0 || Scanned < BudgetBytes)) {
    uint64_t Remaining = Canonical ? BudgetBytes - Scanned : UINT64_MAX;
    size_t Take = 0, NonLeaves = 0;
    uint64_t RoundBytes = 0, RoundSlots = 0;
    while (Head + Take != Gray.size()) {
      Object *O = Gray[Head + Take];
      uint64_t Gross = O->grossBytes();
      if (Take != 0 && RoundBytes + Gross > Remaining)
        break;
      RoundBytes += Gross;
      RoundSlots += O->numSlots();
      Take += 1;
      if (O->numSlots() != 0)
        Gray[Head + NonLeaves++] = O;
      if (RoundBytes >= Remaining)
        break;
    }
    Scanned += RoundBytes;

    if (faultRequestedAt(FaultSite::ParallelTrace))
      Lanes.degradeNextRound();
    size_t OldSize = Gray.size();
    Lanes.scanRound(Gray.data() + Head, NonLeaves, RoundSlots, Scan);
    Head += Take;
    Drain(Gray); // Appends children + overflow in fixed lane order.
    if (Canonical && Gray.size() != OldSize) {
      std::sort(Gray.begin() + static_cast<ptrdiff_t>(OldSize), Gray.end(),
                ByBirth);
      std::inplace_merge(Gray.begin() + static_cast<ptrdiff_t>(Head),
                         Gray.begin() + static_cast<ptrdiff_t>(OldSize),
                         Gray.end(), ByBirth);
    }
  }
  Gray.erase(Gray.begin(), Gray.begin() + static_cast<ptrdiff_t>(Head));
  return Scanned;
}

/// Declared in Heap.h; see the file comment.
template <typename ScanFn>
uint64_t Heap::traceQuantum(TraceLaneSet &Lanes, std::vector<Object *> &Gray,
                            const ScanFn &Scan, ScavengeWork &Work) {
  // The watchdog's retry-halving backoff overrides the configured budget
  // for the remainder of this collection.
  const uint64_t BudgetBytes = EffectiveBudgetBytes != 0
                                   ? EffectiveBudgetBytes
                                   : Config.ScavengeBudgetBytes;
  if (WatchdogSerial)
    Lanes.degradeAllRounds();

  const bool MeasureWall = telemetry::enabled();
  std::chrono::steady_clock::time_point WallStart;
  if (MeasureWall)
    WallStart = std::chrono::steady_clock::now();
  uint64_t Scanned = runTraceQuantum(
      Lanes, Gray, BudgetBytes, Scan,
      [&](std::vector<Object *> &G) { drainTraceLanes(Lanes, G, Work); });
  std::optional<double> WallMs;
  if (MeasureWall)
    WallMs = std::chrono::duration<double, std::milli>(
                 std::chrono::steady_clock::now() - WallStart)
                 .count();
  watchQuantum(Scanned, BudgetBytes, WallMs);
  return Scanned;
}

} // namespace runtime
} // namespace dtb

#endif // DTB_RUNTIME_TRACELANES_H
