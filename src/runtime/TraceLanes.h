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
/// claims indices through a per-segment atomic cursor; a lane whose own
/// segment runs dry steals from victims in round-robin order (I+1, I+2,
/// ...), so the load balances without per-item locking.
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
/// fan-out and only spans lanes when that is safe: always on a private
/// pool, and on the shared default pool only when the caller is not
/// itself a pool worker.
///
//===----------------------------------------------------------------------===//

#ifndef DTB_RUNTIME_TRACELANES_H
#define DTB_RUNTIME_TRACELANES_H

#include "profiling/Profiler.h"
#include "runtime/Object.h"
#include "support/FaultInjector.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <vector>

namespace dtb {
namespace runtime {

/// Children a lane may buffer privately per round before detouring to the
/// shared (mutex-protected) overflow list. The degraded path is the same
/// algorithm with this cap at zero, so chaos tests can force it cheaply.
inline constexpr size_t TraceLaneChildCap = 1u << 16;

/// Rounds with fewer items than this, or fewer pointer slots among their
/// items, run inline on the calling thread: fan-out costs a few wakeups,
/// which chain-shaped heaps (round size 1) would pay per object and rounds
/// of slot-less leaves (nothing to scan) would pay for nothing. Purely a
/// scheduling decision — results are identical.
inline constexpr size_t TraceLaneMinRound = 64;

/// Per-lane accumulation buffers for one scan round. Lanes never touch
/// each other's buffers; the main thread drains them in fixed lane order
/// after the round joins.
struct TraceLane {
  /// Newly claimed children, bound for the next round's gray queue.
  std::vector<Object *> Children;
  uint64_t TracedBytes = 0;
  uint64_t ObjectsTraced = 0;
  uint64_t ObjectsMoved = 0;
  uint64_t OverflowEvents = 0;
  /// Per-lane profiler; merged into the heap's lane profile in lane order.
  profiling::PhaseProfiler Profiler;

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
  /// \p Pool may be null (serial). \p PoolIsPrivate distinguishes a pool
  /// owned by the heap (always safe to fan out over) from the shared
  /// default pool (safe only when the caller is not itself a pool worker —
  /// a worker blocking on helpers no free worker can run would deadlock).
  TraceLaneSet(ThreadPool *Pool, bool PoolIsPrivate)
      : Pool(Pool),
        CanFanOut(Pool && (PoolIsPrivate || !ThreadPool::onWorkerThread())),
        Lanes(CanFanOut ? Pool->numThreads() + 1 : 1) {
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
  /// buffers and lane-safe (atomic) object state.
  template <typename ScanFn>
  void scanRound(Object *const *Items, size_t N, uint64_t Slots,
                 const ScanFn &Scan) {
    const unsigned L = numLanes();
    const bool Degrade = DegradeNextRound || DegradeAllRounds;
    DegradeNextRound = false;
    for (TraceLane &Lane : Lanes)
      Lane.ChildCap = Degrade ? 0 : TraceLaneChildCap;

    if (L == 1 || N < TraceLaneMinRound || Slots < TraceLaneMinRound) {
      runLane(Lanes[0], [&] {
        for (size_t I = 0; I != N; ++I)
          Scan(Items[I], Lanes[0]);
      });
      return;
    }

    auto Cursors = std::make_unique<std::atomic<size_t>[]>(L);
    auto SegmentBegin = [&](unsigned I) { return N * I / L; };
    for (unsigned I = 0; I != L; ++I)
      Cursors[I].store(SegmentBegin(I), std::memory_order_relaxed);

    auto LaneBody = [&](unsigned LaneIndex) {
      TraceLane &Lane = Lanes[LaneIndex];
      runLane(Lane, [&] {
        if (Degrade) {
          // Single shared cursor: every lane fights for every item.
          for (;;) {
            size_t I = Cursors[0].fetch_add(1, std::memory_order_relaxed);
            if (I >= N)
              break;
            Scan(Items[I], Lane);
          }
          return;
        }
        for (unsigned V = 0; V != L; ++V) {
          unsigned Victim = (LaneIndex + V) % L;
          size_t End = SegmentBegin(Victim + 1);
          for (;;) {
            size_t I = Cursors[Victim].fetch_add(1, std::memory_order_relaxed);
            if (I >= End)
              break;
            Scan(Items[I], Lane);
          }
        }
      });
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
  template <typename BodyFn> void runLane(TraceLane &Lane, const BodyFn &Body) {
    profiling::ProfilePhase Phase(&Lane.Profiler, profiling::phase::TraceLane);
    uint64_t Before = Lane.TracedBytes;
    Body();
    Phase.addCost(Lane.TracedBytes - Before);
  }

  ThreadPool *Pool;
  bool CanFanOut;
  std::vector<TraceLane> Lanes;
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
    size_t Take = 0;
    uint64_t RoundBytes = 0, RoundSlots = 0;
    while (Head + Take != Gray.size()) {
      const Object *O = Gray[Head + Take];
      uint64_t Gross = O->grossBytes();
      if (Take != 0 && RoundBytes + Gross > Remaining)
        break;
      RoundBytes += Gross;
      RoundSlots += O->numSlots();
      Take += 1;
      if (RoundBytes >= Remaining)
        break;
    }
    Scanned += RoundBytes;

    if (faultRequestedAt(FaultSite::ParallelTrace))
      Lanes.degradeNextRound();
    size_t OldSize = Gray.size();
    Lanes.scanRound(Gray.data() + Head, Take, RoundSlots, Scan);
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

} // namespace runtime
} // namespace dtb

#endif // DTB_RUNTIME_TRACELANES_H
