//===- runtime/Mutator.h - Per-thread mutator contexts ---------*- C++ -*-===//
//
// Part of the dtbgc project (Barrett & Zorn DTB reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// MutatorContext: the per-thread face of the heap. N contexts registered
/// on one Heap let N threads allocate and mutate concurrently while the
/// collector stays stop-the-world:
///
///  * Allocation goes through a thread-local bump-pointer buffer (TLAB)
///    carved from the heap under a single refill lock; the fast path —
///    bump, zero, stamp the birth via one relaxed fetch_add on the shared
///    allocation clock — takes no lock at all.
///  * Pointer stores apply the phase-dependent write barrier
///    (runtime/Safepoint.h): forward-in-time entries are buffered
///    per-context while NOT_COLLECTING and flushed into the shared
///    RememberedSet sink at capacity or at safepoints; during
///    COLLECTING/RESTORING (world stopped) they reach the sink
///    immediately.
///  * Every API call counts the context in and out of the Mutating state,
///    so a collection rendezvous waits only on calls in flight. Threads
///    in long compute loops should poll safepoint().
///  * Roots live in per-context slots (addRoot/root), scanned by every
///    collection and updated by the copying collector on moves. Raw
///    Object* values held across a safepoint are subject to the same
///    rules as the single-mutator API: stable under mark-sweep, invalid
///    across a copying collection.
///
/// Determinism: contexts driven round-robin from ONE thread produce the
/// exact same allocation clock, remembered set, and scavenge records as
/// the direct Heap API — the conformance harness's --mutators mode relies
/// on this. With real threads, births interleave nondeterministically but
/// every invariant the verifier checks still holds at each safepoint.
///
/// Lifetime: a context must be destroyed before its heap, and destruction
/// (like construction) briefly stops the world to publish pending
/// allocations and unregister.
///
//===----------------------------------------------------------------------===//

#ifndef DTB_RUNTIME_MUTATOR_H
#define DTB_RUNTIME_MUTATOR_H

#include "runtime/Heap.h"
#include "runtime/Safepoint.h"

#include <atomic>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

namespace dtb {
namespace runtime {

/// A registered per-thread mutator. Each instance is owned by one thread
/// at a time (ownership may be handed off between ops, e.g. a driver
/// round-robining several contexts); the heap synchronizes with all
/// contexts via the safepoint protocol.
class MutatorContext {
public:
  explicit MutatorContext(Heap &H);
  ~MutatorContext();

  MutatorContext(const MutatorContext &) = delete;
  MutatorContext &operator=(const MutatorContext &) = delete;

  Heap &heap() { return H; }

  /// Allocates like Heap::allocate, but through this context's TLAB.
  /// May block at a safepoint and may trigger a collection first (same
  /// trigger rule as the direct path). Aborts on unrecoverable OOM.
  Object *allocate(uint32_t NumSlots, uint32_t RawBytes = 0);

  /// Recoverable allocation: walks the shared degradation ladder under a
  /// stopped world when the heap limit (or an injected Allocation fault)
  /// denies the request; returns nullptr only after the ladder failed.
  Object *tryAllocate(uint32_t NumSlots, uint32_t RawBytes = 0);

  /// Allocates and roots the new object in ONE heap op, returning the new
  /// root's index. This is the multi-threaded idiom: with other threads
  /// able to trigger a collection between ops, an object returned by
  /// allocate() could be published and reclaimed before the caller roots
  /// it — allocateRooted closes that window by staying counted in from
  /// allocation to rooting.
  size_t allocateRooted(uint32_t NumSlots, uint32_t RawBytes = 0);

  /// Stores \p Value into \p Source's slot, applying the phase-dependent
  /// write barrier (see the file comment).
  void writeSlot(Object *Source, uint32_t SlotIndex, Object *Value);

  /// Safepoint poll: returns immediately unless a rendezvous is open, in
  /// which case it blocks until the world is released. Call from long
  /// mutator loops.
  void safepoint();

  /// Marks the context Parked: it promises not to issue heap calls until
  /// unpark(), and the collector never waits on it. Call between ops.
  void park();
  /// Returns the context to AtSafepoint; the next op counts in normally
  /// (blocking if a rendezvous is open).
  void unpark();

  MutatorState state() const {
    return State.load(std::memory_order_relaxed);
  }

  /// Stable context id, assigned in registration order (1-based; 0 means
  /// "no context" in rendezvous records). Names this context in the GC
  /// log's safepoint line, HeapDump, and per-mutator telemetry tracks.
  uint64_t id() const { return Id; }

  /// Appends a root slot initialized to \p Initial; returns its index.
  /// Slot references are stable (deque) until truncateRoots drops them.
  size_t addRoot(Object *Initial = nullptr);
  /// Stable reference to root \p Index (collector-updated on moves).
  Object *&root(size_t Index) { return Roots[Index]; }
  /// Drops roots [Count, end) — the context's way to "drop roots" so the
  /// referents become collectable.
  void truncateRoots(size_t Count);
  size_t numRoots() const { return Roots.size(); }
  const std::deque<Object *> &roots() const { return Roots; }

  /// Flushes the buffered barrier entries into the shared sink now
  /// (taking the sink lock). The runtime flushes at capacity and at every
  /// safepoint; tests use this to observe buffered-vs-landed timing.
  void flushWriteBarrier();

  /// Buffered barrier entries not yet flushed.
  size_t pendingBarrierEntries() const { return BarrierBuffer.size(); }
  /// Allocated objects not yet published into the heap's allocation list
  /// (published at every safepoint).
  size_t pendingAllocations() const { return Pending.size(); }

  /// Per-context counters (read from the owning thread or at a
  /// safepoint).
  struct Stats {
    uint64_t Allocations = 0;
    uint64_t AllocatedBytes = 0;
    /// TLAB blocks this context carved (== refill-lock acquisitions for
    /// carving; the fast path takes none).
    uint64_t TlabRefills = 0;
    /// Oversized allocations that bypassed the TLAB into dedicated
    /// storage.
    uint64_t HumongousAllocations = 0;
    uint64_t BarrierBufferedEntries = 0;
    uint64_t BarrierFlushes = 0;
    /// Count-ins (or polls) that blocked on an open rendezvous.
    uint64_t SafepointYields = 0;
    /// Trigger collections this context ran (a shared crossing counts once).
    uint64_t TriggeredCollections = 0;
    /// Telemetry-gated observability extension (TLAB waste, barrier
    /// high-water, poll/park counts; empty under
    /// -DDTB_ENABLE_TELEMETRY=OFF — see runtime/Safepoint.h).
    MutatorObservability Obs;
  };
  const Stats &stats() const { return S; }

private:
  friend class Heap;

  static constexpr size_t BarrierFlushThreshold = 64;
  /// Size of the bump-pointer blocks a context carves under the refill
  /// lock. Objects whose gross size exceeds a quarter of this get
  /// dedicated storage instead of a TLAB slice.
  static constexpr uint32_t TlabBytes = 32 * 1024;

  /// Enters the Mutating state; blocks while a rendezvous is open (unless
  /// this thread owns the stopped world — safepoint callbacks drive
  /// contexts directly).
  void countIn();
  /// Leaves the Mutating state (release: everything this op did is
  /// visible to the collector that observes the count-out).
  void countOut();
  /// Blocks until the open rendezvous is released.
  void yieldAtSafepoint();

  Object *allocateInOp(uint32_t NumSlots, uint32_t RawBytes);
  Object *allocateHumongous(uint64_t Gross, uint32_t NumSlots,
                            uint32_t RawBytes);
  void refillTlab(uint64_t Need);
  /// Delivers the buffered entries to the remembered set; consults the
  /// BarrierSink fault site. Returns entries delivered. \p WorldStopped
  /// callers skip the sink lock.
  uint64_t flushBarrierBuffer(bool WorldStopped);

  Heap &H;
  /// Registration-order id (see id()).
  uint64_t Id = 0;
  std::atomic<MutatorState> State{MutatorState::AtSafepoint};
  Heap::TlabBlock *Tlab = nullptr;
  /// Objects allocated since the last safepoint, birth-ordered (ops on a
  /// context are sequential); merged into Heap::Objects at publication.
  std::vector<Object *> Pending;
  /// Buffered forward-in-time stores awaiting delivery to the sink.
  std::vector<std::pair<Object *, uint32_t>> BarrierBuffer;
  /// Targets greyed by the barrier while an incremental cycle is open;
  /// drained into the cycle's pending-gray set at each safepoint.
  std::vector<Object *> GreyBuffer;
  std::deque<Object *> Roots;
  Stats S;
};

template <typename Fn> void Heap::forEachRoot(Fn &&Visit) {
  for (Object **Root : GlobalRoots)
    Visit(*Root);
  for (Object *&Handle : HandleSlots)
    Visit(Handle);
  // Pinned objects never move, so a write back to their slot is a no-op.
  for (Object *&PinnedObject : Pinned)
    Visit(PinnedObject);
  for (MutatorContext *Ctx : Mutators)
    for (Object *&Root : Ctx->Roots)
      Visit(Root);
}

} // namespace runtime
} // namespace dtb

#endif // DTB_RUNTIME_MUTATOR_H
