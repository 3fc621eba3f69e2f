//===- runtime/CopyingCollector.cpp - Evacuating scavenger ---------------===//
//
// Part of the dtbgc project (Barrett & Zorn DTB reproduction).
//
// The copying strategy: surviving threatened objects are evacuated to
// fresh storage (Cheney-style, with an explicit forwarding table) and
// every original in the threatened region is released at once — the
// paper's "reclaiming all the storage at once in the case of a copying
// collector". Copies are bumped into per-lane 32 KB blocks, and the
// release counts each original out of its block, so a block is freed
// whole once nothing in it is live. Immune objects never move; pinned
// threatened objects are traced in place. References into the threatened
// region are updated in the global roots, handle slots, evacuated copies,
// and — for immune objects — exactly the remembered-set entries, which by
// construction cover every immune→threatened pointer.
//
// Births travel with the copies, so the birth-ordered allocation list is
// rebuilt by substituting forwarded addresses in place: the collector
// "may maintain object locations in any order" (Figure 1's caption) while
// the logical age order is preserved.
//
// Evacuation runs on the shared trace-lane engine (TraceLanes.h): lanes
// race an atomic fetch_or on the header's claim bit, so exactly one lane
// copies each object; the winner publishes the copy through a release
// store into a side table of forwarding slots, and losers acquire-spin on
// that slot. The 24-byte header has no room for a forwarding pointer, so
// the slots are indexed by the original's position in the threatened
// suffix, found through an address-keyed hash index. Which lane wins is
// scheduling-dependent; what is copied, accounted, and published is not.
//
//===----------------------------------------------------------------------===//

#include "runtime/Heap.h"

#include "runtime/Mutator.h"
#include "runtime/TraceLanes.h"
#include "support/Error.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <cstring>
#include <new>
#include <thread>
#include <vector>

using namespace dtb;
using namespace dtb::runtime;
using core::AllocClock;

Heap::ScavengeWork Heap::runCopying(AllocClock Boundary) {
  ScavengeWork Work;

  const size_t Begin = firstBornAfter(Boundary);
  const size_t Threatened = Objects.size() - Begin;
  // Forwarding side table, one slot per threatened original, indexed by
  // its position in the object list's threatened suffix (frozen until the
  // sweep, which indexes it directly). Other lookups map the original's
  // address to that position through an open-addressing index, built here
  // from the pointers alone before any lane runs and only read after. Its
  // capacity of at least twice the threatened count keeps linear probes
  // short and leaves an empty entry, which ends the probe of a miss.
  std::vector<std::atomic<Object *>> Forward(Threatened);
  struct IndexEntry { const Object *Original; size_t Position; };
  const size_t Capacity = std::bit_ceil(std::max<size_t>(2, 2 * Threatened));
  const int Shift = 64 - std::countr_zero(Capacity);
  auto homeOf = [&](const Object *O) -> size_t {
    return (reinterpret_cast<uintptr_t>(O) * 0x9E3779B97F4A7C15ull) >> Shift;
  };
  std::vector<IndexEntry> Index(Capacity);
  for (size_t I = 0; I != Threatened; ++I) {
    size_t H = homeOf(Objects[Begin + I]);
    while (Index[H].Original)
      H = (H + 1) & (Capacity - 1);
    Index[H] = {Objects[Begin + I], I};
  }
  auto forwardSlot = [&](const Object *O) -> std::atomic<Object *> & {
    for (size_t H = homeOf(O);; H = (H + 1) & (Capacity - 1)) {
      if (Index[H].Original == O)
        return Forward[Index[H].Position];
      DTB_CHECK(Index[H].Original, "original not in object list");
    }
  };

  auto isThreatened = [&](const Object *O) {
    return O && O->birth() > Boundary;
  };

  TraceLaneSet Lanes(tracePool());
  // Each lane bumps its copies into its own evacuation block (indexed like
  // the lane set's lanes), so lanes share no cursor; a lane carves a
  // successor under the refill lock when its block fills.
  std::vector<TlabBlock *> LaneBlocks(Lanes.numLanes(), nullptr);
  auto laneBlock = [&](TraceLane &Lane) -> TlabBlock *& {
    return LaneBlocks[static_cast<size_t>(&Lane - &Lanes.lane(0))];
  };

  // Evacuates a threatened object (or visits it in place when pinned) and
  // returns its post-collection address. Safe from any lane: the claim
  // bit admits exactly one winner, losers wait for the winner's publish.
  auto relocate = [&](Object *O, TraceLane &Lane) -> Object * {
    assert(isThreatened(O) && "relocating an immune object");
    assert(O->isAlive() && "relocating a reclaimed object");
    std::atomic<Object *> &Slot = forwardSlot(O);
    if (!O->tryAcquireFlag(Object::FlagClaimed)) {
      // Another lane owns the evacuation; its publish is imminent.
      Object *Published = Slot.load(std::memory_order_acquire);
      while (!Published) {
        std::this_thread::yield();
        Published = Slot.load(std::memory_order_acquire);
      }
      return Published;
    }
    if (isPinned(O)) {
      // Pinned objects are traced in place and keep their address; the
      // mark bit records the in-place survival for the sweep.
      O->setFlagAtomic(Object::FlagMarked);
      Lane.TracedBytes += O->grossBytes();
      Lane.ObjectsTraced += 1;
      Lane.addChild(O);
      Slot.store(O, std::memory_order_release);
      return O;
    }
    // Clone: identical header (birth included) and payload, bumped into
    // the lane's evacuation block unless the object is over the block
    // size rule. The header is copied field by field rather than memcpy'd
    // — losing lanes may still be doing atomic claim RMWs on the
    // original's flag byte, and a plain whole-header read would race with
    // them.
    uint64_t Need = blockFootprint(O->grossBytes());
    bool InBlock = fitsBlock(Need);
    void *Memory = InBlock ? bumpBlock(laneBlock(Lane), Need)
                           : ::operator new(O->grossBytes());
    Object *Copy = reinterpret_cast<Object *>(Memory);
    Copy->Magic = Object::MagicAlive;
    Copy->Flags = 0;
    Copy->Storage = InBlock ? Object::StorageTlab : Object::StorageOwn;
    Copy->NumSlots = O->NumSlots;
    Copy->RawBytes = O->RawBytes;
    Copy->GrossBytes = O->GrossBytes;
    Copy->Birth = O->Birth;
    std::memcpy(static_cast<void *>(Copy + 1),
                static_cast<const void *>(O + 1),
                O->grossBytes() - sizeof(Object));
    Lane.TracedBytes += O->grossBytes();
    Lane.ObjectsTraced += 1;
    Lane.ObjectsMoved += 1;
    Lane.addChild(Copy);
    Slot.store(Copy, std::memory_order_release);
    return Copy;
  };

  // Scan body for the parallel rounds: fix up one copy's (or pinned
  // survivor's) slots, relocating threatened targets. The scanned object
  // is exclusive to this lane, so the slot writes need no synchronization.
  auto scanForPromotion = [&](Object *O, TraceLane &Lane) {
    for (uint32_t I = 0, E = O->numSlots(); I != E; ++I) {
      Object *Target = O->slot(I);
      if (!isThreatened(Target))
        continue;
      Object *Moved = relocate(Target, Lane);
      if (Moved != Target)
        O->setSlotRaw(I, Moved);
    }
  };

  std::vector<Object *> Gray;

  // --- Roots ------------------------------------------------------------
  // Phase costs mirror the mark-sweep strategy: bytes evacuated during
  // each phase (the Work.TracedBytes delta); the transitive scan is the
  // promote phase — it is where survivors get copied out of the region.
  // Root and remset scans run serially on lane 0, drained per phase so
  // each phase's cost is exactly the bytes it discovered.
  {
    profiling::ProfilePhase Phase(&Profiler, profiling::phase::RootScan);
    uint64_t Before = Work.TracedBytes;
    forEachRoot([&](Object *&Root) {
      if (isThreatened(Root))
        Root = relocate(Root, Lanes.serialLane());
    });
    drainTraceLanes(Lanes, Gray, Work);
    Phase.addCost(Work.TracedBytes - Before);
  }

  // Remembered-set roots: immune sources holding pointers across the
  // boundary get their slots rewritten to the relocated targets. Stale
  // entries are pruned exactly as in the mark-sweep strategy.
  {
    profiling::ProfilePhase Phase(&Profiler, profiling::phase::RemSetScan);
    uint64_t Before = Work.TracedBytes;
    forEachCrossing(Boundary, [&](Object *Source, uint32_t SlotIndex,
                                  Object *Target) {
      Source->setSlotRaw(SlotIndex, relocate(Target, Lanes.serialLane()));
    });
    drainTraceLanes(Lanes, Gray, Work);
    Phase.addCost(Work.TracedBytes - Before);
  }

  // --- Transitive evacuation --------------------------------------------
  // Scan copies (and pinned survivors) for pointers into the threatened
  // region; such targets are themselves relocated and the slots fixed up.
  // Slots referencing immune objects are left alone — immune objects do
  // not move. Runs as budget-bounded quanta of parallel rounds.
  {
    profiling::ProfilePhase Phase(&Profiler, profiling::phase::Promote);
    uint64_t Before = Work.TracedBytes;
    while (!Gray.empty()) {
      uint64_t Scanned = runTraceQuantum(
          Lanes, Gray, Config.ScavengeBudgetBytes, scanForPromotion,
          [&](std::vector<Object *> &G) { drainTraceLanes(Lanes, G, Work); });
      LastStats.TraceQuanta += 1;
      if (Scanned > LastStats.MaxQuantumTracedBytes)
        LastStats.MaxQuantumTracedBytes = Scanned;
    }
    Phase.addCost(Work.TracedBytes - Before);
  }

  // --- Weak-reference processing ----------------------------------------
  // Weak references follow moved targets and are cleared when the target
  // did not survive; references to immune objects — and pinned survivors,
  // whose forwarding slot publishes their unchanged address — are
  // untouched.
  {
    profiling::ProfilePhase Phase(&Profiler, profiling::phase::WeakRefs);
    Phase.addCost(WeakRefs.size());
    for (WeakRef *Weak : WeakRefs) {
      Object *Target = Weak->get();
      if (!isThreatened(Target))
        continue;
      Object *Survivor = forwardSlot(Target).load(std::memory_order_relaxed);
      if (!Survivor)
        Weak->set(nullptr);
      else if (Survivor != Target)
        Weak->set(Survivor);
    }
  }

  // --- Remembered-set rekeying ------------------------------------------
  // Entries whose source moved follow the copy (slot indices are layout-
  // preserved); entries whose threatened source did not survive are
  // dropped. A forwarding slot publishing the original itself is a pinned
  // survivor, traced in place.
  RemSet.remapSources([&](Object *Source) -> Object * {
    if (!isThreatened(Source))
      return Source; // Immune sources stay put.
    return forwardSlot(Source).load(std::memory_order_relaxed);
  });

  // --- Region release and list rebuild ----------------------------------
  // Substitute survivors into the birth-ordered allocation list (births
  // travel with copies, so in-place substitution preserves the order) and
  // release every non-pinned original in the threatened region at once.
  // The birth-ordered walk also feeds the survivor table, reading each
  // survivor rather than its (released) original.
  {
    profiling::ProfilePhase Phase(&Profiler, profiling::phase::Sweep);
    size_t Out = Begin;
    Demographics.beginScavenge(Boundary);
    for (size_t I = Begin, E = Objects.size(); I != E; ++I) {
      Object *O = Objects[I];
      Object *Survivor = Forward[I - Begin].load(std::memory_order_relaxed);
      if (Survivor)
        Demographics.recordSurvivor(Survivor->birth(), Survivor->grossBytes());
      if (Survivor == O) { // Pinned survivor, traced in place.
        O->clearTraceFlags();
        Objects[Out++] = O;
        continue;
      }
      if (Survivor) {
        Objects[Out++] = Survivor;
        // The original's storage is released; a stale raw pointer held by
        // the mutator across this collection is a bug the quarantine
        // canary will catch.
        releaseStorage(O);
        continue;
      }
      Work.ReclaimedBytes += O->grossBytes();
      LastStats.ObjectsReclaimed += 1;
      releaseStorage(O);
    }
    Objects.resize(Out);
    Phase.addCost(Work.ReclaimedBytes);
  }

  // The lanes' evacuation blocks take no more copies; each is freed once
  // its last copy has moved on or died.
  for (TlabBlock *Block : LaneBlocks)
    if (Block)
      retireTlab(Block);
  return Work;
}
