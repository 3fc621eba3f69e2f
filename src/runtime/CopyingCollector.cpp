//===- runtime/CopyingCollector.cpp - Evacuating scavenger ---------------===//
//
// Part of the dtbgc project (Barrett & Zorn DTB reproduction).
//
// The copying strategy: surviving threatened objects are evacuated to
// fresh storage (Cheney-style, forwarding through the original's header)
// and every original in the threatened region is released at once — the
// paper's "reclaiming all the storage at once in the case of a copying
// collector". Copies are bumped into per-lane 32 KB blocks, and the
// release counts each original out of the block its header names, so a
// block is freed whole once nothing in it is live. Immune objects never
// move; pinned threatened objects are traced in place. References into
// the threatened region are updated in the global roots, handle slots,
// evacuated copies, and — for immune objects — exactly the remembered-set
// entries, which by construction cover every immune→threatened pointer.
//
// Births travel with the copies, so the birth-ordered allocation list is
// rebuilt by substituting forwarded addresses in place: the collector
// "may maintain object locations in any order" (Figure 1's caption) while
// the logical age order is preserved.
//
// Evacuation runs on the shared trace-lane engine (TraceLanes.h): lanes
// race an atomic fetch_or on the header's claim bit, so exactly one lane
// copies each object. The winner writes the copy's address over the
// original's shape word and publishes it by setting the forwarded bit
// with release ordering; losers acquire-spin on that bit. Which lane wins
// is scheduling-dependent; what is copied, accounted, and published is
// not. The root and remembered-set scans run before any round fans out,
// so they claim and publish with plain stores through the same copy body.
//
//===----------------------------------------------------------------------===//

#include "runtime/Heap.h"

#include "runtime/Mutator.h"
#include "runtime/TraceLanes.h"
#include "support/Error.h"

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

  // The copy body both claim rules share: accounts a threatened object
  // its caller has just claimed and returns where it lives after the
  // collection; the caller publishes that address. A pinned object is
  // traced in place and keeps its address. Any other is cloned — identical
  // header (birth included) and payload — into the lane's evacuation
  // block, unless it is over the block size rule. The header is copied
  // field by field rather than memcpy'd: in a round, losing lanes may
  // still be doing atomic claim RMWs on the original's flag byte, and a
  // plain whole-header read would race with them.
  auto evacuate = [&](Object *O, bool Pinned, TraceLane &Lane) -> Object * {
    assert(isThreatened(O) && "relocating an immune object");
    assert(O->isAlive() && "relocating a reclaimed object");
    const uint32_t Gross = O->grossBytes();
    Lane.TracedBytes += Gross;
    Lane.ObjectsTraced += 1;
    if (Pinned) {
      Lane.addChild(O);
      return O;
    }
    uint64_t Need = blockFootprint(Gross);
    bool InBlock = fitsBlock(Need);
    TlabBlock *&Block = laneBlock(Lane);
    void *Memory = InBlock ? bumpBlock(Block, Need) : ::operator new(Gross);
    Object *Copy = reinterpret_cast<Object *>(Memory);
    Copy->Magic = Object::MagicAlive;
    Copy->Flags = 0;
    Copy->Storage = InBlock ? Object::StorageTlab : Object::StorageOwn;
    Copy->Block = InBlock ? Block->Slot : 0;
    Copy->Shape = O->Shape;
    Copy->Birth = O->Birth;
    std::memcpy(static_cast<void *>(Copy + 1),
                static_cast<const void *>(O + 1), Gross - sizeof(Object));
    Lane.ObjectsMoved += 1;
    Lane.addChild(Copy);
    return Copy;
  };

  // The claim rule of the root and remembered-set scans. They run on this
  // thread before any round fans out, so no lane can race them: plain
  // loads and stores claim and publish, as mark-sweep's markThreatened
  // marks. An object already claimed has its address in its header.
  auto relocateSerial = [&](Object *O) -> Object * {
    if (O->Flags & Object::FlagClaimed)
      return O->relocationFrom(O->Flags);
    Object *To = evacuate(O, O->isPinned(), Lanes.serialLane());
    if (To == O) {
      O->Flags |= Object::FlagClaimed | Object::FlagMarked;
      return O;
    }
    O->Shape = reinterpret_cast<uintptr_t>(To);
    O->Flags |= Object::FlagClaimed | Object::FlagForwarded;
    return To;
  };

  // The claim rule of the rounds, whether they fan out or run inline:
  // lanes race a fetch_or on the claim bit, which admits exactly one
  // winner; losers wait for the winner's publish. The winner publishes a
  // copy by writing its address over the shape word and then setting the
  // forwarded bit with release ordering, a pinned object by setting the
  // mark bit.
  auto relocate = [&](Object *O, TraceLane &Lane) -> Object * {
    const uint8_t Prior = O->fetchSetFlag(Object::FlagClaimed);
    if (Prior & Object::FlagClaimed) {
      // Another lane owns the evacuation; its publish is imminent.
      Object *Published = O->relocation();
      while (!Published) {
        std::this_thread::yield();
        Published = O->relocation();
      }
      return Published;
    }
    Object *To = evacuate(O, Prior & Object::FlagPinned, Lane);
    if (To == O) {
      O->setFlagAtomic(Object::FlagMarked);
      return O;
    }
    O->Shape = reinterpret_cast<uintptr_t>(To);
    O->setFlagAtomic(Object::FlagForwarded);
    return To;
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
  // Root and remset scans run serially on lane 0 with plain claims,
  // drained per phase so each phase's cost is exactly the bytes it
  // discovered.
  {
    profiling::ProfilePhase Phase(&Profiler, profiling::phase::RootScan);
    uint64_t Before = Work.TracedBytes;
    forEachRoot([&](Object *&Root) {
      if (isThreatened(Root))
        Root = relocateSerial(Root);
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
      Source->setSlotRaw(SlotIndex, relocateSerial(Target));
    });
    drainTraceLanes(Lanes, Gray, Work);
    Phase.addCost(Work.TracedBytes - Before);
  }

  // --- Transitive evacuation --------------------------------------------
  // Scan copies (and pinned survivors) for pointers into the threatened
  // region; such targets are themselves relocated and the slots fixed up.
  // Slots referencing immune objects are left alone — immune objects do
  // not move. Runs as the same budgeted, deadline-watched quanta as the
  // mark-sweep trace.
  {
    profiling::ProfilePhase Phase(&Profiler, profiling::phase::Promote);
    uint64_t Before = Work.TracedBytes;
    while (!Gray.empty())
      traceQuantum(Lanes, Gray, scanForPromotion, Work);
    Phase.addCost(Work.TracedBytes - Before);
  }

  // --- Weak-reference processing ----------------------------------------
  // Weak references follow moved targets and are cleared when the target
  // did not survive; references to immune objects are untouched, and a
  // pinned survivor relocates to itself.
  {
    profiling::ProfilePhase Phase(&Profiler, profiling::phase::WeakRefs);
    Phase.addCost(WeakRefs.size());
    for (WeakRef *Weak : WeakRefs)
      if (isThreatened(Weak->get()))
        Weak->set(Weak->get()->relocation());
  }

  // --- Remembered-set rekeying ------------------------------------------
  // Entries whose source moved follow the copy (slot indices are layout-
  // preserved); entries whose threatened source did not survive are
  // dropped. A pinned survivor, traced in place, relocates to itself.
  RemSet.remapSources([&](Object *Source) {
    return isThreatened(Source) ? Source->relocation() : Source;
  });

  // --- Region release and list rebuild ----------------------------------
  // Substitute survivors into the birth-ordered allocation list (births
  // travel with copies, so in-place substitution preserves the order) and
  // release every non-pinned original in the threatened region at once.
  // The birth-ordered walk also feeds the survivor table, reading each
  // survivor rather than its (released) original.
  {
    profiling::ProfilePhase Phase(&Profiler, profiling::phase::Sweep);
    size_t Out = firstBornAfter(Boundary);
    uint64_t Survivors = 0;
    Demographics.beginScavenge(Boundary);
    for (size_t I = Out, E = Objects.size(); I != E; ++I) {
      if (I + ScanPrefetchDistance < E)
        prefetchHeader(Objects[I + ScanPrefetchDistance]);
      Object *O = Objects[I];
      if (Object *Survivor = O->relocation()) {
        Survivors += 1;
        Demographics.recordSurvivor(Survivor->birth(), Survivor->grossBytes());
        Objects[Out++] = Survivor;
        O->clearTraceFlags();
        if (Survivor == O) // Pinned survivor, traced in place.
          continue;
        // The original is released with its own shape back (quarantine
        // poisons by it); a stale raw pointer held by the mutator across
        // this collection is a bug the quarantine canary will catch.
        O->Shape = Survivor->Shape;
      } else {
        Work.ReclaimedBytes += O->grossBytes();
        LastStats.ObjectsReclaimed += 1;
      }
      releaseStorage(O);
    }
    Objects.resize(Out);
    // The lanes moved or traced in place exactly the survivors found here;
    // any other lies outside the threatened suffix (heap corruption).
    DTB_CHECK(Survivors == LastStats.ObjectsTraced,
              "a relocated object is not in the threatened suffix");
    Phase.addCost(Work.ReclaimedBytes);
  }

  // The lanes' evacuation blocks take no more copies; each is freed once
  // its last copy has moved on or died.
  for (TlabBlock *Block : LaneBlocks)
    if (Block)
      retireTlab(Block);
  return Work;
}
