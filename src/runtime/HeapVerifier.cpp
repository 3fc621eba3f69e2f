//===- runtime/HeapVerifier.cpp -------------------------------------------==//

#include "runtime/HeapVerifier.h"

#include "runtime/Heap.h"
#include "runtime/Mutator.h"

#include <cstdio>
#include <unordered_set>
#include <vector>

using namespace dtb;
using namespace dtb::runtime;

namespace {

std::string describeObject(const Object *O) {
  char Buffer[64];
  std::snprintf(Buffer, sizeof(Buffer), "object %p (birth %llu)",
                static_cast<const void *>(O),
                static_cast<unsigned long long>(O->birth()));
  return Buffer;
}

/// Collects the reachable set by breadth-first traversal from every root.
/// Traversal only follows slots of objects whose canary is intact, so a
/// corrupted heap cannot take the verifier down with it.
std::unordered_set<const Object *> computeReachable(const Heap &H,
                                                    VerifyResult *Result) {
  std::unordered_set<const Object *> Reachable;
  std::vector<const Object *> Worklist;

  auto visitRoot = [&](const Object *O, const char *Kind) {
    if (!O)
      return;
    if (!O->isAlive()) {
      if (Result)
        Result->fail(std::string("root (") + Kind + ") points at " +
                     describeObject(O) + " whose canary is dead");
      return;
    }
    if (Reachable.insert(O).second)
      Worklist.push_back(O);
  };

  for (Object *const *Root : H.globalRoots())
    visitRoot(*Root, "global");
  for (const Object *Handle : H.handleSlots())
    visitRoot(Handle, "handle");
  for (const Object *PinnedObject : H.pinnedObjects())
    visitRoot(PinnedObject, "pinned");
  // Per-context root slots. The verifier runs at safepoints (e.g. inside
  // Heap::runAtSafepoint), where pending allocations are already
  // published and barrier buffers flushed, so contexts contribute only
  // their roots here.
  for (const MutatorContext *Ctx : H.mutatorContexts())
    for (const Object *Root : Ctx->roots())
      visitRoot(Root, "mutator-context");

  while (!Worklist.empty()) {
    const Object *O = Worklist.back();
    Worklist.pop_back();
    for (uint32_t I = 0, E = O->numSlots(); I != E; ++I) {
      const Object *Target = O->slot(I);
      if (!Target)
        continue;
      if (!Target->isAlive()) {
        if (Result)
          Result->fail(describeObject(O) + " slot " + std::to_string(I) +
                       " points at reclaimed memory (use-after-free)");
        continue;
      }
      if (Reachable.insert(Target).second)
        Worklist.push_back(Target);
    }
  }
  return Reachable;
}

} // namespace

VerifyResult dtb::runtime::verifyHeap(const Heap &H) {
  VerifyResult Result;

  // Structural checks over the allocation list. Trace-flag hygiene rides
  // along: mark/claim/forwarded bits are collection-internal, so outside
  // an open incremental cycle none may linger (an aborted cycle must scrub
  // every flag it set), and during one only the cycle's threatened
  // non-black window may carry the mark. So does block identity: each
  // block-interior object lies in the block its header names and is
  // counted out of a copy of that block's live count.
  IncrementalCycleInfo Cycle = H.incrementalCycleInfo();
  std::vector<Heap::BlockInfo> Blocks = H.blockTable();
  // The pin is a header bit backed by the pinned root list: each listed
  // object appears once and carries the bit, and each resident object
  // carrying it is listed. (A listed object with a dead canary is reported
  // with the roots below.)
  std::unordered_set<const Object *> PinnedListed;
  for (const Object *O : H.pinnedObjects()) {
    if (!PinnedListed.insert(O).second)
      Result.fail(describeObject(O) + " is listed as pinned twice");
    else if (O->isAlive() && !O->isPinned())
      Result.fail(describeObject(O) +
                  " is listed as pinned but lacks the pinned bit");
  }
  std::unordered_set<const Object *> Resident;
  core::AllocClock PrevBirth = 0;
  uint64_t ByteTotal = 0;
  for (const Object *O : H.objects()) {
    if (!O->isAlive())
      Result.fail(describeObject(O) + " is resident but its canary is dead");
    if (O->birth() <= PrevBirth)
      Result.fail("allocation list is not strictly birth-ordered at " +
                  describeObject(O));
    if (O->birth() > H.now())
      Result.fail(describeObject(O) + " was born after the current clock");
    if (O->traceFlags() != 0) {
      if (!Cycle.Active)
        Result.fail(describeObject(O) +
                    " carries a stale trace flag outside a collection");
      else if ((O->traceFlags() & ~Object::FlagMarked) != 0)
        Result.fail(describeObject(O) + " carries the claim or forwarded "
                                        "flag during a mark-sweep cycle");
      else if (O->birth() <= Cycle.Boundary || O->birth() > Cycle.BlackClock)
        Result.fail(describeObject(O) +
                    " is marked but lies outside the open cycle's "
                    "threatened window");
    }
    if (O->isPinned() && !PinnedListed.count(O))
      Result.fail(describeObject(O) +
                  " carries the pinned bit but is not listed as pinned");
    if (O->storageKind() == Object::StorageTlab) {
      const char *P = reinterpret_cast<const char *>(O);
      Heap::BlockInfo *Block =
          O->blockSlot() < Blocks.size() ? &Blocks[O->blockSlot()] : nullptr;
      if (!Block || !Block->Begin || P < Block->Begin ||
          P + O->grossBytes() > Block->End)
        Result.fail(describeObject(O) +
                    " lies outside the resident block its header names");
      else
        Block->LiveObjects -= 1;
    }
    PrevBirth = O->birth();
    ByteTotal += O->grossBytes();
    Resident.insert(O);
  }
  if (ByteTotal != H.residentBytes())
    Result.fail("resident byte accounting is inconsistent: counted " +
                std::to_string(ByteTotal) + ", heap says " +
                std::to_string(H.residentBytes()));

  // A block counts exactly the resident objects that name it, so each
  // count is now zero; quarantine never counts a released object out.
  for (size_t Slot = 0; Slot != Blocks.size(); ++Slot) {
    auto Excess = static_cast<int32_t>(Blocks[Slot].LiveObjects);
    if (Blocks[Slot].Begin && Excess != 0 &&
        !H.config().QuarantineFreedObjects)
      Result.fail("block slot " + std::to_string(Slot) + " counts " +
                  std::to_string(Excess) +
                  " more live objects than resident objects name it");
  }

  // Safety: every reachable object must be resident (and alive).
  std::unordered_set<const Object *> Reachable =
      computeReachable(H, &Result);
  for (const Object *O : Reachable)
    if (!Resident.count(O))
      Result.fail(describeObject(O) +
                  " is reachable but not in the allocation list");

  // Write-barrier completeness: every forward-in-time pointer between
  // resident objects must be remembered, or a future boundary between the
  // two birth times would let the collector miss it. Suspended while the
  // heap is in the remembered-set-pessimized state: the set was knowingly
  // dropped (overflow or injected fault), the next collection is forced to
  // a full trace, and the set is rebuilt there — so incompleteness is safe
  // by construction until then.
  const RememberedSet &RemSet = H.rememberedSet();
  if (!H.remSetPessimized()) {
    for (const Object *O : H.objects()) {
      if (!O->isAlive())
        continue;
      for (uint32_t I = 0, E = O->numSlots(); I != E; ++I) {
        const Object *Target = O->slot(I);
        if (!Target || !Target->isAlive())
          continue;
        if (Target->birth() > O->birth() && !RemSet.contains(O, I))
          Result.fail("missing remembered-set entry for forward-in-time "
                      "pointer from " +
                      describeObject(O) + " slot " + std::to_string(I));
      }
    }
  }

  // Remembered-set soundness: sources must be resident and alive, slots in
  // range. (Stale entries — overwritten slots — are legal; they are pruned
  // lazily at the next scavenge.)
  RemSet.forEach([&](const Object *Source, uint32_t SlotIndex) {
    if (!Resident.count(Source)) {
      Result.fail("remembered set names non-resident source " +
                  describeObject(Source));
      return;
    }
    if (SlotIndex >= Source->numSlots())
      Result.fail("remembered-set slot index out of range on " +
                  describeObject(Source));
  });

  // A failed verification is a postmortem moment: stamp it into the
  // always-on flight recorder and dump the retained tail (throttled), so
  // the events leading up to the corruption are on record even when the
  // telemetry recorder is off.
  if (!Result.Ok) {
    H.flightRecorder().record(FlightEventKind::VerifierFailure, H.now(),
                              Result.Problems.size());
    H.flightRecorder().autoDump(H.flightDumpStream(), "verifier failure");
  }

  return Result;
}

std::unordered_set<const Object *>
dtb::runtime::reachableObjects(const Heap &H) {
  return computeReachable(H, nullptr);
}

uint64_t dtb::runtime::reachableBytes(const Heap &H) {
  uint64_t Bytes = 0;
  for (const Object *O : computeReachable(H, nullptr))
    Bytes += O->grossBytes();
  return Bytes;
}
