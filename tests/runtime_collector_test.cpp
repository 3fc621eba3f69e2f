//===- tests/runtime_collector_test.cpp -----------------------------------==//
//
// Tests for the mark-sweep scavenger: reclamation correctness under
// arbitrary boundaries, tenured garbage and untenuring, remembered-set
// rooting (including the paper's Figure 1 nepotism scenario), stale-entry
// pruning, and quarantine poisoning.
//
//===----------------------------------------------------------------------===//

#include "runtime/Heap.h"
#include "runtime/HeapVerifier.h"

#include "core/Policies.h"

#include <gtest/gtest.h>

using namespace dtb;
using namespace dtb::runtime;

namespace {

HeapConfig quarantineConfig() {
  HeapConfig Config;
  Config.TriggerBytes = 0;
  Config.QuarantineFreedObjects = true;
  return Config;
}

} // namespace

TEST(CollectorTest, FullCollectionReclaimsUnreachable) {
  Heap H(quarantineConfig());
  HandleScope Scope(H);
  Object *&Live = Scope.slot(H.allocate(1));
  Object *Garbage = H.allocate(0);

  const core::ScavengeRecord &R = H.collectAtBoundary(0);
  EXPECT_TRUE(Live->isAlive());
  EXPECT_FALSE(Garbage->isAlive()); // Quarantined: canary flipped.
  EXPECT_EQ(R.ReclaimedBytes, static_cast<uint64_t>(sizeof(Object)));
  EXPECT_EQ(R.TracedBytes, Live->grossBytes());
  EXPECT_EQ(H.residentObjects(), 1u);
}

TEST(CollectorTest, ReachableGraphSurvivesDeepChain) {
  Heap H(quarantineConfig());
  HandleScope Scope(H);
  Object *&Head = Scope.slot(H.allocate(1));
  Object *Tail = Head;
  for (int I = 0; I != 100; ++I) {
    Object *Next = H.allocate(1);
    H.writeSlot(Tail, 0, Next);
    Tail = Next;
  }
  H.collectAtBoundary(0);
  EXPECT_EQ(H.residentObjects(), 101u);
  // Walk the chain: everything alive.
  Object *Cursor = Head;
  int Count = 0;
  while (Cursor) {
    EXPECT_TRUE(Cursor->isAlive());
    Cursor = Cursor->slot(0);
    ++Count;
  }
  EXPECT_EQ(Count, 101);
}

TEST(CollectorTest, ImmuneGarbageSurvivesAsTenured) {
  Heap H(quarantineConfig());
  Object *OldGarbage = H.allocate(0, 100);
  core::AllocClock Boundary = H.now();
  H.allocate(0, 100); // Young garbage.

  const core::ScavengeRecord &R = H.collectAtBoundary(Boundary);
  // Only the young garbage was reclaimed; the immune one is tenured
  // garbage and still resident.
  EXPECT_TRUE(OldGarbage->isAlive());
  EXPECT_EQ(H.residentObjects(), 1u);
  EXPECT_EQ(R.SurvivedBytes, OldGarbage->grossBytes());
}

TEST(CollectorTest, UntenuringReclaimsOldGarbageLater) {
  Heap H(quarantineConfig());
  Object *OldGarbage = H.allocate(0, 100);
  core::AllocClock Boundary = H.now();
  H.allocate(0, 100);
  H.collectAtBoundary(Boundary); // Tenured garbage survives.
  ASSERT_TRUE(OldGarbage->isAlive());

  // Move the boundary back to 0: the paper's demotion. The tenured
  // garbage is reclaimed.
  H.collectAtBoundary(0);
  EXPECT_FALSE(OldGarbage->isAlive());
  EXPECT_EQ(H.residentObjects(), 0u);
}

TEST(CollectorTest, RememberedSetKeepsCrossBoundaryTarget) {
  Heap H(quarantineConfig());
  HandleScope Scope(H);
  Object *&Old = Scope.slot(H.allocate(1));
  core::AllocClock Boundary = H.now();
  Object *Young = H.allocate(0);
  H.writeSlot(Old, 0, Young); // Forward-in-time: remembered.

  // Scavenge threatening only the young object. The ONLY path to it from
  // the roots goes through the immune object, which is not traced — the
  // remembered set must keep it alive.
  H.collectAtBoundary(Boundary);
  EXPECT_TRUE(Young->isAlive());
  EXPECT_EQ(H.lastCollectionStats().RememberedSetRoots, 1u);
  EXPECT_EQ(Old->slot(0), Young);
}

TEST(CollectorTest, MissingBarrierWouldLoseTheTarget) {
  // The negative of the previous test: with the store done behind the
  // barrier's back, the young object is (incorrectly, if this were mutator
  // code) reclaimed — demonstrating exactly what the remembered set is
  // for.
  Heap H(quarantineConfig());
  HandleScope Scope(H);
  Object *&Old = Scope.slot(H.allocate(1));
  core::AllocClock Boundary = H.now();
  Object *Young = H.allocate(0);
  H.dangerouslyWriteSlotWithoutBarrier(Old, 0, Young);

  H.collectAtBoundary(Boundary);
  EXPECT_FALSE(Young->isAlive());
}

TEST(CollectorTest, NepotismKeepsTargetOfTenuredGarbage) {
  // The paper's Figure 1: tenured garbage I points at threatened F; F is
  // unreachable from the program, yet survives because the remembered-set
  // entry from the (dead but immune) source acts as a root. A later
  // full collection reclaims both.
  Heap H(quarantineConfig());
  Object *TenuredGarbage = H.allocate(1); // Never rooted.
  core::AllocClock Boundary = H.now();
  Object *Victim = H.allocate(0);
  H.writeSlot(TenuredGarbage, 0, Victim);

  H.collectAtBoundary(Boundary);
  // Nepotism: the victim survived even though nothing live references it.
  EXPECT_TRUE(Victim->isAlive());

  // Full collection (boundary 0) finally reclaims both.
  H.collectAtBoundary(0);
  EXPECT_FALSE(TenuredGarbage->isAlive());
  EXPECT_FALSE(Victim->isAlive());
  EXPECT_EQ(H.residentObjects(), 0u);
}

TEST(CollectorTest, StaleRememberedEntriesArePruned) {
  Heap H(quarantineConfig());
  HandleScope Scope(H);
  Object *&Old = Scope.slot(H.allocate(1));
  Object *Young = H.allocate(0);
  H.writeSlot(Old, 0, Young);
  ASSERT_EQ(H.rememberedSet().size(), 1u);

  // Overwrite the slot: the entry is stale and pruned at the next
  // scavenge.
  H.writeSlot(Old, 0, nullptr);
  H.collectAtBoundary(0);
  EXPECT_TRUE(H.rememberedSet().empty());
  EXPECT_EQ(H.lastCollectionStats().RememberedSetPruned, 1u);
}

TEST(CollectorTest, DyingSourceDropsItsEntries) {
  Heap H(quarantineConfig());
  Object *DoomedOld = H.allocate(1); // Unreachable.
  Object *Young = H.allocate(0);
  H.writeSlot(DoomedOld, 0, Young);
  ASSERT_EQ(H.rememberedSet().size(), 1u);

  H.collectAtBoundary(0); // Reclaims both.
  EXPECT_TRUE(H.rememberedSet().empty());
}

TEST(CollectorTest, SweepDropsOnlyDeadSourcesEntries) {
  Heap H(quarantineConfig());
  HandleScope Scope(H);
  Object *&LiveOld = Scope.slot(H.allocate(2));
  const core::AllocClock Boundary = H.now();
  H.writeSlot(LiveOld, 0, H.allocate(0, 16));
  H.writeSlot(LiveOld, 1, H.allocate(0, 24));
  for (int I = 0; I != 100; ++I)
    H.allocate(0, 8 + I % 32); // Dead leaves: never remembered sources.
  ASSERT_EQ(H.rememberedSet().size(), 2u);

  H.collectAtBoundary(Boundary);
  EXPECT_EQ(H.lastCollectionStats().ObjectsReclaimed, 100u);
  EXPECT_EQ(H.rememberedSet().size(), 2u);
  VerifyResult Verified = verifyHeap(H);
  EXPECT_TRUE(Verified.Ok) << (Verified.Problems.empty()
                                   ? ""
                                   : Verified.Problems.front());

  // A threatened, unreachable source with three forward-in-time entries:
  // the remembered-set scan keeps them (they are not stale), and the
  // sweep drops exactly those three when the source dies.
  Object *DeadSource = H.allocate(3);
  for (uint32_t S = 0; S != 3; ++S)
    H.writeSlot(DeadSource, S, H.allocate(0, 8));
  H.allocate(0, 40); // One more dead leaf.
  ASSERT_EQ(H.rememberedSet().size(), 5u);

  H.collectAtBoundary(Boundary);
  EXPECT_EQ(H.lastCollectionStats().ObjectsReclaimed, 5u);
  EXPECT_EQ(H.rememberedSet().size(), 2u);
  EXPECT_TRUE(H.rememberedSet().contains(LiveOld, 0));
  EXPECT_TRUE(H.rememberedSet().contains(LiveOld, 1));
  Verified = verifyHeap(H);
  EXPECT_TRUE(Verified.Ok) << (Verified.Problems.empty()
                                   ? ""
                                   : Verified.Problems.front());
}

TEST(CollectorTest, QuarantinePoisonsPayload) {
  Heap H(quarantineConfig());
  Object *Garbage = H.allocate(0, 8);
  const char *Raw = static_cast<const char *>(Garbage->rawData());
  H.collectAtBoundary(0);
  EXPECT_FALSE(Garbage->isAlive());
  for (int I = 0; I != 8; ++I)
    EXPECT_EQ(static_cast<unsigned char>(Raw[I]), 0xDB);
}

TEST(CollectorTest, HistoryRecordsAreComplete) {
  Heap H(quarantineConfig());
  HandleScope Scope(H);
  Scope.slot(H.allocate(0, 100));
  H.allocate(0, 50);

  uint64_t MemBefore = H.residentBytes();
  core::AllocClock Now = H.now();
  const core::ScavengeRecord &R = H.collectAtBoundary(0);
  EXPECT_EQ(R.Index, 1u);
  EXPECT_EQ(R.Time, Now);
  EXPECT_EQ(R.Boundary, 0u);
  EXPECT_EQ(R.MemBeforeBytes, MemBefore);
  EXPECT_EQ(R.MemBeforeBytes, R.SurvivedBytes + R.ReclaimedBytes);
  EXPECT_EQ(H.history().size(), 1u);
}

TEST(CollectorTest, PolicyDrivenCollect) {
  Heap H(quarantineConfig());
  H.setPolicy(core::createPolicy("fixed1", {}));
  HandleScope Scope(H);
  Scope.slot(H.allocate(0, 100));
  H.allocate(0, 100);

  // First policy-driven collection: FIXED1's t_0 = 0 -> full.
  const core::ScavengeRecord &First = H.collect();
  EXPECT_EQ(First.Boundary, 0u);

  Object *MidGarbage = H.allocate(0, 100);
  (void)MidGarbage;
  const core::ScavengeRecord &Second = H.collect();
  // Second collection: boundary at t_1.
  EXPECT_EQ(Second.Boundary, First.Time);
}

TEST(CollectorTest, CollectedHeapPassesVerifier) {
  Heap H(quarantineConfig());
  HandleScope Scope(H);
  Object *&Root = Scope.slot(H.allocate(3));
  for (int I = 0; I != 3; ++I) {
    Object *Child = H.allocate(1, 16);
    H.writeSlot(Root, static_cast<uint32_t>(I), Child);
    H.allocate(0, 24); // Garbage.
  }
  H.collectAtBoundary(0);
  VerifyResult Result = verifyHeap(H);
  EXPECT_TRUE(Result.Ok) << (Result.Problems.empty()
                                 ? ""
                                 : Result.Problems.front());
  EXPECT_EQ(reachableBytes(H), H.residentBytes());
}

TEST(CollectorTest, SelfReferentialCycleCollectsWhenUnrooted) {
  Heap H(quarantineConfig());
  Object *A;
  {
    HandleScope Scope(H);
    Object *&RootedA = Scope.slot(H.allocate(1));
    Object *B = H.allocate(1);
    H.writeSlot(RootedA, 0, B);
    H.writeSlot(B, 0, RootedA); // Cycle.
    A = RootedA;
    H.collectAtBoundary(0);
    EXPECT_EQ(H.residentObjects(), 2u); // Rooted: survives.
  }
  // Scope gone: the cycle is unreachable.
  H.collectAtBoundary(0);
  EXPECT_FALSE(A->isAlive());
  EXPECT_EQ(H.residentObjects(), 0u);
}
