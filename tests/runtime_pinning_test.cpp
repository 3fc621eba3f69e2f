//===- tests/runtime_pinning_test.cpp -------------------------------------==//
//
// Tests for object pinning — the hook for handing objects to a Mature
// Object Space / Key Object collector (paper §2): pinned objects are
// exempt from age-based reclamation and keep their referents alive.
//
//===----------------------------------------------------------------------===//

#include "runtime/Heap.h"
#include "runtime/HeapVerifier.h"

#include <gtest/gtest.h>

#include <vector>

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

TEST(PinningTest, PinnedObjectSurvivesFullCollection) {
  Heap H(quarantineConfig());
  Object *O = H.allocate(0, 32); // Never rooted.
  H.pinObject(O);
  H.collectAtBoundary(0);
  EXPECT_TRUE(O->isAlive());
  EXPECT_EQ(H.residentObjects(), 1u);
}

TEST(PinningTest, PinnedObjectKeepsReferentsAlive) {
  Heap H(quarantineConfig());
  Object *Pinned = H.allocate(1);
  Object *Child = H.allocate(0, 16);
  H.writeSlot(Pinned, 0, Child);
  H.pinObject(Pinned);

  H.collectAtBoundary(0);
  EXPECT_TRUE(Pinned->isAlive());
  EXPECT_TRUE(Child->isAlive());
}

TEST(PinningTest, UnpinReturnsObjectToAgeBasedCollection) {
  Heap H(quarantineConfig());
  Object *O = H.allocate(0, 32);
  H.pinObject(O);
  H.collectAtBoundary(0);
  ASSERT_TRUE(O->isAlive());

  H.unpinObject(O);
  H.collectAtBoundary(0);
  EXPECT_FALSE(O->isAlive());
  EXPECT_EQ(H.residentObjects(), 0u);
}

TEST(PinningTest, IsPinnedReflectsState) {
  Heap H(quarantineConfig());
  Object *O = H.allocate(0);
  EXPECT_FALSE(H.isPinned(O));
  H.pinObject(O);
  EXPECT_TRUE(H.isPinned(O));
  H.pinObject(O); // Idempotent.
  EXPECT_EQ(H.pinnedObjects().size(), 1u);
  H.unpinObject(O);
  EXPECT_FALSE(H.isPinned(O));
}

TEST(PinningTest, PinnedImmuneObjectStillCoveredByRememberedSet) {
  // A pinned *immune* object pointing forward across the boundary: the
  // target must survive via the remembered set (pinning changes nothing
  // for immune objects).
  Heap H(quarantineConfig());
  Object *Pinned = H.allocate(1);
  H.pinObject(Pinned);
  core::AllocClock Boundary = H.now();
  Object *Young = H.allocate(0);
  H.writeSlot(Pinned, 0, Young);

  H.collectAtBoundary(Boundary);
  EXPECT_TRUE(Young->isAlive());
}

TEST(PinningTest, PinnedThreatenedObjectIsTracedNotJustKept) {
  // A pinned young object's backward pointers must keep threatened
  // referents alive through normal tracing.
  Heap H(quarantineConfig());
  Object *Older = H.allocate(0, 16); // Unreachable except through Pinned.
  Object *Pinned = H.allocate(1);
  H.writeSlot(Pinned, 0, Older); // Backward-in-time: no remembered entry.
  H.pinObject(Pinned);

  H.collectAtBoundary(0); // Both threatened.
  EXPECT_TRUE(Pinned->isAlive());
  EXPECT_TRUE(Older->isAlive());
}

TEST(PinningTest, VerifierTreatsPinnedAsRoots) {
  Heap H(quarantineConfig());
  Object *Pinned = H.allocate(1);
  Object *Child = H.allocate(0);
  H.writeSlot(Pinned, 0, Child);
  H.pinObject(Pinned);
  H.collectAtBoundary(0);

  VerifyResult Result = verifyHeap(H);
  EXPECT_TRUE(Result.Ok) << (Result.Problems.empty()
                                 ? ""
                                 : Result.Problems.front());
  EXPECT_EQ(reachableBytes(H), H.residentBytes());
}

TEST(PinningTest, ThousandsOfPinnedAmongEvacuatedKeepTheirAddresses) {
  // A copying collection tests each claimed object's pin, so with
  // thousands pinned every pinned object must stay put while every other
  // survivor moves. Unpinning clears the bit, and the next collection
  // moves the formerly pinned objects too.
  HeapConfig Config = quarantineConfig();
  Config.Collector = CollectorKind::Copying;
  Heap H(Config);
  HandleScope Scope(H);
  constexpr size_t Count = 6'000;
  std::vector<Object **> Roots;
  std::vector<Object *> PinnedAt;
  for (size_t I = 0; I != Count; ++I) {
    Object *&Root = Scope.slot(H.allocate(1, 8 + I % 40));
    H.writeSlot(Root, 0, H.allocate(0, 16));
    H.allocate(0, 24); // Garbage.
    Roots.push_back(&Root);
    if (I % 2 == 0) {
      H.pinObject(Root);
      PinnedAt.push_back(Root);
    }
  }
  ASSERT_EQ(H.pinnedObjects().size(), PinnedAt.size());

  for (int Round = 0; Round != 2; ++Round) {
    H.collectAtBoundary(0);
    // Every unpinned root and every child moved, each exactly once.
    EXPECT_EQ(H.lastCollectionStats().ObjectsMoved, Count / 2 + Count);
    for (size_t I = 0; I != Count; ++I) {
      Object *Root = *Roots[I];
      ASSERT_TRUE(Root->isAlive());
      ASSERT_TRUE(Root->slot(0)->isAlive());
      EXPECT_EQ(H.isPinned(Root), I % 2 == 0);
      if (I % 2 == 0) {
        EXPECT_EQ(Root, PinnedAt[I / 2]) << "pinned object " << I << " moved";
      }
    }
    VerifyResult Result = verifyHeap(H);
    ASSERT_TRUE(Result.Ok) << Result.Problems.front();
  }

  for (Object *O : PinnedAt)
    H.unpinObject(O);
  EXPECT_TRUE(H.pinnedObjects().empty());
  for (Object *O : PinnedAt)
    EXPECT_FALSE(H.isPinned(O));
  H.collectAtBoundary(0);
  EXPECT_EQ(H.lastCollectionStats().ObjectsMoved, 2 * Count);
  for (size_t I = 0; I != Count; I += 2) {
    EXPECT_NE(*Roots[I], PinnedAt[I / 2]) << "unpinned object " << I
                                          << " did not move";
    EXPECT_FALSE(H.isPinned(*Roots[I]));
  }
  VerifyResult Result = verifyHeap(H);
  EXPECT_TRUE(Result.Ok) << (Result.Problems.empty()
                                 ? ""
                                 : Result.Problems.front());
}
