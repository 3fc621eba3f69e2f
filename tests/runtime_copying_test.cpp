//===- tests/runtime_copying_test.cpp -------------------------------------==//
//
// Tests for the evacuating (copying) collector: relocation semantics,
// handle/root/remembered-set fix-ups, pinning, payload preservation,
// byte-accounting equivalence with the mark-sweep strategy, and the bump
// blocks that direct allocations and copies live in.
//
//===----------------------------------------------------------------------===//

#include "runtime/Heap.h"
#include "runtime/HeapVerifier.h"

#include "core/Policies.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

using namespace dtb;
using namespace dtb::runtime;

namespace {

HeapConfig copyingConfig() {
  HeapConfig Config;
  Config.TriggerBytes = 0;
  Config.QuarantineFreedObjects = true;
  Config.Collector = CollectorKind::Copying;
  return Config;
}

} // namespace

TEST(CopyingTest, SurvivorsAreRelocated) {
  Heap H(copyingConfig());
  HandleScope Scope(H);
  Object *&Live = Scope.slot(H.allocate(0, 32));
  Object *Original = Live;
  H.allocate(0, 32); // Garbage.

  H.collectAtBoundary(0);
  EXPECT_NE(Live, Original);        // The handle was updated...
  EXPECT_TRUE(Live->isAlive());     // ...to a live copy...
  EXPECT_FALSE(Original->isAlive()); // ...and the original is released.
  EXPECT_EQ(H.lastCollectionStats().ObjectsMoved, 1u);
  EXPECT_EQ(H.residentObjects(), 1u);
}

TEST(CopyingTest, PayloadAndBirthTravelWithTheCopy) {
  Heap H(copyingConfig());
  HandleScope Scope(H);
  Object *&Live = Scope.slot(H.allocate(1, 16));
  std::memcpy(Live->rawData(), "threatening", 12);
  core::AllocClock Birth = Live->birth();
  uint32_t Gross = Live->grossBytes();

  H.collectAtBoundary(0);
  EXPECT_EQ(Live->birth(), Birth);
  EXPECT_EQ(Live->grossBytes(), Gross);
  EXPECT_EQ(Live->numSlots(), 1u);
  EXPECT_EQ(std::strcmp(static_cast<const char *>(Live->rawData()),
                        "threatening"),
            0);
}

TEST(CopyingTest, InteriorPointersAreFixedUp) {
  Heap H(copyingConfig());
  HandleScope Scope(H);
  Object *&Head = Scope.slot(H.allocate(1));
  Object *Tail = H.allocate(1, 8);
  H.writeSlot(Head, 0, Tail);
  std::memcpy(Tail->rawData(), "tail", 5);

  H.collectAtBoundary(0);
  ASSERT_NE(Head->slot(0), nullptr);
  ASSERT_NE(Head->slot(0), Tail); // Tail moved too.
  EXPECT_TRUE(Head->slot(0)->isAlive());
  EXPECT_EQ(std::strcmp(static_cast<const char *>(
                            Head->slot(0)->rawData()),
                        "tail"),
            0);
}

TEST(CopyingTest, CyclesSurviveRelocation) {
  Heap H(copyingConfig());
  HandleScope Scope(H);
  Object *&A = Scope.slot(H.allocate(1));
  Object *B = H.allocate(1);
  H.writeSlot(A, 0, B);
  H.writeSlot(B, 0, A);

  H.collectAtBoundary(0);
  Object *NewA = A;
  Object *NewB = NewA->slot(0);
  ASSERT_NE(NewB, nullptr);
  EXPECT_EQ(NewB->slot(0), NewA); // The cycle points at the copies.
  EXPECT_EQ(H.residentObjects(), 2u);
}

TEST(CopyingTest, ImmuneObjectsNeverMove) {
  Heap H(copyingConfig());
  HandleScope Scope(H);
  Object *&Old = Scope.slot(H.allocate(0, 16));
  Object *OldAddress = Old;
  core::AllocClock Boundary = H.now();
  Scope.slot(H.allocate(0, 16)); // Young survivor.

  H.collectAtBoundary(Boundary);
  EXPECT_EQ(Old, OldAddress);
  EXPECT_TRUE(Old->isAlive());
}

TEST(CopyingTest, RememberedSlotInImmuneSourceIsRewritten) {
  Heap H(copyingConfig());
  HandleScope Scope(H);
  Object *&Old = Scope.slot(H.allocate(1));
  core::AllocClock Boundary = H.now();
  Object *Young = H.allocate(0, 8);
  std::memcpy(Young->rawData(), "young", 6);
  H.writeSlot(Old, 0, Young);

  H.collectAtBoundary(Boundary);
  Object *Moved = Old->slot(0);
  ASSERT_NE(Moved, nullptr);
  EXPECT_NE(Moved, Young);
  EXPECT_TRUE(Moved->isAlive());
  EXPECT_EQ(std::strcmp(static_cast<const char *>(Moved->rawData()),
                        "young"),
            0);
  // The entry survived the move: a later full collection must still see
  // the forward-in-time pointer (verifier checks completeness).
  EXPECT_TRUE(verifyHeap(H).Ok);
}

TEST(CopyingTest, RememberedSetRekeyedWhenSourceMoves) {
  Heap H(copyingConfig());
  HandleScope Scope(H);
  Object *&Source = Scope.slot(H.allocate(1));
  Object *&Target = Scope.slot(H.allocate(0));
  H.writeSlot(Source, 0, Target); // Forward-in-time, both threatened.
  ASSERT_EQ(H.rememberedSet().size(), 1u);

  H.collectAtBoundary(0); // Both move.
  EXPECT_EQ(H.rememberedSet().size(), 1u);
  EXPECT_TRUE(H.rememberedSet().contains(Source, 0));
  EXPECT_TRUE(verifyHeap(H).Ok);
}

TEST(CopyingTest, PinnedObjectsDoNotMove) {
  Heap H(copyingConfig());
  HandleScope Scope(H);
  Object *&Keep = Scope.slot(H.allocate(1, 8));
  Object *PinnedAddress = Keep;
  H.pinObject(Keep);

  H.collectAtBoundary(0);
  EXPECT_EQ(Keep, PinnedAddress); // Same address: traced in place.
  EXPECT_TRUE(Keep->isAlive());
  EXPECT_EQ(H.lastCollectionStats().ObjectsMoved, 0u);
}

TEST(CopyingTest, PinnedReferentsAreStillRelocated) {
  Heap H(copyingConfig());
  Object *Pinned = H.allocate(1);
  H.pinObject(Pinned);
  Object *Child = H.allocate(0, 8);
  H.writeSlot(Pinned, 0, Child);

  H.collectAtBoundary(0);
  ASSERT_NE(Pinned->slot(0), nullptr);
  EXPECT_NE(Pinned->slot(0), Child); // Child moved; slot fixed up.
  EXPECT_TRUE(Pinned->slot(0)->isAlive());
}

TEST(CopyingTest, TenuredGarbageAndUntenuringWorkUnchanged) {
  Heap H(copyingConfig());
  Object *OldGarbage = H.allocate(0, 100);
  core::AllocClock Boundary = H.now();
  H.allocate(0, 100);

  H.collectAtBoundary(Boundary);
  EXPECT_TRUE(OldGarbage->isAlive()); // Immune: tenured garbage, in place.
  H.collectAtBoundary(0);
  EXPECT_FALSE(OldGarbage->isAlive()); // Untenured and reclaimed.
  EXPECT_EQ(H.residentObjects(), 0u);
}

TEST(CopyingTest, StaleRawPointerIsDetectableAfterMove) {
  // The mutator contract under a moving collector: raw pointers must not
  // be held across a collection. The quarantine canary catches it.
  Heap H(copyingConfig());
  HandleScope Scope(H);
  Object *&Handle = Scope.slot(H.allocate(0));
  Object *Stale = Handle;
  H.collectAtBoundary(0);
  EXPECT_FALSE(Stale->isAlive()); // Original released and poisoned.
  EXPECT_TRUE(Handle->isAlive()); // The handle sees the copy.
}

TEST(CopyingTest, AccountingMatchesMarkSweepExactly) {
  // Run the identical mutation script against both strategies: every
  // policy-visible number (traced, reclaimed, survived, boundaries) must
  // agree — the strategy is invisible to the policy layer.
  auto Script = [](Heap &H) {
    HandleScope Scope(H);
    Object *&List = Scope.slot(nullptr);
    Rng R(7);
    for (int I = 0; I != 400; ++I) {
      Object *Node = H.allocate(1, static_cast<uint32_t>(R.nextBelow(64)));
      if (R.nextBool(0.3)) {
        H.writeSlot(Node, 0, List);
        List = Node;
      }
      if (I % 100 == 99)
        H.collectAtBoundary(I % 200 == 199 ? 0 : H.now() / 2);
    }
    H.collectAtBoundary(0);
  };

  HeapConfig MsConfig;
  MsConfig.TriggerBytes = 0;
  MsConfig.Collector = CollectorKind::MarkSweep;
  Heap Ms(MsConfig);
  Script(Ms);

  HeapConfig CpConfig = MsConfig;
  CpConfig.Collector = CollectorKind::Copying;
  Heap Cp(CpConfig);
  Script(Cp);

  ASSERT_EQ(Ms.history().size(), Cp.history().size());
  for (uint64_t I = 1; I <= Ms.history().size(); ++I) {
    const core::ScavengeRecord &A = Ms.history().record(I);
    const core::ScavengeRecord &B = Cp.history().record(I);
    EXPECT_EQ(A.TracedBytes, B.TracedBytes) << I;
    EXPECT_EQ(A.ReclaimedBytes, B.ReclaimedBytes) << I;
    EXPECT_EQ(A.SurvivedBytes, B.SurvivedBytes) << I;
    EXPECT_EQ(A.MemBeforeBytes, B.MemBeforeBytes) << I;
  }
  EXPECT_EQ(Ms.residentBytes(), Cp.residentBytes());
}

TEST(CopyingTest, VerifierPassesAfterRepeatedCopies) {
  Heap H(copyingConfig());
  HandleScope Scope(H);
  Object *&Root = Scope.slot(H.allocate(4));
  for (int Round = 0; Round != 10; ++Round) {
    for (int I = 0; I != 4; ++I) {
      Object *Child = H.allocate(1, 16);
      H.writeSlot(Root, static_cast<uint32_t>(I), Child);
      H.allocate(0, 24); // Garbage.
    }
    H.collectAtBoundary(Round % 3 == 0 ? 0 : H.now() / 2);
    VerifyResult Result = verifyHeap(H);
    ASSERT_TRUE(Result.Ok) << Result.Problems.front();
  }
}

//===----------------------------------------------------------------------===//
// Property test: random mutator under the copying collector
//===----------------------------------------------------------------------===//

namespace {
class CopyingPropertyTest : public testing::TestWithParam<uint64_t> {};
} // namespace

TEST_P(CopyingPropertyTest, RandomGraphsStaySoundUnderEvacuation) {
  HeapConfig Config = copyingConfig();
  Config.TriggerBytes = 8'192;
  Heap H(Config);
  core::PolicyConfig PolicyConfig;
  PolicyConfig.TraceMaxBytes = 2'000;
  H.setPolicy(core::createPolicy("dtbfm", PolicyConfig));

  HandleScope Scope(H);
  // Handle-slot references are the only stable names under a moving
  // collector; the mutator works exclusively through them.
  std::vector<Object **> Roots;
  Rng R(GetParam());
  for (int Step = 0; Step != 2'000; ++Step) {
    double Action = R.nextDouble();
    if (Action < 0.6 || Roots.empty()) {
      Object *O =
          H.allocate(static_cast<uint32_t>(R.nextBelow(3)),
                     static_cast<uint32_t>(R.nextBelow(96)));
      if (R.nextBool(0.4))
        Roots.push_back(&Scope.slot(O));
    } else if (Action < 0.85) {
      Object *A = *Roots[R.nextBelow(Roots.size())];
      Object *B = *Roots[R.nextBelow(Roots.size())];
      if (A && B && A->numSlots() > 0)
        H.writeSlot(A, static_cast<uint32_t>(R.nextBelow(A->numSlots())),
                    B);
    } else {
      size_t Index = R.nextBelow(Roots.size());
      *Roots[Index] = nullptr;
      Roots[Index] = Roots.back();
      Roots.pop_back();
    }
  }
  EXPECT_GT(H.history().size(), 0u);
  VerifyResult Result = verifyHeap(H);
  EXPECT_TRUE(Result.Ok) << Result.Problems.front();
  H.collectAtBoundary(0);
  EXPECT_EQ(H.residentBytes(), reachableBytes(H));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CopyingPropertyTest,
                         testing::Values(11ull, 22ull, 33ull, 44ull));

//===----------------------------------------------------------------------===//
// Block storage: direct allocations and copies live in bump blocks
//===----------------------------------------------------------------------===//

namespace {

/// Every resident object except \p Large (over the block size rule) lies
/// inside exactly one bump block, no two footprints overlap, and the heap
/// verifies.
void expectBlockInvariants(const Heap &H, const Object *Large,
                           const char *Where) {
  SCOPED_TRACE(Where);
  std::vector<std::pair<const void *, const void *>> Ranges =
      H.tlabBlockRanges();
  std::vector<std::pair<const char *, const char *>> Footprints;
  for (const Object *O : H.objects()) {
    const char *Begin = reinterpret_cast<const char *>(O);
    const char *End = Begin + O->grossBytes();
    size_t Containing = 0;
    for (const auto &[Lo, Hi] : Ranges)
      if (Begin >= static_cast<const char *>(Lo) &&
          End <= static_cast<const char *>(Hi))
        ++Containing;
    EXPECT_EQ(Containing, O == Large ? 0u : 1u)
        << "object born at " << O->birth();
    Footprints.emplace_back(Begin, End);
  }
  std::sort(Footprints.begin(), Footprints.end());
  for (size_t I = 1; I != Footprints.size(); ++I)
    ASSERT_LE(Footprints[I - 1].second, Footprints[I].first)
        << "two objects share storage";
  VerifyResult Result = verifyHeap(H);
  EXPECT_TRUE(Result.Ok) << (Result.Problems.empty() ? ""
                                                     : Result.Problems.front());
}

/// Runs the block-storage script on a copying heap with \p TraceThreads
/// lanes and returns, per collection, the numbers that must not depend on
/// the lane count.
std::vector<std::vector<uint64_t>> runBlockScript(unsigned TraceThreads) {
  HeapConfig Config;
  Config.TriggerBytes = 0;
  Config.Collector = CollectorKind::Copying;
  Config.TraceThreads = TraceThreads;
  Heap H(Config);
  HandleScope Scope(H);
  // A 128-slot hub whose children point at more objects with slots: the
  // round after the hub's holds 128 items, enough for the lanes to
  // evacuate in parallel. Slot-less leaves, a pinned object, an object
  // over 8 KB and weak references to a survivor and to a dying object
  // ride along.
  Object *&Hub = Scope.slot(H.allocate(128));
  Object *&Large = Scope.slot(H.allocate(0, 9'000));
  Object *&Pinned = Scope.slot(H.allocate(1, 16));
  H.pinObject(Pinned);
  Object *const PinnedAddress = Pinned;
  Object *&Survivor = Scope.slot(H.allocate(0, 24));
  WeakRef ToSurvivor(H, Survivor);
  WeakRef ToDying(H, H.allocate(0, 24));
  expectBlockInvariants(H, Large, "before the first collection");

  std::vector<std::vector<uint64_t>> Records;
  Rng R(0xB10C);
  for (int Round = 0; Round != 6; ++Round) {
    // No trigger: raw pointers stay valid until the explicit collection.
    for (uint32_t I = 0; I != Hub->numSlots(); ++I) {
      if (Round != 0 && R.nextBool(0.5))
        continue; // The old child survives another round.
      Object *Child = H.allocate(2, static_cast<uint32_t>(R.nextBelow(48)));
      H.writeSlot(Hub, I, Child);
      Object *Grandchild = H.allocate(1, 8);
      H.writeSlot(Child, 0, Grandchild);
      H.writeSlot(Grandchild, 0,
                  H.allocate(0, static_cast<uint32_t>(R.nextBelow(64))));
      if (R.nextBool(0.3))
        H.writeSlot(Child, 1, Survivor);
      H.allocate(0, static_cast<uint32_t>(R.nextBelow(96))); // Garbage.
    }
    H.writeSlot(Pinned, 0, H.allocate(0, 32));
    // The first collection is full, so the dying weak target (immune to
    // a later boundary) is reclaimed right away.
    core::AllocClock Boundary = Round % 3 == 0 ? 0 : H.now() / 2;
    core::ScavengeRecord Record = H.collectAtBoundary(Boundary);
    expectBlockInvariants(H, Large, "after a collection");
    EXPECT_EQ(Pinned, PinnedAddress) << "a pinned object moved";
    EXPECT_EQ(ToSurvivor.get(), Survivor);
    EXPECT_EQ(ToDying.get(), nullptr);
    const CollectionStats &Stats = H.lastCollectionStats();
    Records.push_back({Record.Boundary, Record.TracedBytes,
                       Record.ReclaimedBytes, Record.SurvivedBytes,
                       Stats.ObjectsMoved, Stats.ObjectsReclaimed,
                       H.residentBytes(), H.residentObjects()});
  }

  // With nothing rooted, a full collection empties every block; only the
  // heap's current direct-allocation block may stay resident.
  H.unpinObject(Pinned);
  Hub = Large = Pinned = Survivor = nullptr;
  H.collectAtBoundary(0);
  EXPECT_EQ(H.residentObjects(), 0u);
  EXPECT_EQ(ToSurvivor.get(), nullptr);
  EXPECT_LE(H.tlabBlockRanges().size(), 1u) << "an empty block stayed";
  return Records;
}

} // namespace

TEST(CopyingBlockTest, EveryObjectLivesInOneBlockAtAnyLaneCount) {
  std::vector<std::vector<uint64_t>> Serial = runBlockScript(1);
  std::vector<std::vector<uint64_t>> Parallel = runBlockScript(4);
  ASSERT_EQ(Serial.size(), 6u);
  EXPECT_EQ(Serial, Parallel) << "records differ across lane counts";
}
