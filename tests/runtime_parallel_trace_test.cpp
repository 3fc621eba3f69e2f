//===- tests/runtime_parallel_trace_test.cpp ------------------------------==//
//
// Lane-count invariance of the parallel trace: the full exported scavenge
// surface (ScavengeRecord streams, collection stats, demographics,
// residency) must be bit-identical for 1 lane vs N on both collectors;
// pinned objects are traced in place under parallel lanes; weak references
// follow moves claimed by racing lanes; and the parallel-trace fault site
// degrades a round (zero child caps, single shared cursor) without
// changing any result.
//
//===----------------------------------------------------------------------===//

#include "runtime/Heap.h"
#include "runtime/HeapVerifier.h"
#include "runtime/WeakRef.h"

#include "core/Policies.h"
#include "report/GhostMutator.h"
#include "support/FaultInjector.h"

#include "TestSeeds.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace dtb;
using namespace dtb::runtime;

namespace {

/// Everything a run exports that must be lane-count invariant.
struct RunResult {
  std::vector<core::ScavengeRecord> Records;
  CollectionStats Stats;
  uint64_t ResidentBytes = 0;
  size_t ResidentObjects = 0;
  size_t DemoEpochs = 0;
  std::vector<uint64_t> DemoLive;
};

RunResult snapshot(const Heap &H) {
  RunResult R;
  for (const core::ScavengeRecord &Rec : H.history().records())
    R.Records.push_back(Rec);
  R.Stats = H.lastCollectionStats();
  R.ResidentBytes = H.residentBytes();
  R.ResidentObjects = H.residentObjects();
  R.DemoEpochs = H.demographics().numEpochs();
  core::AllocClock Step = H.now() / 7 + 1;
  for (core::AllocClock B = 0; B <= H.now(); B += Step)
    R.DemoLive.push_back(H.demographics().liveBytesBornAfter(B));
  return R;
}

void expectIdentical(const RunResult &A, const RunResult &B) {
  ASSERT_EQ(A.Records.size(), B.Records.size());
  for (size_t I = 0; I != A.Records.size(); ++I) {
    const core::ScavengeRecord &X = A.Records[I];
    const core::ScavengeRecord &Y = B.Records[I];
    EXPECT_EQ(X.Index, Y.Index) << "scavenge " << I + 1;
    EXPECT_EQ(X.Time, Y.Time) << "scavenge " << I + 1;
    EXPECT_EQ(X.Boundary, Y.Boundary) << "scavenge " << I + 1;
    EXPECT_EQ(X.TracedBytes, Y.TracedBytes) << "scavenge " << I + 1;
    EXPECT_EQ(X.MemBeforeBytes, Y.MemBeforeBytes) << "scavenge " << I + 1;
    EXPECT_EQ(X.SurvivedBytes, Y.SurvivedBytes) << "scavenge " << I + 1;
    EXPECT_EQ(X.ReclaimedBytes, Y.ReclaimedBytes) << "scavenge " << I + 1;
  }
  EXPECT_EQ(A.Stats.ObjectsReclaimed, B.Stats.ObjectsReclaimed);
  EXPECT_EQ(A.Stats.ObjectsTraced, B.Stats.ObjectsTraced);
  EXPECT_EQ(A.Stats.ObjectsMoved, B.Stats.ObjectsMoved);
  EXPECT_EQ(A.Stats.RememberedSetRoots, B.Stats.RememberedSetRoots);
  EXPECT_EQ(A.Stats.RememberedSetPruned, B.Stats.RememberedSetPruned);
  EXPECT_EQ(A.Stats.TraceQuanta, B.Stats.TraceQuanta);
  EXPECT_EQ(A.Stats.MaxQuantumTracedBytes, B.Stats.MaxQuantumTracedBytes);
  EXPECT_EQ(A.ResidentBytes, B.ResidentBytes);
  EXPECT_EQ(A.ResidentObjects, B.ResidentObjects);
  EXPECT_EQ(A.DemoEpochs, B.DemoEpochs);
  EXPECT_EQ(A.DemoLive, B.DemoLive);
}

/// A full policy-driven ghost-mutator run at the given lane count.
RunResult runGhost(CollectorKind Kind, unsigned Lanes,
                   const std::string &Policy) {
  HeapConfig Config;
  Config.TriggerBytes = 20'000;
  Config.Collector = Kind;
  Config.TraceThreads = Lanes;
  Heap H(Config);
  core::PolicyConfig PolicyConfig;
  PolicyConfig.TraceMaxBytes = 5'000;
  PolicyConfig.MemMaxBytes = 60'000;
  H.setPolicy(core::createPolicy(Policy, PolicyConfig));

  HandleScope Scope(H);
  uint64_t Seed = test::effectiveSeed(0x61057);
  DTB_SCOPED_SEED_TRACE(Seed);
  report::GhostMutator Mutator(H, Scope, Seed);
  Mutator.run(300'000);
  return snapshot(H);
}

/// Builds a wide two-level graph: \p Spines rooted objects, each pointing
/// at a private child. Rounds carry hundreds of items, so 4-lane runs
/// genuinely fan out and steal.
void buildWideGraph(Heap &H, HandleScope &Scope, size_t Spines) {
  for (size_t I = 0; I != Spines; ++I) {
    Object *&Root = Scope.slot(H.allocate(1, static_cast<uint32_t>(I % 48)));
    Object *Child = H.allocate(0, static_cast<uint32_t>((I * 3) % 64));
    H.writeSlot(Root, 0, Child);
  }
}

/// A DTBFM copying run over a leaf-heavy heap, built in batches with a
/// policy-driven collection after each. Most handle-rooted objects have
/// no slots, so their rounds run inline; slotted parents share leaf
/// children, so the parents' rounds fan out and lanes race to claim the
/// same child. Several handles alias one object, a pinned leaf is shared
/// too, and weak references name a surviving and a dying leaf. Checks the
/// aliasing, pinning and weak-reference outcomes and the verifier after
/// every collection.
RunResult runLeafHeavyCopying(unsigned Lanes) {
  HeapConfig Config;
  Config.TriggerBytes = 0;
  Config.Collector = CollectorKind::Copying;
  Config.TraceThreads = Lanes;
  Config.QuarantineFreedObjects = true;
  Heap H(Config);
  core::PolicyConfig PolicyConfig;
  PolicyConfig.TraceMaxBytes = 150'000;
  H.setPolicy(core::createPolicy("dtbfm", PolicyConfig));
  HandleScope Scope(H);

  std::vector<Object **> Aliases;
  Object *Aliased = H.allocate(0, 24);
  for (int I = 0; I != 5; ++I)
    Aliases.push_back(&Scope.slot(Aliased));
  Object *PinnedLeaf = H.allocate(0, 40);
  H.pinObject(PinnedLeaf);
  WeakRef DyingWeak(H, H.allocate(0, 16));

  Object **SharedHolder = nullptr;
  WeakRef SurvivorWeak(H);
  for (int Batch = 0; Batch != 4; ++Batch) {
    std::vector<Object *> Shared;
    for (uint32_t I = 0; I != 96; ++I)
      Shared.push_back(H.allocate(0, 8 + I % 24));
    for (uint32_t P = 0; P != 200; ++P) {
      Object *&Parent = Scope.slot(H.allocate(4, 16));
      for (uint32_t K = 0; K != 4; ++K)
        H.writeSlot(Parent, K, Shared[(P * 5 + K * 11) % Shared.size()]);
      if (P % 50 == 0) {
        H.writeSlot(Parent, 1, *Aliases.front());
        H.writeSlot(Parent, 2, PinnedLeaf);
      }
      if (Batch == 0 && P == 0)
        SharedHolder = &Parent;
    }
    if (Batch == 0)
      SurvivorWeak.set((*SharedHolder)->slot(0));
    for (uint32_t I = 0; I != 2'000; ++I)
      Scope.slot(H.allocate(0, (I * 7) % 64));
    for (uint32_t I = 0; I != 500; ++I)
      H.allocate(0, 32); // Garbage.

    H.collect();
    for (Object **Alias : Aliases)
      EXPECT_EQ(*Alias, *Aliases.front()) << "alias got its own copy";
    EXPECT_TRUE((*Aliases.front())->isAlive());
    EXPECT_TRUE(PinnedLeaf->isAlive());
    EXPECT_EQ(SurvivorWeak.get(), (*SharedHolder)->slot(0));
    VerifyResult Verified = verifyHeap(H);
    EXPECT_TRUE(Verified.Ok) << (Verified.Problems.empty()
                                     ? ""
                                     : Verified.Problems.front());
  }
  EXPECT_EQ(DyingWeak.get(), nullptr);
  EXPECT_GT(H.lastCollectionStats().ObjectsMoved, 0u);
  return snapshot(H);
}

} // namespace

TEST(ParallelTraceTest, MarkSweepGhostRunIsLaneCountInvariant) {
  for (const char *Policy : {"full", "dtbfm"}) {
    RunResult Serial = runGhost(CollectorKind::MarkSweep, 1, Policy);
    ASSERT_FALSE(Serial.Records.empty());
    expectIdentical(Serial, runGhost(CollectorKind::MarkSweep, 2, Policy));
    expectIdentical(Serial, runGhost(CollectorKind::MarkSweep, 4, Policy));
  }
}

TEST(ParallelTraceTest, CopyingGhostRunIsLaneCountInvariant) {
  for (const char *Policy : {"full", "dtbfm"}) {
    RunResult Serial = runGhost(CollectorKind::Copying, 1, Policy);
    ASSERT_FALSE(Serial.Records.empty());
    expectIdentical(Serial, runGhost(CollectorKind::Copying, 2, Policy));
    expectIdentical(Serial, runGhost(CollectorKind::Copying, 4, Policy));
  }
}

TEST(ParallelTraceTest, WideGraphStealingMatchesSerial) {
  for (CollectorKind Kind :
       {CollectorKind::MarkSweep, CollectorKind::Copying}) {
    RunResult Results[2];
    for (int Run = 0; Run != 2; ++Run) {
      HeapConfig Config;
      Config.TriggerBytes = 0;
      Config.Collector = Kind;
      Config.TraceThreads = Run == 0 ? 1 : 4;
      Heap H(Config);
      HandleScope Scope(H);
      buildWideGraph(H, Scope, 2'000);
      H.allocate(0, 32); // Garbage, so the sweep has something to do.
      H.collectAtBoundary(0);
      VerifyResult Verified = verifyHeap(H);
      ASSERT_TRUE(Verified.Ok) << Verified.Problems.front();
      Results[Run] = snapshot(H);
    }
    ASSERT_EQ(Results[0].Records.size(), 1u);
    EXPECT_GT(Results[0].Stats.ObjectsTraced, 3'000u);
    expectIdentical(Results[0], Results[1]);
  }
}

TEST(ParallelTraceTest, LeafHeavyCopyingIsLaneCountInvariant) {
  RunResult Serial = runLeafHeavyCopying(1);
  ASSERT_EQ(Serial.Records.size(), 4u);
  expectIdentical(Serial, runLeafHeavyCopying(4));
}

TEST(ParallelTraceTest, PinnedObjectsTracedInPlaceUnderLanes) {
  HeapConfig Config;
  Config.TriggerBytes = 0;
  Config.Collector = CollectorKind::Copying;
  Config.TraceThreads = 4;
  Config.QuarantineFreedObjects = true;
  Heap H(Config);
  HandleScope Scope(H);

  std::vector<Object **> Roots;
  std::vector<Object *> PinnedSet;
  for (size_t I = 0; I != 300; ++I) {
    Object *&Root = Scope.slot(H.allocate(1, 16));
    H.writeSlot(Root, 0, H.allocate(0, 24));
    Roots.push_back(&Root);
    if (I % 5 == 0) {
      H.pinObject(Root);
      PinnedSet.push_back(Root);
    }
  }

  H.collectAtBoundary(0);

  // Pinned objects kept their addresses and stayed alive; their children
  // (possibly evacuated by racing lanes) are alive through the fixed-up
  // slots.
  for (size_t I = 0; I != PinnedSet.size(); ++I) {
    Object *Pinned = *Roots[5 * I];
    EXPECT_EQ(Pinned, PinnedSet[I]) << "pinned object moved";
    ASSERT_TRUE(Pinned->isAlive());
    ASSERT_NE(Pinned->slot(0), nullptr);
    EXPECT_TRUE(Pinned->slot(0)->isAlive());
  }
  // Unpinned survivors were evacuated: the handles now reference live
  // copies (the quarantined originals would fail the canary).
  for (Object **Root : Roots) {
    ASSERT_TRUE((*Root)->isAlive());
    EXPECT_TRUE((*Root)->slot(0)->isAlive());
  }
  VerifyResult Verified = verifyHeap(H);
  EXPECT_TRUE(Verified.Ok) << (Verified.Problems.empty()
                                   ? ""
                                   : Verified.Problems.front());
}

TEST(ParallelTraceTest, WeakRefsFollowParallelEvacuation) {
  HeapConfig Config;
  Config.TriggerBytes = 0;
  Config.Collector = CollectorKind::Copying;
  Config.TraceThreads = 4;
  Config.QuarantineFreedObjects = true;
  Heap H(Config);
  HandleScope Scope(H);

  std::vector<std::unique_ptr<WeakRef>> LiveWeaks, DeadWeaks;
  for (size_t I = 0; I != 200; ++I) {
    Object *&Root = Scope.slot(H.allocate(0, 16));
    LiveWeaks.push_back(std::make_unique<WeakRef>(H, Root));
    DeadWeaks.push_back(std::make_unique<WeakRef>(H, H.allocate(0, 16)));
  }

  H.collectAtBoundary(0);

  for (const auto &Weak : LiveWeaks) {
    ASSERT_NE(Weak->get(), nullptr);
    EXPECT_TRUE(Weak->get()->isAlive());
  }
  for (const auto &Weak : DeadWeaks)
    EXPECT_EQ(Weak->get(), nullptr);
}

TEST(ParallelTraceChaosTest, DegradedRoundsOverflowWithoutChangingResults) {
  // Reference: no faults, serial.
  RunResult Reference;
  std::vector<unsigned> LaneCounts = {1, 4};
  for (size_t Run = 0; Run != 1 + LaneCounts.size(); ++Run) {
    HeapConfig Config;
    Config.TriggerBytes = 0;
    Config.TraceThreads = Run == 0 ? 1 : LaneCounts[Run - 1];
    Heap H(Config);
    HandleScope Scope(H);
    buildWideGraph(H, Scope, 1'500);

    if (Run == 0) {
      H.collectAtBoundary(0);
      Reference = snapshot(H);
      EXPECT_EQ(Reference.Stats.LaneOverflowEvents, 0u);
      continue;
    }

    // Degrade every round: zero private child caps force every discovered
    // child through the shared overflow list, and all lanes contend on a
    // single cursor (maximal steal contention / starvation ordering).
    uint64_t FaultSeed = test::effectiveSeed(7);
    DTB_SCOPED_SEED_TRACE(FaultSeed);
    FaultInjector Injector(FaultSeed);
    Injector.setProbability(FaultSite::ParallelTrace, 1.0);
    {
      FaultInjectionScope FaultScope(Injector);
      H.collectAtBoundary(0);
    }
    EXPECT_GT(Injector.injections(FaultSite::ParallelTrace), 0u);

    RunResult Degraded = snapshot(H);
    // Every child claimed during a degraded round detoured through the
    // overflow list: one event per discovered child, independent of lane
    // count.
    EXPECT_EQ(Degraded.Stats.LaneOverflowEvents, 1'500u);
    // The degraded stats carry the overflow count; everything else is
    // bit-identical to the clean serial run.
    Degraded.Stats.LaneOverflowEvents = Reference.Stats.LaneOverflowEvents;
    expectIdentical(Reference, Degraded);

    VerifyResult Verified = verifyHeap(H);
    EXPECT_TRUE(Verified.Ok) << (Verified.Problems.empty()
                                     ? ""
                                     : Verified.Problems.front());
  }
}
