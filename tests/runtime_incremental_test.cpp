//===- tests/runtime_incremental_test.cpp ---------------------------------==//
//
// Incremental trace quanta: a budgeted collection is a reordering of the
// monolithic one (identical ScavengeRecord for any budget, per-quantum
// traced bytes bounded by budget + one object), the begin/step/finish API
// reproduces the one-shot collection, and mutation between quanta is kept
// sound by the Dijkstra insertion barrier, allocate-black colouring, and
// per-step root rescans.
//
//===----------------------------------------------------------------------===//

#include "runtime/Heap.h"
#include "runtime/HeapVerifier.h"

#include "core/Policies.h"

#include <gtest/gtest.h>

#include <vector>

using namespace dtb;
using namespace dtb::runtime;

namespace {

/// Largest gross object buildWorkload allocates: header + one slot + 63
/// raw bytes. Budget overshoot is bounded by one object.
constexpr uint64_t MaxBuiltGrossBytes =
    sizeof(Object) + sizeof(Object *) + 63;

/// Deterministic mixed workload: 40 handle-rooted chains of depth 20 with
/// interleaved garbage. Identical across heaps, so records from different
/// budget configurations are directly comparable.
void buildWorkload(Heap &H, HandleScope &Scope) {
  for (int C = 0; C != 40; ++C) {
    Object *&Head = Scope.slot(nullptr);
    for (int D = 0; D != 20; ++D) {
      Object *N =
          H.allocate(1, static_cast<uint32_t>((C * 7 + D * 3) % 64));
      H.writeSlot(N, 0, Head);
      Head = N;
      H.allocate(0, 16); // Garbage.
    }
  }
}

void expectSameRecord(const core::ScavengeRecord &X,
                      const core::ScavengeRecord &Y) {
  EXPECT_EQ(X.Index, Y.Index);
  EXPECT_EQ(X.Time, Y.Time);
  EXPECT_EQ(X.Boundary, Y.Boundary);
  EXPECT_EQ(X.TracedBytes, Y.TracedBytes);
  EXPECT_EQ(X.MemBeforeBytes, Y.MemBeforeBytes);
  EXPECT_EQ(X.SurvivedBytes, Y.SurvivedBytes);
  EXPECT_EQ(X.ReclaimedBytes, Y.ReclaimedBytes);
}

HeapConfig manualConfig() {
  HeapConfig Config;
  Config.TriggerBytes = 0;
  Config.QuarantineFreedObjects = true;
  return Config;
}

} // namespace

TEST(IncrementalTraceTest, BudgetedCollectionsMatchMonolithic) {
  // Reference: monolithic trace, same workload, two collections (one at a
  // mid-run boundary so the remembered set participates, one full).
  std::vector<core::ScavengeRecord> Reference;
  core::AllocClock MidBoundary = 0;
  {
    Heap H(manualConfig());
    HandleScope Scope(H);
    buildWorkload(H, Scope);
    MidBoundary = H.now() / 2;
    Reference.push_back(H.collectAtBoundary(MidBoundary));
    Reference.push_back(H.collectAtBoundary(0));
    EXPECT_EQ(H.lastCollectionStats().TraceQuanta, 1u);
  }
  ASSERT_GT(Reference[1].TracedBytes, 0u);

  for (uint64_t Budget : {uint64_t(1), uint64_t(64), uint64_t(500),
                          uint64_t(1) << 20}) {
    HeapConfig Config = manualConfig();
    Config.ScavengeBudgetBytes = Budget;
    Heap H(Config);
    HandleScope Scope(H);
    buildWorkload(H, Scope);
    ASSERT_EQ(H.now() / 2, MidBoundary);

    expectSameRecord(Reference[0], H.collectAtBoundary(MidBoundary));
    EXPECT_LE(H.lastCollectionStats().MaxQuantumTracedBytes,
              Budget + MaxBuiltGrossBytes)
        << "budget " << Budget;

    expectSameRecord(Reference[1], H.collectAtBoundary(0));
    const CollectionStats &Stats = H.lastCollectionStats();
    EXPECT_LE(Stats.MaxQuantumTracedBytes, Budget + MaxBuiltGrossBytes)
        << "budget " << Budget;
    EXPECT_GE(Stats.TraceQuanta, 1u);
    if (Budget < Reference[1].TracedBytes) {
      EXPECT_GT(Stats.TraceQuanta, 1u) << "budget " << Budget;
    }

    VerifyResult Verified = verifyHeap(H);
    EXPECT_TRUE(Verified.Ok) << (Verified.Problems.empty()
                                     ? ""
                                     : Verified.Problems.front());
  }
}

TEST(IncrementalTraceTest, StepLoopMatchesMonolithicCollection) {
  core::ScavengeRecord Monolithic;
  {
    Heap H(manualConfig());
    HandleScope Scope(H);
    buildWorkload(H, Scope);
    Monolithic = H.collectAtBoundary(0);
  }

  HeapConfig Config = manualConfig();
  Config.ScavengeBudgetBytes = 300;
  Heap H(Config);
  HandleScope Scope(H);
  buildWorkload(H, Scope);

  EXPECT_FALSE(H.incrementalScavengeActive());
  H.beginIncrementalScavenge(0);
  EXPECT_TRUE(H.incrementalScavengeActive());

  size_t Steps = 0;
  CycleStatus Status;
  while ((Status = H.incrementalScavengeStep()) == CycleStatus::Running)
    ++Steps;
  EXPECT_EQ(Status, CycleStatus::Completed);
  EXPECT_GT(Steps, 1u);
  EXPECT_FALSE(H.incrementalScavengeActive());

  ASSERT_EQ(H.history().size(), 1u);
  expectSameRecord(Monolithic, H.history().last());
  EXPECT_LE(H.lastCollectionStats().MaxQuantumTracedBytes,
            uint64_t(300) + MaxBuiltGrossBytes);
}

TEST(IncrementalTraceTest, InsertionBarrierKeepsObjectMovedBehindBlack) {
  // X is reachable only through A's slot when the cycle begins. Mid-cycle
  // the mutator moves the only reference to X from (still-gray) A into a
  // freshly-allocated black object: without the insertion barrier the
  // trace would never see X again and reclaim it.
  HeapConfig Config = manualConfig();
  Config.ScavengeBudgetBytes = 200;
  Heap H(Config);
  HandleScope Scope(H);

  // Enough early-born filler that the first (birth-ordered) quanta never
  // reach A.
  std::vector<Object **> Keep;
  for (int I = 0; I != 60; ++I)
    Keep.push_back(&Scope.slot(H.allocate(0, 48)));
  Object *&A = Scope.slot(H.allocate(1, 0));
  Object *X = H.allocate(0, 40);
  H.writeSlot(A, 0, X); // X's only reference.

  H.beginIncrementalScavenge(0);
  ASSERT_EQ(H.incrementalScavengeStep(), CycleStatus::Running);

  Object *&N = Scope.slot(H.allocate(1, 0)); // Allocated black.
  H.writeSlot(N, 0, X);                      // Barrier greys X.
  H.writeSlot(A, 0, nullptr);                // Sever the old path.

  ASSERT_EQ(H.finishIncrementalScavenge(), CycleStatus::Completed);

  ASSERT_TRUE(N->isAlive());
  ASSERT_EQ(N->slot(0), X);
  EXPECT_TRUE(X->isAlive());
  VerifyResult Verified = verifyHeap(H);
  EXPECT_TRUE(Verified.Ok) << (Verified.Problems.empty()
                                   ? ""
                                   : Verified.Problems.front());
}

TEST(IncrementalTraceTest, RootRescanKeepsObjectMovedToFreshHandle) {
  // Like the barrier test, but the reference to Y moves into a handle
  // slot by raw assignment — no write barrier fires, so only the per-step
  // root rescan can save Y.
  HeapConfig Config = manualConfig();
  Config.ScavengeBudgetBytes = 200;
  Heap H(Config);
  HandleScope Scope(H);

  std::vector<Object **> Keep;
  for (int I = 0; I != 60; ++I)
    Keep.push_back(&Scope.slot(H.allocate(0, 48)));
  Object *&B = Scope.slot(H.allocate(1, 0));
  Object *Y = H.allocate(0, 40);
  H.writeSlot(B, 0, Y); // Y's only reference.

  H.beginIncrementalScavenge(0);
  ASSERT_EQ(H.incrementalScavengeStep(), CycleStatus::Running);

  Object *&Fresh = Scope.slot(nullptr);
  Fresh = Y;                  // Raw root store: no barrier.
  H.writeSlot(B, 0, nullptr); // Sever the old path.

  ASSERT_EQ(H.finishIncrementalScavenge(), CycleStatus::Completed);

  EXPECT_TRUE(Y->isAlive());
  EXPECT_EQ(Fresh, Y);
}

TEST(IncrementalTraceTest, MidCycleAllocationsAreBlackForOneCycle) {
  HeapConfig Config = manualConfig();
  Config.ScavengeBudgetBytes = 200;
  Heap H(Config);
  HandleScope Scope(H);
  buildWorkload(H, Scope);

  H.beginIncrementalScavenge(0);
  ASSERT_EQ(H.incrementalScavengeStep(), CycleStatus::Running);

  // Unrooted garbage allocated mid-cycle: allocate-black means this cycle
  // must not reclaim it...
  Object *Garbage = H.allocate(0, 32);
  ASSERT_EQ(H.finishIncrementalScavenge(), CycleStatus::Completed);
  EXPECT_TRUE(Garbage->isAlive());

  // ...but the next full collection does.
  uint64_t Resident = H.residentBytes();
  H.collectAtBoundary(0);
  EXPECT_FALSE(Garbage->isAlive());
  EXPECT_LT(H.residentBytes(), Resident);
}

TEST(IncrementalTraceTest, CollectDrainsActiveIncrementalCycleFirst) {
  HeapConfig Config = manualConfig();
  Config.ScavengeBudgetBytes = 150;
  Heap H(Config);
  HandleScope Scope(H);
  buildWorkload(H, Scope);

  H.beginIncrementalScavenge(0);
  ASSERT_EQ(H.incrementalScavengeStep(), CycleStatus::Running);

  // A full collection request first finishes the in-flight cycle (its own
  // record), then runs the requested one. The drained cycle says so.
  H.collectAtBoundary(0);
  EXPECT_EQ(H.incrementalScavengeStep(), CycleStatus::Completed);
  EXPECT_EQ(H.history().size(), 2u);
}

TEST(IncrementalTraceTest, AutomaticTriggersSuspendDuringIncrementalCycle) {
  HeapConfig Config = manualConfig();
  Config.TriggerBytes = 5'000;
  Config.ScavengeBudgetBytes = 100;
  Heap H(Config);
  H.setPolicy(core::createPolicy("full", core::PolicyConfig()));
  HandleScope Scope(H);

  Object *&Root = Scope.slot(H.allocate(1, 0));
  H.writeSlot(Root, 0, H.allocate(0, 32));

  H.beginIncrementalScavenge(0);
  ASSERT_EQ(H.incrementalScavengeStep(), CycleStatus::Running);
  size_t Before = H.history().size();

  // Blow well past the trigger: the allocation-driven collection must stay
  // suspended while the incremental cycle is mid-flight.
  for (int I = 0; I != 200; ++I)
    H.allocate(0, 64);
  EXPECT_EQ(H.history().size(), Before);
  EXPECT_TRUE(H.incrementalScavengeActive());

  ASSERT_EQ(H.finishIncrementalScavenge(), CycleStatus::Completed);
  size_t AfterFinish = H.history().size();
  EXPECT_EQ(AfterFinish, Before + 1);

  // With the cycle retired, the trigger path is live again.
  for (int I = 0; I != 200; ++I)
    H.allocate(0, 64);
  EXPECT_GT(H.history().size(), AfterFinish);
}
