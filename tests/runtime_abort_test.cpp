//===- tests/runtime_abort_test.cpp ---------------------------------------==//
//
// Abortable incremental cycles: an aborted cycle is observably equivalent
// to one that never started (records, stats, demographics, trace flags),
// aborting re-arms the suspended allocation trigger, Heap::collect()
// drains an open cycle first, mid-cycle allocation pressure walks the
// accelerate / complete-now / abort rungs, a closed cycle's status sticks
// however it closed, and the deterministic pause-deadline watchdog backs
// off the budget (and degrades to serial tracing) without changing a
// single exported record.
//
//===----------------------------------------------------------------------===//

#include "runtime/Heap.h"
#include "runtime/HeapVerifier.h"
#include "runtime/Mutator.h"

#include "core/MachineModel.h"
#include "core/Policies.h"
#include "support/FaultInjector.h"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

using namespace dtb;
using namespace dtb::runtime;

namespace {

/// Same deterministic workload the incremental tests use: 40 handle-rooted
/// chains of depth 20 with interleaved garbage.
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

void expectVerifies(Heap &H) {
  VerifyResult Verified = verifyHeap(H);
  EXPECT_TRUE(Verified.Ok) << (Verified.Problems.empty()
                                   ? ""
                                   : Verified.Problems.front());
}

HeapConfig manualConfig() {
  HeapConfig Config;
  Config.TriggerBytes = 0;
  Config.QuarantineFreedObjects = true;
  return Config;
}

uint64_t eventsOf(const Heap &H, DegradationKind Kind) {
  return H.degradationEventsOfKind(Kind);
}

} // namespace

TEST(AbortTest, AbortedCycleIsEquivalentToNeverStarting) {
  // Reference heap: the workload, one mid-run collection, one full one —
  // with no incremental cycle ever opened.
  HeapConfig Config = manualConfig();
  Config.ScavengeBudgetBytes = 300;

  Heap R(Config);
  HandleScope RScope(R);
  buildWorkload(R, RScope);
  core::AllocClock Mid = R.now() / 2;
  std::vector<uint64_t> RefFreshEstimates =
      R.demographics().liveEstimatesSnapshot();
  core::ScavengeRecord RefMid = R.collectAtBoundary(Mid);
  std::vector<uint64_t> RefMidEstimates =
      R.demographics().liveEstimatesSnapshot();
  core::ScavengeRecord RefFull = R.collectAtBoundary(0);

  // Test heap: same workload, but an incremental cycle is opened, stepped
  // part-way, and aborted before each collection.
  Heap H(Config);
  HandleScope Scope(H);
  buildWorkload(H, Scope);
  ASSERT_EQ(H.now() / 2, Mid);

  uint64_t ResidentBefore = H.residentBytes();
  H.beginIncrementalScavenge(0);
  for (int Step = 0; Step != 3; ++Step)
    ASSERT_EQ(H.incrementalScavengeStep(), CycleStatus::Running);
  ASSERT_EQ(H.abortIncrementalScavenge(), CycleStatus::Aborted);

  // The abort reclaimed nothing, appended no record, and left no flags.
  EXPECT_EQ(H.residentBytes(), ResidentBefore);
  EXPECT_EQ(H.history().size(), 0u);
  for (const Object *O : H.objects())
    ASSERT_EQ(O->traceFlags(), 0u);
  expectVerifies(H);

  // Demographics rolled back: the survivor-table estimates match a heap
  // that never opened the cycle.
  EXPECT_EQ(H.demographics().liveEstimatesSnapshot(), RefFreshEstimates);

  // And the collections that follow are bit-identical to the reference.
  expectSameRecord(RefMid, H.collectAtBoundary(Mid));
  EXPECT_EQ(H.demographics().liveEstimatesSnapshot(), RefMidEstimates);
  H.beginIncrementalScavenge(H.now() / 4);
  ASSERT_EQ(H.incrementalScavengeStep(), CycleStatus::Running);
  ASSERT_EQ(H.abortIncrementalScavenge(), CycleStatus::Aborted);
  expectSameRecord(RefFull, H.collectAtBoundary(0));
  EXPECT_EQ(H.residentBytes(), R.residentBytes());
  EXPECT_EQ(H.demographics().liveEstimatesSnapshot(),
            R.demographics().liveEstimatesSnapshot());
  EXPECT_EQ(H.demographics().numEpochs(), R.demographics().numEpochs());
  expectVerifies(H);
}

TEST(AbortTest, AbortRestoresLastCollectionStats) {
  HeapConfig Config = manualConfig();
  Config.ScavengeBudgetBytes = 250;
  Heap H(Config);
  HandleScope Scope(H);
  buildWorkload(H, Scope);

  H.collectAtBoundary(H.now() / 2);
  CollectionStats Before = H.lastCollectionStats();

  H.beginIncrementalScavenge(0);
  ASSERT_EQ(H.incrementalScavengeStep(), CycleStatus::Running);
  ASSERT_EQ(H.abortIncrementalScavenge(), CycleStatus::Aborted);

  const CollectionStats &After = H.lastCollectionStats();
  EXPECT_EQ(Before.ObjectsReclaimed, After.ObjectsReclaimed);
  EXPECT_EQ(Before.ObjectsTraced, After.ObjectsTraced);
  EXPECT_EQ(Before.RememberedSetRoots, After.RememberedSetRoots);
  EXPECT_EQ(Before.TraceQuanta, After.TraceQuanta);
  EXPECT_EQ(Before.MaxQuantumTracedBytes, After.MaxQuantumTracedBytes);
  EXPECT_EQ(Before.WatchdogViolations, After.WatchdogViolations);
}

TEST(AbortTest, AbortRecordsCycleAbortedDegradation) {
  HeapConfig Config = manualConfig();
  Config.ScavengeBudgetBytes = 200;
  Heap H(Config);
  HandleScope Scope(H);
  buildWorkload(H, Scope);

  H.beginIncrementalScavenge(0);
  ASSERT_EQ(H.incrementalScavengeStep(), CycleStatus::Running);
  ASSERT_EQ(H.abortIncrementalScavenge(), CycleStatus::Aborted);

  EXPECT_EQ(H.totalDegradationEvents(), 1u);
  EXPECT_EQ(eventsOf(H, DegradationKind::CycleAborted), 1u);
  ASSERT_EQ(H.degradationLog().size(), 1u);
  const DegradationEvent &Event = H.degradationLog().back();
  EXPECT_EQ(Event.Kind, DegradationKind::CycleAborted);
  EXPECT_NE(Event.Detail.find("explicit abort"), std::string::npos)
      << Event.Detail;
}

TEST(AbortTest, AbortWithoutActiveCycleDies) {
  Heap H(manualConfig());
  EXPECT_DEATH(H.abortIncrementalScavenge(), "no incremental scavenge");
}

TEST(AbortTest, ClosedCycleStatusSticksOnEveryClosePath) {
  // A cycle closes through its embedder, an injected step fault, the
  // pressure ladder serving a context's allocation, or a collection that
  // drains it. However it closed, every later step, finish and abort
  // returns the closing status and changes nothing until the next begin.
  struct ClosePath {
    const char *Name;
    CycleStatus Closed;
    std::function<void(Heap &, MutatorContext &)> Close;
  };
  const ClosePath Paths[] = {
      {"embedder step completes", CycleStatus::Completed,
       [](Heap &H, MutatorContext &) {
         while (H.incrementalScavengeStep() == CycleStatus::Running) {
         }
       }},
      {"injected step fault aborts", CycleStatus::Aborted,
       [](Heap &H, MutatorContext &) {
         FaultInjector Injector(1);
         Injector.armOneShot(FaultSite::IncrementalStep, 1);
         FaultInjectionScope Faults(Injector);
         (void)H.incrementalScavengeStep();
       }},
      {"ladder accelerate rung completes", CycleStatus::Completed,
       [](Heap &H, MutatorContext &Ctx) {
         // With no gray work left, the rung's first quantum closes the
         // cycle; an injected allocation fault on the context enters the
         // ladder without crossing the limit.
         while (H.incrementalCycleInfo().GrayObjects != 0)
           ASSERT_EQ(H.incrementalScavengeStep(), CycleStatus::Running);
         FaultInjector Injector(2);
         Injector.armOneShot(FaultSite::Allocation, 1);
         FaultInjectionScope Faults(Injector);
         ASSERT_NE(Ctx.allocate(0, 8), nullptr);
       }},
      {"ladder abort rung aborts", CycleStatus::Aborted,
       [](Heap &H, MutatorContext &Ctx) {
         // Four quanta leave a backlog too deep for complete-now.
         uint64_t Pad = H.config().HeapLimitBytes - H.residentBytes() + 1;
         ASSERT_NE(Ctx.allocate(0, static_cast<uint32_t>(Pad)), nullptr);
       }},
      {"explicit abort", CycleStatus::Aborted,
       [](Heap &H, MutatorContext &) { (void)H.abortIncrementalScavenge(); }},
      {"collection drains", CycleStatus::Completed,
       [](Heap &H, MutatorContext &) { H.collectAtBoundary(0); }},
  };

  for (const ClosePath &Path : Paths) {
    SCOPED_TRACE(Path.Name);
    HeapConfig Config = manualConfig();
    Config.ScavengeBudgetBytes = 64;
    Config.HeapLimitBytes = 64 * 1024;
    Heap H(Config);
    MutatorContext Ctx(H);
    size_t Hub = Ctx.allocateRooted(220, 0);
    for (uint32_t I = 0; I != 220; ++I)
      Ctx.writeSlot(Ctx.root(Hub), I, Ctx.allocate(0, 24));
    for (int I = 0; I != 160; ++I)
      Ctx.allocate(0, 128); // Garbage.

    H.beginIncrementalScavenge(0);
    ASSERT_EQ(H.incrementalScavengeStep(), CycleStatus::Running);
    Path.Close(H, Ctx);
    if (::testing::Test::HasFatalFailure())
      return;
    ASSERT_FALSE(H.incrementalScavengeActive());

    const size_t Records = H.history().size();
    const uint64_t Events = H.totalDegradationEvents();
    const CollectionStats Stats = H.lastCollectionStats();
    for (int Round = 0; Round != 2; ++Round) {
      EXPECT_EQ(H.incrementalScavengeStep(), Path.Closed);
      EXPECT_EQ(H.finishIncrementalScavenge(), Path.Closed);
      EXPECT_EQ(H.abortIncrementalScavenge(), Path.Closed);
    }
    EXPECT_EQ(H.history().size(), Records);
    EXPECT_EQ(H.totalDegradationEvents(), Events);
    EXPECT_TRUE(H.lastCollectionStats() == Stats);
    H.runAtSafepoint([](Heap &Stopped) { expectVerifies(Stopped); });
  }
}

TEST(AbortTest, CompleteNowRungRecordsOnlyACompletedDrain) {
  // The complete-now rung drains a cycle whose gray backlog fits in four
  // budgets. Here the drain's first quantum meets an injected step fault
  // and aborts the cycle, so the rung reports no early completion and the
  // ladder goes on to the emergency full collection.
  HeapConfig Config = manualConfig();
  Config.ScavengeBudgetBytes = 64;
  Config.HeapLimitBytes = 64 * 1024;
  Heap H(Config);
  HandleScope Scope(H);

  Object *&Hub = Scope.slot(H.allocate(12, 0));
  for (uint32_t I = 0; I != 12; ++I)
    H.writeSlot(Hub, I, H.allocate(0, 24));
  for (int I = 0; I != 160; ++I)
    H.allocate(0, 128); // Garbage.

  H.beginIncrementalScavenge(0);
  ASSERT_EQ(H.incrementalScavengeStep(), CycleStatus::Running);

  // The accelerate rung's four quanta are the step site's first four
  // consults under the injector; the fifth is the drain's first quantum.
  uint64_t Pad = Config.HeapLimitBytes - H.residentBytes() + 1;
  {
    FaultInjector Injector(1);
    Injector.armOneShot(FaultSite::IncrementalStep, 5);
    FaultInjectionScope Faults(Injector);
    ASSERT_NE(H.tryAllocate(0, static_cast<uint32_t>(Pad)), nullptr);
    EXPECT_EQ(Injector.injections(FaultSite::IncrementalStep), 1u);
  }

  EXPECT_EQ(H.incrementalScavengeStep(), CycleStatus::Aborted);
  std::vector<std::string> Rungs;
  for (const DegradationEvent &Event : H.degradationLog())
    Rungs.push_back(degradationKindName(Event.Kind));
  EXPECT_EQ(Rungs, (std::vector<std::string>{"cycle-accelerated",
                                             "cycle-aborted",
                                             "emergency-full-collection"}));
  EXPECT_EQ(eventsOf(H, DegradationKind::CycleCompletedEarly), 0u);
  EXPECT_EQ(H.history().size(), 1u); // The emergency collection's record.
  expectVerifies(H);
}

TEST(AbortTest, TriggerRearmsAfterAbort) {
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

  // Triggering is suspended while the cycle is open...
  for (int I = 0; I != 200; ++I)
    H.allocate(0, 64);
  EXPECT_EQ(H.history().size(), Before);

  // ...and live again as soon as the cycle is aborted.
  ASSERT_EQ(H.abortIncrementalScavenge(), CycleStatus::Aborted);
  for (int I = 0; I != 200; ++I)
    H.allocate(0, 64);
  EXPECT_GT(H.history().size(), Before);
  expectVerifies(H);
}

TEST(AbortTest, PolicyCollectDrainsOpenCycleFirst) {
  HeapConfig Config = manualConfig();
  Config.ScavengeBudgetBytes = 150;
  Heap H(Config);
  H.setPolicy(core::createPolicy("full", core::PolicyConfig()));
  HandleScope Scope(H);
  buildWorkload(H, Scope);

  H.beginIncrementalScavenge(0);
  ASSERT_EQ(H.incrementalScavengeStep(), CycleStatus::Running);

  // The policy-driven entry point must retire the in-flight cycle (its
  // own record) before running the collection it was asked for.
  H.collect();
  EXPECT_EQ(H.finishIncrementalScavenge(), CycleStatus::Completed);
  EXPECT_EQ(H.history().size(), 2u);
  expectVerifies(H);
}

TEST(AbortTest, MidCyclePressureAcceleratesOpenCycle) {
  // An unbounded budget means the accelerate rung's first quantum drains
  // the whole cycle — the cheapest rung alone relieves the pressure.
  HeapConfig Config = manualConfig();
  Config.HeapLimitBytes = 64 * 1024;
  Heap H(Config);
  HandleScope Scope(H);

  Object *&Root = Scope.slot(H.allocate(1, 0));
  H.writeSlot(Root, 0, H.allocate(0, 64));
  for (int I = 0; I != 300; ++I)
    H.allocate(0, 128); // Garbage the cycle will reclaim.

  H.beginIncrementalScavenge(0);
  ASSERT_TRUE(H.incrementalScavengeActive());

  uint64_t Pad = Config.HeapLimitBytes - H.residentBytes() + 1;
  Object *Big = H.tryAllocate(0, static_cast<uint32_t>(Pad));
  ASSERT_NE(Big, nullptr);

  EXPECT_EQ(H.incrementalScavengeStep(), CycleStatus::Completed);
  EXPECT_EQ(eventsOf(H, DegradationKind::CycleAccelerated), 1u);
  EXPECT_EQ(eventsOf(H, DegradationKind::CycleAborted), 0u);
  EXPECT_EQ(eventsOf(H, DegradationKind::EmergencyFullCollection), 0u);
  EXPECT_EQ(H.history().size(), 1u);
  expectVerifies(H);
}

TEST(AbortTest, MidCyclePressureAbortsCycleWithDeepGrayBacklog) {
  // A tiny budget against a wide fan-out: four accelerate quanta cannot
  // drain the gray backlog, the backlog is too large for complete-now, so
  // the ladder aborts the cycle and the emergency full collection (always
  // admissible TB = 0) reclaims the garbage instead.
  HeapConfig Config = manualConfig();
  Config.ScavengeBudgetBytes = 64;
  Config.HeapLimitBytes = 64 * 1024;
  Heap H(Config);
  HandleScope Scope(H);

  Object *&Hub = Scope.slot(H.allocate(220, 0));
  for (uint32_t I = 0; I != 220; ++I)
    H.writeSlot(Hub, I, H.allocate(0, 24));
  for (int I = 0; I != 160; ++I)
    H.allocate(0, 128); // Garbage only the full collection will reach.

  H.beginIncrementalScavenge(0);
  ASSERT_EQ(H.incrementalScavengeStep(), CycleStatus::Running);

  uint64_t Pad = Config.HeapLimitBytes - H.residentBytes() + 1;
  Object *Big = H.tryAllocate(0, static_cast<uint32_t>(Pad));
  ASSERT_NE(Big, nullptr);

  EXPECT_EQ(H.incrementalScavengeStep(), CycleStatus::Aborted);
  EXPECT_EQ(eventsOf(H, DegradationKind::CycleAccelerated), 1u);
  EXPECT_EQ(eventsOf(H, DegradationKind::CycleCompletedEarly), 0u);
  EXPECT_EQ(eventsOf(H, DegradationKind::CycleAborted), 1u);
  EXPECT_EQ(eventsOf(H, DegradationKind::EmergencyFullCollection), 1u);
  const std::deque<DegradationEvent> &Log = H.degradationLog();
  bool SawPressureAbort = false;
  for (const DegradationEvent &Event : Log)
    SawPressureAbort |=
        Event.Kind == DegradationKind::CycleAborted &&
        Event.Detail.find("mid-cycle allocation pressure") !=
            std::string::npos;
  EXPECT_TRUE(SawPressureAbort);
  expectVerifies(H);
}

TEST(WatchdogTest, ViolationsBackOffBudgetWithoutChangingRecords) {
  // Both collectors run their transitive scan in the same watched quanta:
  // the mark-sweep trace and the copying evacuation.
  for (CollectorKind Kind :
       {CollectorKind::MarkSweep, CollectorKind::Copying}) {
    SCOPED_TRACE(Kind == CollectorKind::MarkSweep ? "mark-sweep" : "copying");
    // Reference: budgeted collection, no deadline.
    HeapConfig Config = manualConfig();
    Config.Collector = Kind;
    Config.ScavengeBudgetBytes = 500;
    core::ScavengeRecord Reference;
    uint64_t ReferenceQuanta = 0;
    {
      Heap R(Config);
      HandleScope Scope(R);
      buildWorkload(R, Scope);
      Reference = R.collectAtBoundary(0);
      ReferenceQuanta = R.lastCollectionStats().TraceQuanta;
      EXPECT_EQ(R.lastCollectionStats().WatchdogViolations, 0u);
    }
    ASSERT_GT(ReferenceQuanta, 1u);

    // Watchdog heap: a deadline below any quantum's machine-model cost, so
    // every quantum violates and the budget keeps halving. Slicing
    // changes; the exported record must not.
    HeapConfig Strict = Config;
    Strict.QuantumDeadlineMillis =
        core::MachineModel().pauseMillisForTracedBytes(32);
    Heap W(Strict);
    HandleScope Scope(W);
    buildWorkload(W, Scope);
    expectSameRecord(Reference, W.collectAtBoundary(0));

    const CollectionStats &Stats = W.lastCollectionStats();
    EXPECT_GT(Stats.WatchdogViolations, 0u);
    EXPECT_GT(Stats.TraceQuanta, ReferenceQuanta);
    EXPECT_EQ(eventsOf(W, DegradationKind::WatchdogDeadline),
              Stats.WatchdogViolations);
    expectVerifies(W);
  }
}

TEST(WatchdogTest, ConsecutiveViolationsDegradeToSerialTracing) {
  HeapConfig Config = manualConfig();
  Config.ScavengeBudgetBytes = 500;
  Config.QuantumDeadlineMillis =
      core::MachineModel().pauseMillisForTracedBytes(32);
  Heap H(Config);
  HandleScope Scope(H);
  buildWorkload(H, Scope);

  H.beginIncrementalScavenge(0);
  ASSERT_EQ(H.incrementalScavengeStep(), CycleStatus::Running);
  IncrementalCycleInfo AfterOne = H.incrementalCycleInfo();
  EXPECT_EQ(AfterOne.WatchdogViolations, 1u);
  EXPECT_LT(AfterOne.BudgetBytes, 500u); // Halved by the backoff.
  EXPECT_FALSE(AfterOne.SerialDegraded);

  ASSERT_EQ(H.incrementalScavengeStep(), CycleStatus::Running);
  ASSERT_EQ(H.incrementalScavengeStep(), CycleStatus::Running);
  IncrementalCycleInfo AfterThree = H.incrementalCycleInfo();
  EXPECT_EQ(AfterThree.WatchdogViolations, 3u);
  EXPECT_TRUE(AfterThree.SerialDegraded);

  EXPECT_EQ(H.finishIncrementalScavenge(), CycleStatus::Completed);
  bool SawSerial = false;
  for (const DegradationEvent &Event : H.degradationLog())
    SawSerial |= Event.Kind == DegradationKind::WatchdogDeadline &&
                 Event.Detail.find("serial") != std::string::npos;
  EXPECT_TRUE(SawSerial);
  expectVerifies(H);
}

TEST(WatchdogTest, GenerousDeadlineNeverFires) {
  HeapConfig Config = manualConfig();
  Config.ScavengeBudgetBytes = 500;
  Config.QuantumDeadlineMillis = 1e6;
  Heap H(Config);
  HandleScope Scope(H);
  buildWorkload(H, Scope);
  H.collectAtBoundary(0);
  EXPECT_EQ(H.lastCollectionStats().WatchdogViolations, 0u);
  EXPECT_EQ(H.totalDegradationEvents(), 0u);
}

TEST(WatchdogTest, AbortResetsWatchdogState) {
  HeapConfig Config = manualConfig();
  Config.ScavengeBudgetBytes = 500;
  Config.QuantumDeadlineMillis =
      core::MachineModel().pauseMillisForTracedBytes(32);
  Heap H(Config);
  HandleScope Scope(H);
  buildWorkload(H, Scope);

  H.beginIncrementalScavenge(0);
  for (int Step = 0; Step != 3; ++Step)
    ASSERT_EQ(H.incrementalScavengeStep(), CycleStatus::Running);
  ASSERT_TRUE(H.incrementalCycleInfo().SerialDegraded);
  ASSERT_EQ(H.abortIncrementalScavenge(), CycleStatus::Aborted);

  // A fresh cycle starts with a clean slate: full budget, no serial
  // degrade, zero violations.
  H.beginIncrementalScavenge(0);
  IncrementalCycleInfo Fresh = H.incrementalCycleInfo();
  EXPECT_EQ(Fresh.WatchdogViolations, 0u);
  EXPECT_FALSE(Fresh.SerialDegraded);
  EXPECT_EQ(Fresh.BudgetBytes, 500u);
  EXPECT_EQ(H.finishIncrementalScavenge(), CycleStatus::Completed);
  expectVerifies(H);
}
