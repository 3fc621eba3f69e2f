//===- tests/runtime_abort_test.cpp ---------------------------------------==//
//
// Abortable incremental cycles: an aborted cycle is observably equivalent
// to one that never started (records, stats, demographics, trace flags),
// aborting re-arms the suspended allocation trigger, Heap::collect()
// drains an open cycle first, mid-cycle allocation pressure walks the
// accelerate / complete-now / abort rungs, and the deterministic
// pause-deadline watchdog backs off the budget (and degrades to serial
// tracing) without changing a single exported record.
//
//===----------------------------------------------------------------------===//

#include "runtime/Heap.h"
#include "runtime/HeapVerifier.h"

#include "core/MachineModel.h"
#include "core/Policies.h"

#include <gtest/gtest.h>

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
    ASSERT_FALSE(H.incrementalScavengeStep());
  H.abortIncrementalScavenge();

  // The abort reclaimed nothing, appended no record, and left no flags.
  EXPECT_FALSE(H.incrementalScavengeActive());
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
  ASSERT_FALSE(H.incrementalScavengeStep());
  H.abortIncrementalScavenge();
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
  ASSERT_FALSE(H.incrementalScavengeStep());
  H.abortIncrementalScavenge();

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
  ASSERT_FALSE(H.incrementalScavengeStep());
  H.abortIncrementalScavenge();

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
  ASSERT_FALSE(H.incrementalScavengeStep());
  size_t Before = H.history().size();

  // Triggering is suspended while the cycle is open...
  for (int I = 0; I != 200; ++I)
    H.allocate(0, 64);
  EXPECT_EQ(H.history().size(), Before);

  // ...and live again as soon as the cycle is aborted.
  H.abortIncrementalScavenge();
  EXPECT_FALSE(H.incrementalScavengeActive());
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
  ASSERT_FALSE(H.incrementalScavengeStep());

  // The policy-driven entry point must retire the in-flight cycle (its
  // own record) before running the collection it was asked for.
  H.collect();
  EXPECT_FALSE(H.incrementalScavengeActive());
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

  EXPECT_FALSE(H.incrementalScavengeActive());
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
  ASSERT_FALSE(H.incrementalScavengeStep());

  uint64_t Pad = Config.HeapLimitBytes - H.residentBytes() + 1;
  Object *Big = H.tryAllocate(0, static_cast<uint32_t>(Pad));
  ASSERT_NE(Big, nullptr);

  EXPECT_FALSE(H.incrementalScavengeActive());
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
  // Reference: budgeted collection, no deadline.
  HeapConfig Config = manualConfig();
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
  // every quantum violates and the budget keeps halving. Slicing changes;
  // the exported record must not.
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

TEST(WatchdogTest, ConsecutiveViolationsDegradeToSerialTracing) {
  HeapConfig Config = manualConfig();
  Config.ScavengeBudgetBytes = 500;
  Config.QuantumDeadlineMillis =
      core::MachineModel().pauseMillisForTracedBytes(32);
  Heap H(Config);
  HandleScope Scope(H);
  buildWorkload(H, Scope);

  H.beginIncrementalScavenge(0);
  ASSERT_FALSE(H.incrementalScavengeStep());
  IncrementalCycleInfo AfterOne = H.incrementalCycleInfo();
  EXPECT_EQ(AfterOne.WatchdogViolations, 1u);
  EXPECT_LT(AfterOne.BudgetBytes, 500u); // Halved by the backoff.
  EXPECT_FALSE(AfterOne.SerialDegraded);

  ASSERT_FALSE(H.incrementalScavengeStep());
  ASSERT_FALSE(H.incrementalScavengeStep());
  IncrementalCycleInfo AfterThree = H.incrementalCycleInfo();
  EXPECT_EQ(AfterThree.WatchdogViolations, 3u);
  EXPECT_TRUE(AfterThree.SerialDegraded);

  while (!H.incrementalScavengeStep()) {
  }
  EXPECT_FALSE(H.incrementalScavengeActive());
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
    ASSERT_FALSE(H.incrementalScavengeStep());
  ASSERT_TRUE(H.incrementalCycleInfo().SerialDegraded);
  H.abortIncrementalScavenge();

  // A fresh cycle starts with a clean slate: full budget, no serial
  // degrade, zero violations.
  H.beginIncrementalScavenge(0);
  IncrementalCycleInfo Fresh = H.incrementalCycleInfo();
  EXPECT_EQ(Fresh.WatchdogViolations, 0u);
  EXPECT_FALSE(Fresh.SerialDegraded);
  EXPECT_EQ(Fresh.BudgetBytes, 500u);
  while (!H.incrementalScavengeStep()) {
  }
  expectVerifies(H);
}
