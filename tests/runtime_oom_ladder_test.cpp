//===- tests/runtime_oom_ladder_test.cpp ----------------------------------==//
//
// The degradation ladder under a hard heap limit: (1) a scavenge at the
// policy's boundary, (2) an emergency FULL collection at TB = 0 (the
// paper's always-admissible boundary), (3) a clean allocation failure.
// Every rung must be recorded as a DegradationEvent, the heap must stay
// verifiable throughout, and only allocate() — never tryAllocate — may
// abort.
//
//===----------------------------------------------------------------------===//

#include "runtime/Heap.h"
#include "runtime/HeapVerifier.h"

#include "core/Policies.h"
#include "support/FaultInjector.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace dtb;
using namespace dtb::runtime;

namespace {

std::unique_ptr<core::BoundaryPolicy> fixed1() {
  return core::createPolicy("fixed1", core::PolicyConfig());
}

bool hasEvent(const Heap &H, DegradationKind Kind) {
  const std::deque<DegradationEvent> &Log = H.degradationLog();
  return std::any_of(Log.begin(), Log.end(), [&](const DegradationEvent &E) {
    return E.Kind == Kind;
  });
}

void expectVerifies(const Heap &H) {
  VerifyResult Result = verifyHeap(H);
  EXPECT_TRUE(Result.Ok) << (Result.Problems.empty()
                                 ? ""
                                 : Result.Problems.front());
}

} // namespace

TEST(OomLadderTest, ScavengeRungRecoversFromGarbagePressure) {
  HeapConfig Config;
  Config.TriggerBytes = 0;
  Config.HeapLimitBytes = 64 * 1024;
  Heap H(Config);
  H.setPolicy(fixed1());

  // Fill most of the budget with unrooted garbage, then ask for a block
  // that no longer fits. Rung 1 (a scavenge — full on the first run)
  // reclaims it all, so the request succeeds without touching rung 2.
  for (int I = 0; I != 50; ++I)
    H.allocate(0, 1'000);
  ASSERT_GT(H.residentBytes(), Config.HeapLimitBytes / 2);

  HandleScope Scope(H);
  Object *&Big = Scope.slot(nullptr);
  Big = H.tryAllocate(0, 32 * 1024);
  ASSERT_NE(Big, nullptr);
  EXPECT_LE(H.residentBytes(), Config.HeapLimitBytes);
  EXPECT_TRUE(hasEvent(H, DegradationKind::EmergencyScavenge));
  EXPECT_FALSE(hasEvent(H, DegradationKind::EmergencyFullCollection));
  EXPECT_FALSE(hasEvent(H, DegradationKind::AllocationFailure));
  expectVerifies(H);
}

TEST(OomLadderTest, FullRungReclaimsTenuredGarbage) {
  HeapConfig Config;
  Config.TriggerBytes = 0;
  Config.HeapLimitBytes = 40 * 1024;
  Heap H(Config);
  H.setPolicy(fixed1());

  HandleScope Scope(H);
  Object *&Tenured = Scope.slot(nullptr);
  std::vector<Object **> Live;

  // A big object survives the first scavenge rooted, then loses its root:
  // tenured garbage, immune to FIXED1's boundary.
  Tenured = H.allocate(0, 20'000);
  H.collectAtBoundary(0);
  Tenured = nullptr;

  // Live young data fills the gap up to just under the limit.
  for (int I = 0; I != 14; ++I)
    Live.push_back(&Scope.slot(H.allocate(0, 1'000)));
  ASSERT_GT(H.residentBytes(), 30'000u);

  // The next request busts the limit. Rung 1 scavenges at FIXED1's
  // boundary t_1 — everything threatened is live, nothing is reclaimed —
  // so rung 2's emergency FULL collection must reclaim the tenured
  // garbage behind the boundary.
  Object *Block = H.tryAllocate(0, 8'000);
  ASSERT_NE(Block, nullptr);
  EXPECT_LE(H.residentBytes(), Config.HeapLimitBytes);
  EXPECT_TRUE(hasEvent(H, DegradationKind::EmergencyScavenge));
  EXPECT_TRUE(hasEvent(H, DegradationKind::EmergencyFullCollection));
  EXPECT_FALSE(hasEvent(H, DegradationKind::AllocationFailure));
  for (Object **O : Live)
    EXPECT_TRUE((*O)->isAlive());
  expectVerifies(H);
}

TEST(OomLadderTest, ExhaustedLadderFailsCleanly) {
  HeapConfig Config;
  Config.TriggerBytes = 0;
  Config.HeapLimitBytes = 32 * 1024;
  Heap H(Config);
  H.setPolicy(fixed1());

  // Everything is rooted: no rung can reclaim a byte.
  HandleScope Scope(H);
  for (int I = 0; I != 20; ++I)
    Scope.slot(H.allocate(0, 1'000));
  uint64_t Resident = H.residentBytes();

  Object *Block = H.tryAllocate(0, 16 * 1024);
  EXPECT_EQ(Block, nullptr);
  EXPECT_EQ(H.residentBytes(), Resident);
  EXPECT_TRUE(hasEvent(H, DegradationKind::EmergencyScavenge));
  EXPECT_TRUE(hasEvent(H, DegradationKind::EmergencyFullCollection));
  EXPECT_TRUE(hasEvent(H, DegradationKind::AllocationFailure));
  expectVerifies(H);

  // The heap remains fully usable: small requests still fit, and freeing
  // roots makes the original request satisfiable again.
  EXPECT_NE(H.tryAllocate(0, 100), nullptr);
}

TEST(OomLadderDeathTest, AllocateAbortsOnlyAfterTheWholeLadder) {
  HeapConfig Config;
  Config.TriggerBytes = 0;
  Config.HeapLimitBytes = 16 * 1024;
  Heap H(Config);
  H.setPolicy(fixed1());
  HandleScope Scope(H);
  for (int I = 0; I != 10; ++I)
    Scope.slot(H.allocate(0, 1'000));
  EXPECT_DEATH(H.allocate(0, 8 * 1024),
               "heap limit cannot be satisfied even after an emergency");
}

TEST(OomLadderTest, InjectedAllocationFaultWalksTheLadderAndRecovers) {
  HeapConfig Config;
  Config.TriggerBytes = 0;
  Heap H(Config); // No heap limit: the fault alone drives the ladder.
  H.setPolicy(fixed1());

  FaultInjector Injector(11);
  Injector.armOneShot(FaultSite::Allocation, 1);
  FaultInjectionScope FaultScope(Injector);

  HandleScope Scope(H);
  Object *&O = Scope.slot(nullptr);
  O = H.tryAllocate(1, 64);
  // With no real pressure the ladder always recovers; the denial is still
  // visible in the log and in the extra collection it forced.
  ASSERT_NE(O, nullptr);
  EXPECT_EQ(Injector.injections(FaultSite::Allocation), 1u);
  EXPECT_TRUE(hasEvent(H, DegradationKind::EmergencyScavenge));
  EXPECT_GE(H.history().size(), 1u);
  expectVerifies(H);
}

TEST(OomLadderTest, RemSetOverflowPessimizesThenFullCollectionRebuilds) {
  HeapConfig Config;
  Config.TriggerBytes = 0;
  Config.RemSetMaxEntries = 4;
  Heap H(Config);

  HandleScope Scope(H);
  std::vector<Object **> Sources, Targets;
  // Six forward-in-time pointers: source born before target, pointer
  // stored through the barrier. The fifth insert overflows the bound.
  for (int I = 0; I != 6; ++I) {
    Object **Source = &Scope.slot(H.allocate(1));
    Object **Target = &Scope.slot(H.allocate(0, 16));
    H.writeSlot(*Source, 0, *Target);
    Sources.push_back(Source);
    Targets.push_back(Target);
  }
  EXPECT_TRUE(H.remSetPessimized());
  EXPECT_TRUE(hasEvent(H, DegradationKind::RemSetOverflow));
  // The overflow dropped the set; only the post-overflow store remains.
  EXPECT_EQ(H.rememberedSet().size(), 1u);
  // Completeness is knowingly suspended; the verifier must still pass.
  expectVerifies(H);

  // Drop four pairs so the true forward-pointer population fits the
  // bound, then request a partial collection: it must be forced to a
  // full one, after which the set is rebuilt exactly.
  for (int I = 0; I != 4; ++I) {
    *Sources[I] = nullptr;
    *Targets[I] = nullptr;
  }
  core::ScavengeRecord Record = H.collectAtBoundary(H.now());
  EXPECT_EQ(Record.Boundary, 0u);
  EXPECT_TRUE(hasEvent(H, DegradationKind::BoundaryPessimized));
  EXPECT_FALSE(H.remSetPessimized());
  EXPECT_EQ(H.rememberedSet().size(), 2u);
  EXPECT_TRUE(H.rememberedSet().contains(*Sources[4], 0));
  EXPECT_TRUE(H.rememberedSet().contains(*Sources[5], 0));
  expectVerifies(H);
}

TEST(OomLadderTest, RebuiltRemSetOverBoundStaysPessimized) {
  HeapConfig Config;
  Config.TriggerBytes = 0;
  Config.RemSetMaxEntries = 2;
  Heap H(Config);

  HandleScope Scope(H);
  std::vector<Object **> Sources;
  for (int I = 0; I != 4; ++I) {
    Object **Source = &Scope.slot(H.allocate(1));
    Object *Target = H.allocate(0, 16);
    Scope.slot(Target);
    H.writeSlot(*Source, 0, Target);
    Sources.push_back(Source);
  }
  EXPECT_TRUE(H.remSetPessimized());

  // All four crossing pointers are live: the rebuild exceeds the bound
  // again, so the heap stays pessimized (permanently degraded to full
  // collections — sound, just slow).
  H.collectAtBoundary(H.now());
  EXPECT_TRUE(H.remSetPessimized());
  expectVerifies(H);
  // And the next collection is again forced full.
  core::ScavengeRecord Record = H.collectAtBoundary(H.now());
  EXPECT_EQ(Record.Boundary, 0u);
}

TEST(OomLadderTest, PolicyEvaluationFaultFallsBackToFixed1) {
  HeapConfig Config;
  Config.TriggerBytes = 0;
  Heap H(Config);
  H.setPolicy(core::createPolicy("full", core::PolicyConfig()));

  HandleScope Scope(H);
  Scope.slot(H.allocate(0, 512));
  H.collect(); // Scavenge 1, boundary 0, establishes t_1.
  core::AllocClock T1 = H.history().last().Time;
  Scope.slot(H.allocate(0, 512));

  FaultInjector Injector(5);
  Injector.armOneShot(FaultSite::PolicyEvaluation, 1);
  FaultInjectionScope FaultScope(Injector);

  // FULL would choose 0; the injected fault forces the FIXED1 fallback.
  core::ScavengeRecord Record = H.collect();
  EXPECT_EQ(Record.Boundary, T1);
  EXPECT_TRUE(hasEvent(H, DegradationKind::PolicyFallback));
  expectVerifies(H);
}

TEST(OomLadderTest, DegradationLogIsBoundedButTotalIsNot) {
  HeapConfig Config;
  Config.TriggerBytes = 0;
  Heap H(Config);
  H.setPolicy(fixed1());

  FaultInjector Injector(3);
  Injector.setProbability(FaultSite::Allocation, 1.0);
  FaultInjectionScope FaultScope(Injector);

  // Every allocation is denied once and recovered by the ladder's first
  // rung: one emergency scavenge, stamped with the clock before the
  // allocation, so event I carries time I * Gross. 1,100 of them overflow
  // the log's bound of 1,024.
  constexpr uint64_t Allocations = 1'100;
  constexpr uint64_t LogLimit = 1'024;
  const uint64_t Gross = Object::grossBytesFor(0, 64);
  HandleScope Scope(H);
  for (uint64_t I = 0; I != Allocations; ++I)
    ASSERT_NE(H.tryAllocate(0, 64), nullptr);

  // The counts stay exact; only the newest events are retained, in order.
  EXPECT_EQ(H.totalDegradationEvents(), Allocations);
  EXPECT_EQ(H.degradationEventsOfKind(DegradationKind::EmergencyScavenge),
            Allocations);
  const std::deque<DegradationEvent> &Log = H.degradationLog();
  ASSERT_EQ(Log.size(), LogLimit);
  for (uint64_t I = 0; I != LogLimit; ++I) {
    EXPECT_EQ(Log[I].Kind, DegradationKind::EmergencyScavenge);
    EXPECT_EQ(Log[I].Time, (Allocations - LogLimit + I) * Gross) << I;
    EXPECT_FALSE(describeDegradation(Log[I]).empty());
  }

  H.clearDegradationLog();
  EXPECT_EQ(H.degradationLog().size(), 0u);
  EXPECT_EQ(H.totalDegradationEvents(), 0u);
  EXPECT_EQ(H.degradationEventsOfKind(DegradationKind::EmergencyScavenge),
            0u);
}
