//===- tests/runtime_chaos_test.cpp ---------------------------------------==//
//
// Chaos property test: every runtime feature at once. A random mutator
// allocates, links, unlinks, pins, unpins, creates and drops weak
// references, and collects at random boundaries, alternating strategy
// configurations across instantiations. After every collection the full
// verifier battery must pass and weak references must never dangle.
// A fault-schedule golden then pins what a seeded fault mix does to the
// heap, exactly.
//
//===----------------------------------------------------------------------===//

#include "runtime/Heap.h"
#include "runtime/HeapDump.h"
#include "runtime/HeapVerifier.h"
#include "runtime/Mutator.h"
#include "runtime/WeakRef.h"

#include "core/Policies.h"
#include "support/FaultInjector.h"
#include "support/Random.h"

#include "TestSeeds.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

using namespace dtb;
using namespace dtb::runtime;

namespace {

struct ChaosParam {
  uint64_t Seed;
  CollectorKind Kind;
};

const char *collectorName(CollectorKind Kind) {
  return Kind == CollectorKind::MarkSweep ? "MarkSweep" : "Copying";
}

// Names the parameter in test listings; without it gtest prints the
// struct's raw bytes, padding included.
void PrintTo(const ChaosParam &Param, std::ostream *Out) {
  *Out << collectorName(Param.Kind) << " seed " << Param.Seed;
}

class ChaosTest : public testing::TestWithParam<ChaosParam> {};

} // namespace

TEST_P(ChaosTest, EverythingAtOnceStaysSound) {
  HeapConfig Config;
  Config.TriggerBytes = 0;
  Config.QuarantineFreedObjects = true;
  Config.Collector = GetParam().Kind;
  Heap H(Config);

  HandleScope Scope(H);
  std::vector<Object **> Roots;
  std::vector<Object *> PinnedObjects;
  std::vector<std::unique_ptr<WeakRef>> Weaks;
  uint64_t Seed = test::effectiveSeed(GetParam().Seed);
  DTB_SCOPED_SEED_TRACE(Seed);
  Rng R(Seed);

  for (int Step = 0; Step != 1'500; ++Step) {
    double Action = R.nextDouble();
    if (Action < 0.45 || Roots.empty()) {
      // Allocate, maybe root, maybe weak-reference.
      Object *O = H.allocate(static_cast<uint32_t>(R.nextBelow(4)),
                             static_cast<uint32_t>(R.nextBelow(80)));
      if (R.nextBool(0.5))
        Roots.push_back(&Scope.slot(O));
      if (R.nextBool(0.15))
        Weaks.push_back(std::make_unique<WeakRef>(H, O));
    } else if (Action < 0.60) {
      // Link two rooted objects.
      Object *A = *Roots[R.nextBelow(Roots.size())];
      Object *B = *Roots[R.nextBelow(Roots.size())];
      if (A && B && A->numSlots() > 0)
        H.writeSlot(A, static_cast<uint32_t>(R.nextBelow(A->numSlots())),
                    B);
    } else if (Action < 0.70) {
      // Drop a root.
      size_t Index = R.nextBelow(Roots.size());
      *Roots[Index] = nullptr;
      Roots[Index] = Roots.back();
      Roots.pop_back();
    } else if (Action < 0.78) {
      // Pin something currently rooted (pinning keeps it regardless).
      Object *O = *Roots[R.nextBelow(Roots.size())];
      if (O && !H.isPinned(O)) {
        H.pinObject(O);
        PinnedObjects.push_back(O);
      }
    } else if (Action < 0.84 && !PinnedObjects.empty()) {
      // Unpin a random pinned object.
      size_t Index = R.nextBelow(PinnedObjects.size());
      H.unpinObject(PinnedObjects[Index]);
      PinnedObjects[Index] = PinnedObjects.back();
      PinnedObjects.pop_back();
    } else if (Action < 0.9 && !Weaks.empty()) {
      // Drop a weak reference.
      size_t Index = R.nextBelow(Weaks.size());
      Weaks[Index] = std::move(Weaks.back());
      Weaks.pop_back();
    } else {
      // Collect at a random boundary.
      H.collectAtBoundary(R.nextBelow(H.now() + 1));

      // NOTE: under the copying collector raw pointers are invalidated by
      // collection; refresh the pinned list (pinned objects never move,
      // so these stay valid — this is exactly why pinning exists) and
      // audit the weak references.
      for (Object *Pinned : PinnedObjects)
        ASSERT_TRUE(Pinned->isAlive());
      for (const auto &Weak : Weaks) {
        if (Weak->get()) {
          ASSERT_TRUE(Weak->get()->isAlive());
        }
      }

      VerifyResult Result = verifyHeap(H);
      ASSERT_TRUE(Result.Ok) << Result.Problems.front();
    }
  }

  // Final full collection: exactly the reachable bytes remain.
  H.collectAtBoundary(0);
  EXPECT_EQ(H.residentBytes(), reachableBytes(H));
  VerifyResult Result = verifyHeap(H);
  EXPECT_TRUE(Result.Ok) << (Result.Problems.empty()
                                 ? ""
                                 : Result.Problems.front());

  // The demographics dump is coherent on whatever survived.
  HeapDemographics Demo = collectDemographics(H);
  EXPECT_EQ(Demo.ResidentBytes, H.residentBytes());
}

INSTANTIATE_TEST_SUITE_P(
    Mixes, ChaosTest,
    testing::Values(ChaosParam{101, CollectorKind::MarkSweep},
                    ChaosParam{102, CollectorKind::MarkSweep},
                    ChaosParam{103, CollectorKind::MarkSweep},
                    ChaosParam{201, CollectorKind::Copying},
                    ChaosParam{202, CollectorKind::Copying},
                    ChaosParam{203, CollectorKind::Copying}),
    [](const testing::TestParamInfo<ChaosParam> &Info) {
      return collectorName(Info.param.Kind) + std::to_string(Info.param.Seed);
    });

namespace {

class FaultChaosTest : public testing::TestWithParam<ChaosParam> {};

} // namespace

// The same random mutator under memory pressure AND fault injection: a
// hard heap limit, a tiny remembered-set bound, automatic triggering,
// and probabilistic faults at every site. Nothing may abort: allocation
// either succeeds or returns null through the degradation ladder, and
// the full verifier battery passes after every explicit collection.
TEST_P(FaultChaosTest, DegradesGracefullyNeverAborts) {
  HeapConfig Config;
  Config.TriggerBytes = 16 * 1024;
  Config.QuarantineFreedObjects = true;
  Config.Collector = GetParam().Kind;
  Config.HeapLimitBytes = 256 * 1024;
  Config.RemSetMaxEntries = 64;
  Heap H(Config);
  core::PolicyConfig PolicyConfig;
  PolicyConfig.MemMaxBytes = 192 * 1024;
  H.setPolicy(core::createPolicy("dtbmem", PolicyConfig));

  uint64_t Seed = test::effectiveSeed(GetParam().Seed);
  DTB_SCOPED_SEED_TRACE(Seed);
  FaultInjector Injector(Seed * 977 + 1);
  Injector.setProbability(FaultSite::Allocation, 0.01);
  Injector.setProbability(FaultSite::WriteBarrier, 0.02);
  Injector.setProbability(FaultSite::RemSetInsert, 0.02);
  Injector.setProbability(FaultSite::PolicyEvaluation, 0.05);
  FaultInjectionScope FaultScope(Injector);

  HandleScope Scope(H);
  std::vector<Object **> Roots;
  std::vector<Object *> PinnedObjects;
  std::vector<std::unique_ptr<WeakRef>> Weaks;
  Rng R(Seed);

  for (int Step = 0; Step != 1'200; ++Step) {
    double Action = R.nextDouble();
    if (Action < 0.45 || Roots.empty()) {
      // Allocation may be denied (injected fault or real pressure once
      // the rooted set approaches the limit); both are fine.
      Object *O = H.tryAllocate(static_cast<uint32_t>(R.nextBelow(4)),
                                static_cast<uint32_t>(R.nextBelow(512)));
      if (!O)
        continue;
      if (R.nextBool(0.4))
        Roots.push_back(&Scope.slot(O));
      if (R.nextBool(0.1))
        Weaks.push_back(std::make_unique<WeakRef>(H, O));
    } else if (Action < 0.60) {
      Object *A = *Roots[R.nextBelow(Roots.size())];
      Object *B = *Roots[R.nextBelow(Roots.size())];
      if (A && B && A->numSlots() > 0)
        H.writeSlot(A, static_cast<uint32_t>(R.nextBelow(A->numSlots())),
                    B);
    } else if (Action < 0.72) {
      size_t Index = R.nextBelow(Roots.size());
      *Roots[Index] = nullptr;
      Roots[Index] = Roots.back();
      Roots.pop_back();
    } else if (Action < 0.78) {
      Object *O = *Roots[R.nextBelow(Roots.size())];
      if (O && !H.isPinned(O)) {
        H.pinObject(O);
        PinnedObjects.push_back(O);
      }
    } else if (Action < 0.84 && !PinnedObjects.empty()) {
      size_t Index = R.nextBelow(PinnedObjects.size());
      H.unpinObject(PinnedObjects[Index]);
      PinnedObjects[Index] = PinnedObjects.back();
      PinnedObjects.pop_back();
    } else if (Action < 0.9 && !Weaks.empty()) {
      size_t Index = R.nextBelow(Weaks.size());
      Weaks[Index] = std::move(Weaks.back());
      Weaks.pop_back();
    } else {
      // A policy-driven collection (the PolicyEvaluation site may force
      // the FIXED1 fallback; a pessimized remembered set forces a full
      // trace) followed by the verifier battery.
      H.collect();
      for (Object *Pinned : PinnedObjects)
        ASSERT_TRUE(Pinned->isAlive());
      for (const auto &Weak : Weaks) {
        if (Weak->get()) {
          ASSERT_TRUE(Weak->get()->isAlive());
        }
      }
      VerifyResult Result = verifyHeap(H);
      ASSERT_TRUE(Result.Ok) << Result.Problems.front();
    }
  }

  // The run must actually have exercised the machinery it claims to.
  EXPECT_GT(Injector.totalInjections(), 0u);
  EXPECT_GT(H.totalDegradationEvents(), 0u);
  EXPECT_LE(H.residentBytes(), Config.HeapLimitBytes);

  // Final full collection restores exact accounting and, if the set was
  // pessimized at the time, rebuilds it — completeness holds again.
  H.collectAtBoundary(0);
  EXPECT_EQ(H.residentBytes(), reachableBytes(H));
  VerifyResult Result = verifyHeap(H);
  EXPECT_TRUE(Result.Ok) << (Result.Problems.empty()
                                 ? ""
                                 : Result.Problems.front());
  HeapDemographics Demo = collectDemographics(H);
  EXPECT_EQ(Demo.ResidentBytes, H.residentBytes());
  EXPECT_EQ(Demo.DegradationEventsTotal, H.totalDegradationEvents());
}

INSTANTIATE_TEST_SUITE_P(
    Mixes, FaultChaosTest,
    testing::Values(ChaosParam{301, CollectorKind::MarkSweep},
                    ChaosParam{302, CollectorKind::MarkSweep},
                    ChaosParam{401, CollectorKind::Copying},
                    ChaosParam{402, CollectorKind::Copying}),
    [](const testing::TestParamInfo<ChaosParam> &Info) {
      return collectorName(Info.param.Kind) + std::to_string(Info.param.Seed);
    });

//===----------------------------------------------------------------------===//
// Fault-schedule golden
//===----------------------------------------------------------------------===//
//
// The chaos tests above check invariants, and the fault matrix derives its
// hit indices from a reference run, so neither notices a fault path that
// starts doing something else soundly. This golden does: one seeded fault
// mix at six sites, driven through the direct API and through two mutator
// contexts round-robin from one thread, must reproduce on both collectors
// the exact per-site consult and injection counts, per-kind degradation
// totals, scavenge history and degradation log recorded when it was
// written. The seeds are fixed (DTB_TEST_SEED does not apply): the values
// are the oracle, not the sampling. The heap limit is tight enough that
// every allocation rung is taken in every run, and each of the emergency
// scavenge, the emergency full collection and the allocation failure is
// sometimes the last.

namespace {

struct ScheduleParam {
  /// 0 drives the direct Heap API; N > 0 drives N contexts round-robin.
  unsigned Contexts;
  uint64_t Seed;
  /// The outcome recorded when the golden was written (see describe()).
  const char *Golden;
};

void PrintTo(const ScheduleParam &Param, std::ostream *Out) {
  *Out << (Param.Contexts == 0 ? "the direct API"
                               : std::to_string(Param.Contexts) + " contexts")
       << ", seed " << Param.Seed;
}

constexpr std::array<FaultSite, 6> ScheduleSites = {
    FaultSite::Allocation,       FaultSite::WriteBarrier,
    FaultSite::RemSetInsert,     FaultSite::PolicyEvaluation,
    FaultSite::BarrierSink,      FaultSite::SafepointHandshake};

/// FNV-1a, fed little-endian words and NUL-terminated strings.
struct Digest {
  uint64_t Value = 0xcbf29ce484222325ull;
  void addByte(unsigned char Byte) {
    Value ^= Byte;
    Value *= 0x100000001b3ull;
  }
  void add(uint64_t Word) {
    for (int I = 0; I != 8; ++I)
      addByte(static_cast<unsigned char>(Word >> (8 * I)));
  }
  void add(const std::string &Text) {
    for (char C : Text)
      addByte(static_cast<unsigned char>(C));
    addByte(0);
  }
};

/// Everything the golden pins, in one line: per-site hits/injections,
/// nonzero per-kind degradation totals, the history size, and digests of
/// every ScavengeRecord and of the degradation log.
std::string describe(const FaultInjector &Injector, const Heap &H) {
  std::string Out;
  for (FaultSite Site : ScheduleSites)
    Out += std::string(faultSiteName(Site)) + "=" +
           std::to_string(Injector.hits(Site)) + "/" +
           std::to_string(Injector.injections(Site)) + " ";
  for (unsigned I = 0; I != NumDegradationKinds; ++I) {
    auto Kind = static_cast<DegradationKind>(I);
    if (uint64_t N = H.degradationEventsOfKind(Kind))
      Out += std::string(degradationKindName(Kind)) + "=" +
             std::to_string(N) + " ";
  }
  Digest Records;
  for (const core::ScavengeRecord &Record : H.history().records()) {
    Records.add(Record.Index);
    Records.add(Record.Time);
    Records.add(Record.Boundary);
    Records.add(Record.TracedBytes);
    Records.add(Record.MemBeforeBytes);
    Records.add(Record.SurvivedBytes);
    Records.add(Record.ReclaimedBytes);
  }
  Digest Events;
  for (const DegradationEvent &Event : H.degradationLog())
    Events.add(describeDegradation(Event));
  char Tail[96];
  std::snprintf(Tail, sizeof(Tail),
                "history=%llu records=%016llx events=%016llx",
                static_cast<unsigned long long>(H.history().size()),
                static_cast<unsigned long long>(Records.Value),
                static_cast<unsigned long long>(Events.Value));
  return Out + Tail;
}

/// Runs the seeded mutator of \p Param under the six-site fault mix on a
/// \p Kind heap and describes the outcome.
std::string runSchedule(CollectorKind Kind, const ScheduleParam &Param) {
  HeapConfig Config;
  Config.TriggerBytes = 8 * 1024;
  Config.Collector = Kind;
  Config.HeapLimitBytes = 40 * 1024;
  Config.RemSetMaxEntries = 48;
  Heap H(Config);
  H.setPolicy(core::createPolicy("feedmed", core::PolicyConfig()));

  FaultInjector Injector(Param.Seed);
  Injector.setProbability(FaultSite::Allocation, 0.02);
  Injector.setProbability(FaultSite::WriteBarrier, 0.02);
  Injector.setProbability(FaultSite::RemSetInsert, 0.01);
  Injector.setProbability(FaultSite::PolicyEvaluation, 0.05);
  Injector.setProbability(FaultSite::BarrierSink, 0.05);
  Injector.setProbability(FaultSite::SafepointHandshake, 0.03);
  FaultInjectionScope FaultScope(Injector);

  // Root slots: handle slots on the direct path; on the context path slot
  // I belongs to context I mod N.
  constexpr size_t NumRoots = 48;
  HandleScope Scope(H);
  std::vector<std::unique_ptr<MutatorContext>> Contexts;
  for (unsigned I = 0; I != Param.Contexts; ++I)
    Contexts.push_back(std::make_unique<MutatorContext>(H));
  std::vector<Object **> Roots;
  for (size_t I = 0; I != NumRoots; ++I) {
    if (Contexts.empty()) {
      Roots.push_back(&Scope.slot(nullptr));
      continue;
    }
    MutatorContext &Ctx = *Contexts[I % Contexts.size()];
    Roots.push_back(&Ctx.root(Ctx.addRoot()));
  }

  Rng R(Param.Seed);
  for (int Step = 0; Step != 3'000; ++Step) {
    MutatorContext *Ctx =
        Contexts.empty() ? nullptr : Contexts[Step % Contexts.size()].get();
    Object *&Slot = *Roots[R.nextBelow(NumRoots)];
    double Action = R.nextDouble();
    if (Action < 0.55) {
      // Now and then an object big enough to push the rooted set past the
      // heap limit.
      auto NumSlots = static_cast<uint32_t>(R.nextBelow(4));
      auto RawBytes = static_cast<uint32_t>(
          R.nextBool(0.04) ? 12'000 : R.nextBelow(400));
      Object *O = Ctx ? Ctx->tryAllocate(NumSlots, RawBytes)
                      : H.tryAllocate(NumSlots, RawBytes);
      if (O && R.nextBool(0.5))
        Slot = O;
    } else if (Action < 0.80) {
      Object *Value = *Roots[R.nextBelow(NumRoots)];
      if (Slot && Slot->numSlots() != 0) {
        auto Index = static_cast<uint32_t>(R.nextBelow(Slot->numSlots()));
        if (Ctx)
          Ctx->writeSlot(Slot, Index, Value);
        else
          H.writeSlot(Slot, Index, Value);
      }
    } else if (Action < 0.95) {
      Slot = nullptr;
    } else {
      H.collect();
    }
  }

  H.runAtSafepoint([](Heap &Stopped) {
    VerifyResult Result = verifyHeap(Stopped);
    EXPECT_TRUE(Result.Ok) << (Result.Problems.empty()
                                   ? ""
                                   : Result.Problems.front());
  });
  // Each rung is sometimes the last one taken.
  uint64_t Scavenges =
      H.degradationEventsOfKind(DegradationKind::EmergencyScavenge);
  uint64_t FullCollections =
      H.degradationEventsOfKind(DegradationKind::EmergencyFullCollection);
  uint64_t Failures =
      H.degradationEventsOfKind(DegradationKind::AllocationFailure);
  EXPECT_GT(Scavenges, FullCollections);
  EXPECT_GT(FullCollections, Failures);
  EXPECT_GT(Failures, 0u);
  return describe(Injector, H);
}

class FaultScheduleTest : public testing::TestWithParam<ScheduleParam> {};

} // namespace

TEST_P(FaultScheduleTest, BothCollectorsReplayTheRecordedSchedule) {
  for (CollectorKind Kind :
       {CollectorKind::MarkSweep, CollectorKind::Copying}) {
    SCOPED_TRACE(collectorName(Kind));
    EXPECT_EQ(runSchedule(Kind, GetParam()), GetParam().Golden);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Goldens, FaultScheduleTest,
    testing::Values(
        ScheduleParam{
            0, 7,
            "allocation=1692/34 write-barrier=113/1 remset-insert=115/2 "
            "policy-evaluation=253/15 barrier-sink=0/0 "
            "safepoint-handshake=0/0 emergency-scavenge=70 "
            "emergency-full-collection=28 allocation-failure=25 "
            "remset-overflow=2 boundary-pessimized=1 policy-fallback=15 "
            "history=281 records=1e7f407f53ee4f24 events=303330ec2cffc1bc"},
        ScheduleParam{
            2, 7,
            "allocation=1692/36 write-barrier=0/0 remset-insert=0/0 "
            "policy-evaluation=249/18 barrier-sink=95/2 "
            "safepoint-handshake=501/23 emergency-scavenge=69 "
            "emergency-full-collection=28 allocation-failure=25 "
            "remset-overflow=2 boundary-pessimized=30 policy-fallback=18 "
            "history=277 records=ee38320b19c02a6f events=827a7c24ea58558a"},
        ScheduleParam{
            0, 9,
            "allocation=1678/32 write-barrier=131/0 remset-insert=131/0 "
            "policy-evaluation=251/20 barrier-sink=0/0 "
            "safepoint-handshake=0/0 emergency-scavenge=69 "
            "emergency-full-collection=28 allocation-failure=21 "
            "policy-fallback=20 history=279 records=82fd45cd9682c37b "
            "events=c7e657db368f90aa"},
        ScheduleParam{
            2, 9,
            "allocation=1678/33 write-barrier=0/0 remset-insert=0/0 "
            "policy-evaluation=238/14 barrier-sink=107/8 "
            "safepoint-handshake=479/15 emergency-scavenge=56 "
            "emergency-full-collection=22 allocation-failure=21 "
            "remset-overflow=8 boundary-pessimized=21 policy-fallback=14 "
            "history=260 records=1afd64527620faad events=37dc6da8f77612fc"},
        ScheduleParam{
            0, 10,
            "allocation=1621/42 write-barrier=119/0 remset-insert=122/3 "
            "policy-evaluation=275/14 barrier-sink=0/0 "
            "safepoint-handshake=0/0 emergency-scavenge=78 "
            "emergency-full-collection=26 allocation-failure=22 "
            "remset-overflow=3 boundary-pessimized=2 policy-fallback=14 "
            "history=301 records=06ff3abbaf8ec3d6 events=74d24107e8ab1dbf"},
        ScheduleParam{
            2, 10,
            "allocation=1621/44 write-barrier=0/0 remset-insert=0/0 "
            "policy-evaluation=273/12 barrier-sink=98/5 "
            "safepoint-handshake=549/14 emergency-scavenge=76 "
            "emergency-full-collection=25 allocation-failure=22 "
            "remset-overflow=5 boundary-pessimized=19 policy-fallback=12 "
            "history=298 records=ae3ec0d5a5f8b3b7 events=bb412f52f80ef3fe"}),
    [](const testing::TestParamInfo<ScheduleParam> &Info) {
      return std::string(Info.param.Contexts == 0 ? "Direct" : "Contexts") +
             std::to_string(Info.param.Seed);
    });
