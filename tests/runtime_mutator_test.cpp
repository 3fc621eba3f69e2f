//===- tests/runtime_mutator_test.cpp -------------------------------------==//
//
// The mutator-context runtime's deterministic invariants: TLAB
// carve/refill/retire accounting (no byte lost, no byte double-carved),
// the safepoint count-in/count-out protocol against a real mutator
// thread, one collection per trigger crossing under racing contexts (on
// both collectors, and within a heap limit through the pressure ladder),
// phase-transition barrier routing, and the determinism contract (one
// context driven single-threaded reproduces the direct heap API exactly).
//
//===----------------------------------------------------------------------===//

#include "runtime/Heap.h"
#include "runtime/HeapVerifier.h"
#include "runtime/Mutator.h"

#include "core/Policies.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <optional>
#include <thread>
#include <vector>

using namespace dtb;
using namespace dtb::runtime;

namespace {

HeapConfig manualConfig() {
  HeapConfig Config;
  Config.TriggerBytes = 0; // Collections driven explicitly.
  return Config;
}

void expectVerified(const Heap &H, const char *Where) {
  VerifyResult Verified = verifyHeap(H);
  EXPECT_TRUE(Verified.Ok)
      << Where << ": "
      << (Verified.Problems.empty() ? "" : Verified.Problems.front());
}

} // namespace

//===----------------------------------------------------------------------===//
// TLAB invariants
//===----------------------------------------------------------------------===//

TEST(TlabTest, CarveRefillRetireInvariants) {
  Heap H(manualConfig());
  {
    MutatorContext Ctx(H);
    constexpr size_t N = 4'000;
    for (size_t I = 0; I != N; ++I)
      Ctx.allocateRooted(1, static_cast<uint32_t>((I * 7) % 120));
    EXPECT_GT(Ctx.pendingAllocations(), 0u);

    // Publication happens at safepoints: afterwards every allocation is
    // resident and nothing is pending.
    H.runAtSafepoint([](Heap &) {});
    EXPECT_EQ(Ctx.pendingAllocations(), 0u);
    EXPECT_EQ(H.residentObjects(), N);

    MutatorRuntimeStats Stats = H.mutatorStats();
    EXPECT_GT(Stats.TlabRefills, 1u) << "N allocations must span blocks";
    EXPECT_EQ(Stats.TlabRefills, Ctx.stats().TlabRefills);
    EXPECT_EQ(Stats.TlabBlocksFreed, 0u);
    EXPECT_EQ(Stats.TlabBlocksResident, Stats.TlabRefills);
    EXPECT_EQ(Ctx.stats().Allocations, N);
    EXPECT_EQ(Ctx.stats().HumongousAllocations, 0u);

    // Blocks are disjoint and sorted; with nothing freed yet the carved
    // bytes (one block per refill) are exactly the sum of the resident
    // ranges — no byte lost, no byte double-carved.
    std::vector<std::pair<const void *, const void *>> Ranges =
        H.tlabBlockRanges();
    ASSERT_EQ(Ranges.size(), Stats.TlabBlocksResident);
    uint64_t RangeBytes = 0;
    for (size_t I = 0; I != Ranges.size(); ++I) {
      ASSERT_LT(Ranges[I].first, Ranges[I].second);
      RangeBytes += static_cast<uint64_t>(
          static_cast<const char *>(Ranges[I].second) -
          static_cast<const char *>(Ranges[I].first));
      if (I != 0) {
        ASSERT_LE(Ranges[I - 1].second, Ranges[I].first)
            << "TLAB blocks overlap";
      }
    }
    EXPECT_EQ(Stats.TlabCarvedBytes, Stats.TlabRefills * Heap::BlockBytes);
    EXPECT_EQ(RangeBytes, Stats.TlabCarvedBytes);
    EXPECT_LE(Stats.TlabWastedBytes, Stats.TlabCarvedBytes);

    // Every object footprint lies inside exactly one block, and no two
    // footprints overlap.
    std::vector<std::pair<const char *, const char *>> Footprints;
    for (const Object *O : H.objects()) {
      EXPECT_EQ(O->storageKind(), Object::StorageTlab);
      const char *Begin = reinterpret_cast<const char *>(O);
      const char *End = Begin + O->grossBytes();
      size_t Containing = 0;
      for (const auto &[Lo, Hi] : Ranges)
        if (Begin >= static_cast<const char *>(Lo) &&
            End <= static_cast<const char *>(Hi))
          ++Containing;
      EXPECT_EQ(Containing, 1u) << "object outside every TLAB block";
      Footprints.emplace_back(Begin, End);
    }
    std::sort(Footprints.begin(), Footprints.end());
    for (size_t I = 1; I != Footprints.size(); ++I)
      ASSERT_LE(Footprints[I - 1].second, Footprints[I].first)
          << "two objects share TLAB bytes";
    expectVerified(H, "after publication");

    // Dropping every root and collecting kills every TLAB object and
    // frees every retired block; only the context's current (unretired)
    // block may remain resident.
    Ctx.truncateRoots(0);
    H.collectAtBoundary(0);
    EXPECT_EQ(H.residentObjects(), 0u);
    MutatorRuntimeStats After = H.mutatorStats();
    EXPECT_GE(After.TlabBlocksFreed + 1, After.TlabRefills);
    EXPECT_LE(H.tlabBlockRanges().size(), 1u);
    expectVerified(H, "after full collection");
  }
  // Context destruction retires the current block; empty, it is freed.
  EXPECT_EQ(H.tlabBlockRanges().size(), 0u);
  EXPECT_EQ(H.mutatorStats().TlabBlocksFreed, H.mutatorStats().TlabRefills);
}

TEST(TlabTest, HumongousAllocationsBypassTheTlab) {
  Heap H(manualConfig());
  MutatorContext Ctx(H);

  size_t BigIdx = Ctx.allocateRooted(0, 16 * 1024);
  EXPECT_EQ(Ctx.stats().HumongousAllocations, 1u);
  EXPECT_EQ(Ctx.root(BigIdx)->storageKind(), Object::StorageOwn);

  size_t SmallIdx = Ctx.allocateRooted(0, 16);
  EXPECT_EQ(Ctx.root(SmallIdx)->storageKind(), Object::StorageTlab);
  EXPECT_EQ(Ctx.stats().HumongousAllocations, 1u);

  H.runAtSafepoint([](Heap &) {});
  const char *Big = reinterpret_cast<const char *>(Ctx.root(BigIdx));
  for (const auto &[Lo, Hi] : H.tlabBlockRanges())
    EXPECT_FALSE(Big >= static_cast<const char *>(Lo) &&
                 Big < static_cast<const char *>(Hi))
        << "humongous object landed inside a TLAB block";
  expectVerified(H, "after humongous allocation");

  // Both storage kinds die cleanly through the same collection.
  Ctx.truncateRoots(0);
  H.collectAtBoundary(0);
  EXPECT_EQ(H.residentObjects(), 0u);
  expectVerified(H, "after reclaiming both storage kinds");
}

//===----------------------------------------------------------------------===//
// Safepoint protocol
//===----------------------------------------------------------------------===//

TEST(SafepointTest, PhaseMachineTransitions) {
  Heap H(manualConfig());
  MutatorContext Ctx(H);
  Ctx.allocateRooted(1, 16);

  EXPECT_EQ(H.phase(), GcPhase::NotCollecting);
  bool SawCollect = false, SawRestore = false;
  H.runAtSafepoint(
      [&](Heap &Stopped) {
        SawCollect = true;
        EXPECT_EQ(Stopped.phase(), GcPhase::Collecting);
      },
      [&](Heap &Stopped) {
        SawRestore = true;
        EXPECT_EQ(Stopped.phase(), GcPhase::Restoring);
      });
  EXPECT_TRUE(SawCollect);
  EXPECT_TRUE(SawRestore);
  EXPECT_EQ(H.phase(), GcPhase::NotCollecting);
}

TEST(SafepointTest, RendezvousStopsARunningMutatorThread) {
  Heap H(manualConfig());
  std::atomic<bool> Stop{false};
  std::atomic<bool> Ready{false};

  std::thread Worker([&] {
    MutatorContext Ctx(H);
    Ctx.allocateRooted(0, 16);
    Ready.store(true, std::memory_order_release);
    while (!Stop.load(std::memory_order_acquire)) {
      Ctx.allocateRooted(0, 16);
      if (Ctx.numRoots() > 64)
        Ctx.truncateRoots(1);
      Ctx.safepoint();
    }
  });
  while (!Ready.load(std::memory_order_acquire))
    std::this_thread::yield();

  for (int Round = 0; Round != 10; ++Round) {
    H.runAtSafepoint([&](Heap &Stopped) {
      EXPECT_EQ(Stopped.phase(), GcPhase::Collecting);
      // Count-in/count-out at work: while the rendezvous is held the
      // worker is blocked outside any heap op, so the allocation clock
      // cannot advance, however long we linger here.
      core::AllocClock Before = Stopped.now();
      for (int Spin = 0; Spin != 100; ++Spin)
        std::this_thread::yield();
      EXPECT_EQ(Stopped.now(), Before);
      // And the full verifier battery holds at the safepoint: pending
      // allocations published, barrier buffers flushed.
      expectVerified(Stopped, "at rendezvous");
    });
  }

  Stop.store(true, std::memory_order_release);
  Worker.join();
  EXPECT_GE(H.mutatorStats().SafepointRendezvous, 10u);
}

TEST(SafepointTest, ParkedContextDoesNotBlockTheRendezvous) {
  Heap H(manualConfig());
  std::atomic<int> Stage{0};

  std::thread Worker([&] {
    MutatorContext Ctx(H);
    Ctx.allocateRooted(0, 16);
    Ctx.park();
    Stage.store(1, std::memory_order_release);
    // Parked: no heap calls, no safepoint polls. The collector must not
    // wait on us.
    while (Stage.load(std::memory_order_acquire) != 2)
      std::this_thread::yield();
    Ctx.unpark();
    Ctx.allocateRooted(0, 16); // Counts in normally again.
  });

  while (Stage.load(std::memory_order_acquire) != 1)
    std::this_thread::yield();
  H.runAtSafepoint(
      [&](Heap &Stopped) { expectVerified(Stopped, "parked rendezvous"); });
  Stage.store(2, std::memory_order_release);
  Worker.join();
  EXPECT_GE(H.mutatorStats().SafepointRendezvous, 1u);
}

TEST(SafepointTest, CollectionInsideCallbackSeesCallbackAllocations) {
  for (CollectorKind Kind : {CollectorKind::MarkSweep, CollectorKind::Copying}) {
    SCOPED_TRACE(Kind == CollectorKind::MarkSweep ? "mark-sweep" : "copying");
    HeapConfig Config = manualConfig();
    Config.Collector = Kind;
    // Released objects keep a dead canary, so a wrongly freed child is
    // detected rather than read after free.
    Config.QuarantineFreedObjects = true;
    Heap H(Config);
    MutatorContext Ctx(H);

    // The callback allocates through the context, then collects: the
    // collection's nested stop must publish the pending parent and child.
    size_t ParentIdx = 0;
    H.runAtSafepoint([&](Heap &Stopped) {
      ParentIdx = Ctx.allocateRooted(1, 8);
      Ctx.writeSlot(Ctx.root(ParentIdx), 0, Ctx.allocate(0, 8));
      Stopped.collectAtBoundary(0);
    });
    H.runAtSafepoint([&](Heap &Stopped) {
      expectVerified(Stopped, "after the callback's collection");
    });

    // A new young child reachable only through the callback's parent must
    // survive a second collection (a parent left marked would hide it).
    size_t ChildIdx = Ctx.allocateRooted(0, 16);
    Ctx.writeSlot(Ctx.root(ParentIdx), 0, Ctx.root(ChildIdx));
    Ctx.truncateRoots(ChildIdx);
    H.collectAtBoundary(0);
    H.runAtSafepoint([&](Heap &Stopped) {
      expectVerified(Stopped, "after the second collection");
    });
    EXPECT_EQ(H.history().size(), 2u);
    Object *Child = Ctx.root(ParentIdx)->slot(0);
    ASSERT_NE(Child, nullptr);
    ASSERT_TRUE(Child->isAlive());
    EXPECT_EQ(Child->rawBytes(), 16u);
    EXPECT_EQ(reachableBytes(H), H.residentBytes());
  }
}

//===----------------------------------------------------------------------===//
// The automatic trigger under racing contexts
//===----------------------------------------------------------------------===//

namespace {

constexpr unsigned MillThreads = 4;
constexpr uint64_t MillTriggerBytes = 8 * 1024;

/// Collections the pressure ladder ran (rungs 1 and 2). Every other
/// collection in the mill is a trigger crossing's.
uint64_t ladderCollections(const Heap &H) {
  return H.degradationEventsOfKind(DegradationKind::EmergencyScavenge) +
         H.degradationEventsOfKind(DegradationKind::EmergencyFullCollection);
}

/// The racing trigger mill on a FIXED1 heap built from \p Config:
/// MillThreads contexts each allocate 10,000 rooted objects and trim their
/// roots from 48 back to 8. On a mark-sweep heap every third object is
/// linked from its predecessor; a copying collection by another thread
/// moves objects under a raw pointer, so there the contexts only allocate
/// and trim. This thread stops the world until the contexts are done, and
/// once after. Every stop verifies the heap, checks that trigger
/// collections equal the crossings the contexts report (and number at
/// most one per TriggerBytes allocated), and checks that residency stays
/// within the heap limit (if set) plus one object per context: a context
/// may pass the limit check just before another fills the heap.
void runRacingMill(HeapConfig Config) {
  Config.TriggerBytes = MillTriggerBytes;
  Heap H(Config);
  H.setPolicy(core::createPolicy("fixed1", core::PolicyConfig()));
  const bool Link = Config.Collector == CollectorKind::MarkSweep;
  const uint64_t MaxGross = Object::grossBytesFor(1, 95);

  // Each context publishes its trigger's collections after every op, so a
  // stop may see a context one collection behind.
  std::array<std::atomic<uint64_t>, MillThreads> Crossings{};
  auto Check = [&](const Heap &Stopped, bool Final) {
    expectVerified(Stopped, Final ? "after the race" : "mid-race safepoint");
    uint64_t Reported = 0;
    for (const std::atomic<uint64_t> &N : Crossings)
      Reported += N.load(std::memory_order_relaxed);
    uint64_t Triggered =
        Stopped.history().size() - ladderCollections(Stopped);
    EXPECT_GE(Triggered, Reported);
    EXPECT_LE(Triggered, Reported + (Final ? 0 : MillThreads));
    // A trigger collection runs only once TriggerBytes were counted since
    // the last collection of any kind ended; contexts that saw the same
    // crossing and each collected would overshoot this bound.
    EXPECT_LE(Triggered, Stopped.now() / MillTriggerBytes);
    if (Config.HeapLimitBytes != 0) {
      EXPECT_LE(Stopped.residentBytes(),
                Config.HeapLimitBytes + MillThreads * MaxGross);
    }
  };

  std::atomic<unsigned> Ready{0}, Done{0};
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T != MillThreads; ++T)
    Workers.emplace_back([&, T] {
      MutatorContext Ctx(H);
      Ready.fetch_add(1, std::memory_order_acq_rel);
      while (Ready.load(std::memory_order_acquire) != MillThreads)
        std::this_thread::yield();
      for (uint32_t I = 0; I != 10'000; ++I) {
        size_t Idx = Ctx.allocateRooted(1, (I * 13 + T * 7) % 96);
        if (Link && Idx != 0 && I % 3 == 0)
          Ctx.writeSlot(Ctx.root(Idx - 1), 0, Ctx.root(Idx));
        if (Ctx.numRoots() > 48)
          Ctx.truncateRoots(8);
        Crossings[T].store(Ctx.stats().TriggeredCollections,
                           std::memory_order_relaxed);
      }
      Done.fetch_add(1, std::memory_order_acq_rel);
    });

  // A stop every 256 KB of allocation (the mill allocates ~3 MB): each
  // verifies the whole heap, so stopping more often would mostly time the
  // verifier.
  for (uint64_t NextStop = 0;
       Done.load(std::memory_order_acquire) != MillThreads;) {
    if (H.now() < NextStop) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      continue;
    }
    H.runAtSafepoint([&](Heap &Stopped) { Check(Stopped, false); });
    NextStop = H.now() + 256 * 1024;
  }
  for (std::thread &Worker : Workers)
    Worker.join();
  H.runAtSafepoint([&](Heap &Stopped) { Check(Stopped, true); });
  EXPECT_GE(H.history().size() - ladderCollections(H), 2u)
      << "mill too small to cross the trigger";
  EXPECT_EQ(H.degradationEventsOfKind(DegradationKind::AllocationFailure),
            0u);
  if (Config.HeapLimitBytes == 0) {
    EXPECT_EQ(ladderCollections(H), 0u);
  } else {
    EXPECT_GT(ladderCollections(H), 0u) << "the limit never pressed";
  }
}

} // namespace

TEST(TriggerTest, RacingContextsRunOneCollectionPerCrossing) {
  for (CollectorKind Kind : {CollectorKind::MarkSweep, CollectorKind::Copying}) {
    SCOPED_TRACE(Kind == CollectorKind::MarkSweep ? "mark-sweep" : "copying");
    HeapConfig Config;
    Config.Collector = Kind;
    runRacingMill(Config);
  }
}

TEST(TriggerTest, RacingContextsUnderAHeapLimit) {
  // Each context keeps at most ~49 objects of up to 128 bytes reachable,
  // about 25 KB over the four; the limit is five times that. FIXED1
  // tenures whatever survives its interval, so residency climbs to the
  // limit and the pressure ladder runs from whichever context hits it.
  for (CollectorKind Kind : {CollectorKind::MarkSweep, CollectorKind::Copying}) {
    SCOPED_TRACE(Kind == CollectorKind::MarkSweep ? "mark-sweep" : "copying");
    HeapConfig Config;
    Config.Collector = Kind;
    Config.HeapLimitBytes = 128 * 1024;
    runRacingMill(Config);
  }
}

TEST(TriggerTest, SafepointCallbackAllocationsDeferTheTrigger) {
  for (CollectorKind Kind : {CollectorKind::MarkSweep, CollectorKind::Copying}) {
    SCOPED_TRACE(Kind == CollectorKind::MarkSweep ? "mark-sweep" : "copying");
    HeapConfig Config;
    Config.TriggerBytes = 1024;
    Config.Collector = Kind;
    Heap H(Config);
    H.setPolicy(core::createPolicy("full", core::PolicyConfig()));
    MutatorContext Ctx(H);

    // A callback driving the context allocates well past the trigger. The
    // trigger waits for the release: the callback owns the stopped world
    // for its own work and collects only when it asks to.
    size_t ParentIdx = 0;
    H.runAtSafepoint([&](Heap &Stopped) {
      ParentIdx = Ctx.allocateRooted(1, 0);
      for (int I = 0; I != 64; ++I)
        Ctx.allocateRooted(1, 32);
      EXPECT_GE(Stopped.now(), 4 * Config.TriggerBytes);
      EXPECT_TRUE(Stopped.history().empty())
          << "a callback-driven allocation collected in place";
    });
    EXPECT_EQ(Ctx.stats().TriggeredCollections, 0u);

    // Outside the callback the trigger fires at the next allocation. A
    // young child reachable only through the callback's parent must then
    // survive a second collection.
    size_t ChildIdx = Ctx.allocateRooted(0, 16);
    EXPECT_EQ(Ctx.stats().TriggeredCollections, 1u);
    Ctx.writeSlot(Ctx.root(ParentIdx), 0, Ctx.root(ChildIdx));
    Ctx.truncateRoots(ChildIdx);
    H.collect();
    H.runAtSafepoint([&](Heap &Stopped) {
      expectVerified(Stopped, "after the second collection");
    });
    EXPECT_EQ(H.history().size(), 2u);
    ASSERT_NE(Ctx.root(ParentIdx)->slot(0), nullptr);
    EXPECT_EQ(Ctx.root(ParentIdx)->slot(0)->rawBytes(), 16u);
  }
}

//===----------------------------------------------------------------------===//
// Phase-dependent barrier routing
//===----------------------------------------------------------------------===//

TEST(BarrierTest, PhaseRoutesForwardStores) {
  Heap H(manualConfig());
  MutatorContext Ctx(H);
  size_t OldIdx = Ctx.allocateRooted(3, 0);
  size_t YoungIdx = Ctx.allocateRooted(1, 0);
  Object *Old = Ctx.root(OldIdx);
  Object *Young = Ctx.root(YoungIdx);
  ASSERT_LT(Old->birth(), Young->birth());

  // NOT_COLLECTING: forward stores are buffered per context; nothing
  // reaches the shared set until a flush.
  Ctx.writeSlot(Old, 0, Young);
  EXPECT_EQ(Ctx.pendingBarrierEntries(), 1u);
  EXPECT_FALSE(H.rememberedSet().contains(Old, 0));
  Ctx.flushWriteBarrier();
  EXPECT_EQ(Ctx.pendingBarrierEntries(), 0u);
  EXPECT_TRUE(H.rememberedSet().contains(Old, 0));

  // Backward-in-time stores are never recorded, in any phase.
  Ctx.writeSlot(Young, 0, Old);
  EXPECT_EQ(Ctx.pendingBarrierEntries(), 0u);
  EXPECT_FALSE(H.rememberedSet().contains(Young, 0));

  // A safepoint flushes whatever is buffered; during COLLECTING and
  // RESTORING (world stopped) stores land in the shared set directly.
  Ctx.writeSlot(Old, 1, Young);
  EXPECT_EQ(Ctx.pendingBarrierEntries(), 1u);
  H.runAtSafepoint(
      [&](Heap &Stopped) {
        EXPECT_TRUE(Stopped.rememberedSet().contains(Old, 1))
            << "buffered entry not flushed by the rendezvous";
        Ctx.writeSlot(Old, 2, Young);
        EXPECT_EQ(Ctx.pendingBarrierEntries(), 0u);
        EXPECT_TRUE(Stopped.rememberedSet().contains(Old, 2));
      },
      [&](Heap &Stopped) {
        Ctx.writeSlot(Young, 0, Old); // Backward: still ignored.
        EXPECT_FALSE(Stopped.rememberedSet().contains(Young, 0));
      });
  expectVerified(H, "after phase-routing stores");
}

TEST(BarrierTest, BufferFlushesAtCapacity) {
  Heap H(manualConfig());
  MutatorContext Ctx(H);
  size_t SrcIdx = Ctx.allocateRooted(80, 0);
  size_t TgtIdx = Ctx.allocateRooted(0, 8);
  Object *Src = Ctx.root(SrcIdx);
  Object *Tgt = Ctx.root(TgtIdx);

  for (uint32_t I = 0; I != 63; ++I) {
    Ctx.writeSlot(Src, I, Tgt);
    EXPECT_EQ(Ctx.pendingBarrierEntries(), I + 1);
  }
  EXPECT_FALSE(H.rememberedSet().contains(Src, 0));
  Ctx.writeSlot(Src, 63, Tgt); // 64th entry: capacity flush.
  EXPECT_EQ(Ctx.pendingBarrierEntries(), 0u);
  for (uint32_t I = 0; I != 64; ++I)
    EXPECT_TRUE(H.rememberedSet().contains(Src, I)) << "slot " << I;
  EXPECT_GE(Ctx.stats().BarrierFlushes, 1u);
  EXPECT_EQ(Ctx.stats().BarrierBufferedEntries, 64u);
}

//===----------------------------------------------------------------------===//
// Determinism and publication
//===----------------------------------------------------------------------===//

namespace {

struct DriveResult {
  std::vector<core::AllocClock> Births;
  core::AllocClock Now = 0;
  uint64_t ResidentBytes = 0;
  core::ScavengeRecord Record;
};

/// The same allocation/link/death sequence through the direct heap API or
/// one mutator context. The determinism contract says both must produce
/// identical clocks, births, and scavenge results.
DriveResult driveSequence(bool UseContext) {
  Heap H(manualConfig());
  HandleScope Scope(H);
  std::optional<MutatorContext> Ctx;
  if (UseContext)
    Ctx.emplace(H);

  std::vector<Object **> Roots;
  for (size_t I = 0; I != 600; ++I) {
    uint32_t Raw = static_cast<uint32_t>((I * 13) % 100);
    if (UseContext)
      Roots.push_back(&Ctx->root(Ctx->allocateRooted(1, Raw)));
    else
      Roots.push_back(&Scope.slot(H.allocate(1, Raw)));
    // Forward link every third object from its predecessor.
    if (I % 3 == 0 && I != 0) {
      Object *Source = *Roots[I - 1];
      Object *Target = *Roots[I];
      if (Source) { // The predecessor's root may have been dropped.
        if (UseContext)
          Ctx->writeSlot(Source, 0, Target);
        else
          H.writeSlot(Source, 0, Target);
      }
    }
    // Drop every fourth root (single-threaded driving: a plain root-slot
    // overwrite is a safe way to drop).
    if (I % 4 == 0)
      *Roots[I] = nullptr;
  }

  DriveResult R;
  R.Record = H.collectAtBoundary(H.now() / 2);
  for (const Object *O : H.objects())
    R.Births.push_back(O->birth());
  R.Now = H.now();
  R.ResidentBytes = H.residentBytes();
  expectVerified(H, UseContext ? "context path" : "direct path");
  return R;
}

} // namespace

TEST(DeterminismTest, SingleContextMatchesDirectPath) {
  DriveResult Direct = driveSequence(/*UseContext=*/false);
  DriveResult Context = driveSequence(/*UseContext=*/true);
  EXPECT_EQ(Direct.Now, Context.Now);
  EXPECT_EQ(Direct.ResidentBytes, Context.ResidentBytes);
  EXPECT_EQ(Direct.Births, Context.Births);
  EXPECT_EQ(Direct.Record.Time, Context.Record.Time);
  EXPECT_EQ(Direct.Record.Boundary, Context.Record.Boundary);
  EXPECT_EQ(Direct.Record.MemBeforeBytes, Context.Record.MemBeforeBytes);
  EXPECT_EQ(Direct.Record.TracedBytes, Context.Record.TracedBytes);
  EXPECT_EQ(Direct.Record.ReclaimedBytes, Context.Record.ReclaimedBytes);
  EXPECT_EQ(Direct.Record.SurvivedBytes, Context.Record.SurvivedBytes);
}

TEST(PublicationTest, InterleavedContextsMergeInBirthOrder) {
  Heap H(manualConfig());
  MutatorContext A(H);
  MutatorContext B(H);
  for (size_t I = 0; I != 200; ++I)
    (I % 2 ? A : B).allocateRooted(0, static_cast<uint32_t>(I % 32));
  // Publication sorts each context's pending run into the global
  // birth-ordered allocation list; the verifier asserts strict ordering.
  H.runAtSafepoint(
      [&](Heap &Stopped) { expectVerified(Stopped, "two-context publish"); });
  EXPECT_EQ(H.residentObjects(), 200u);
  EXPECT_EQ(H.mutatorStats().PublishedObjects, 200u);
  // Per context, the objects published are Allocations minus those still
  // pending: here all of each context's 100.
  for (const MutatorContext *Ctx : {&A, &B}) {
    EXPECT_EQ(Ctx->stats().Allocations, 100u);
    EXPECT_EQ(Ctx->pendingAllocations(), 0u);
  }
}
