//===- tests/runtime_observability_test.cpp -------------------------------==//
//
// The safepoint/mutator observability layer: TTSP attribution on the
// rendezvous record, per-context counters, the always-on flight
// recorder (ring semantics, automatic dump on degradation), and the
// determinism contract — a fixed-seed multi-context workload exports
// bit-identical metrics on every run.
//
//===----------------------------------------------------------------------===//

#include "runtime/FlightRecorder.h"
#include "runtime/Heap.h"
#include "runtime/Mutator.h"

#include "core/MachineModel.h"
#include "core/Policies.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

using namespace dtb;
using namespace dtb::runtime;

namespace {

HeapConfig manualConfig() {
  HeapConfig Config;
  Config.TriggerBytes = 0;
  return Config;
}

} // namespace

//===----------------------------------------------------------------------===//
// Flight recorder ring
//===----------------------------------------------------------------------===//

TEST(FlightRecorderTest, RecordsAndSnapshotsInOrder) {
  FlightRecorder Rec;
  EXPECT_EQ(Rec.recorded(), 0u);
  Rec.record(FlightEventKind::CycleBegin, /*Time=*/10, /*A=*/7);
  Rec.record(FlightEventKind::ScavengeComplete, 20, 1, 300, 200);
  Rec.record(FlightEventKind::SafepointRendezvous, 30, 4, 512, 3);
  EXPECT_EQ(Rec.recorded(), 3u);

  std::vector<FlightEvent> Events = Rec.snapshot();
  ASSERT_EQ(Events.size(), 3u);
  EXPECT_EQ(Events[0].Seq, 0u);
  EXPECT_EQ(Events[0].Kind, FlightEventKind::CycleBegin);
  EXPECT_EQ(Events[0].Time, 10u);
  EXPECT_EQ(Events[2].Kind, FlightEventKind::SafepointRendezvous);
  EXPECT_EQ(Events[2].A, 4u);
  EXPECT_EQ(Events[2].C, 3u);
  EXPECT_EQ(describeFlightEvent(Events[2]),
            "safepoint-rendezvous: 4 contexts, 512 pending alloc bytes, "
            "straggler ctx 3");
  EXPECT_EQ(describeFlightEvent(Events[1]),
            "scavenge #1: traced 300 reclaimed 200 bytes");
}

TEST(FlightRecorderTest, RingRetainsOnlyTheTail) {
  FlightRecorder Rec;
  const uint64_t Total = FlightRecorder::Capacity + 50;
  for (uint64_t I = 0; I != Total; ++I)
    Rec.record(FlightEventKind::ScavengeComplete, I, I);
  EXPECT_EQ(Rec.recorded(), Total);
  std::vector<FlightEvent> Events = Rec.snapshot();
  ASSERT_EQ(Events.size(), FlightRecorder::Capacity);
  // Oldest retained event is Total - Capacity; newest is Total - 1.
  EXPECT_EQ(Events.front().Seq, Total - FlightRecorder::Capacity);
  EXPECT_EQ(Events.front().A, Total - FlightRecorder::Capacity);
  EXPECT_EQ(Events.back().Seq, Total - 1);
}

TEST(FlightRecorderTest, AutoDumpIsThrottledExplicitDumpIsNot) {
  FlightRecorder Rec;
  Rec.record(FlightEventKind::Degradation, 5, 0, 1000);

  char *Buffer = nullptr;
  size_t Size = 0;
  std::FILE *Stream = open_memstream(&Buffer, &Size);
  ASSERT_NE(Stream, nullptr);
  for (unsigned I = 0; I != FlightRecorder::AutoDumpLimit; ++I)
    EXPECT_TRUE(Rec.autoDump(Stream, "test trigger"));
  EXPECT_FALSE(Rec.autoDump(Stream, "test trigger"));
  EXPECT_FALSE(Rec.autoDump(Stream, "test trigger"));
  Rec.dump(Stream); // Explicit dumps never throttle.
  std::fclose(Stream);
  std::string Out(Buffer, Size);
  std::free(Buffer);

  size_t Headers = 0;
  for (size_t Pos = 0;
       (Pos = Out.find("flight recorder:", Pos)) != std::string::npos; ++Pos)
    ++Headers;
  EXPECT_EQ(Headers, FlightRecorder::AutoDumpLimit + 1);
  EXPECT_NE(Out.find("[flight-recorder] dump on test trigger"),
            std::string::npos);
  EXPECT_NE(Out.find("degradation emergency-scavenge: resident 1000 bytes"),
            std::string::npos);
}

//===----------------------------------------------------------------------===//
// Rendezvous records and TTSP attribution
//===----------------------------------------------------------------------===//

TEST(ObservabilityTest, RendezvousRecordAttributesTtspToPendingBytes) {
  Heap H(manualConfig());
  MutatorContext Ctx1(H), Ctx2(H);
  EXPECT_EQ(Ctx1.id(), 1u);
  EXPECT_EQ(Ctx2.id(), 2u);

  uint64_t Before = H.lastSafepointRendezvous().Serial;
  Ctx1.allocate(1, 64);
  Ctx2.allocate(1, 64);
  Ctx2.allocate(0, 128);
  H.runAtSafepoint([](Heap &) {});

  const SafepointRendezvousRecord &R = H.lastSafepointRendezvous();
  EXPECT_EQ(R.Serial, Before + 1);
  EXPECT_EQ(R.Contexts, 2u);
  EXPECT_EQ(R.PendingAllocObjects, 3u);
  EXPECT_GT(R.PendingAllocBytes, 0u);
  // The deterministic TTSP is the machine model's pause for the pending
  // bytes the rendezvous drained — not a wall measurement.
  EXPECT_DOUBLE_EQ(R.TtspMillis,
                   core::MachineModel().pauseMillisForTracedBytes(
                       R.PendingAllocBytes));
  // Single-threaded driving: every context is between ops when the world
  // stops, so the straggler is the last-registered polling context.
  EXPECT_EQ(R.Straggler, StragglerKind::Polling);
  EXPECT_EQ(R.StragglerContext, Ctx2.id());

  // The rendezvous is also on the flight-recorder tail.
  std::vector<FlightEvent> Events = H.flightRecorder().snapshot();
  ASSERT_FALSE(Events.empty());
  bool Found = false;
  for (const FlightEvent &E : Events)
    if (E.Kind == FlightEventKind::SafepointRendezvous && E.A == 2 &&
        E.C == Ctx2.id())
      Found = true;
  EXPECT_TRUE(Found);

  const SafepointTtspStats &Stats = H.safepointTtspStats();
  ASSERT_FALSE(Stats.TtspMillis.empty());
  EXPECT_DOUBLE_EQ(Stats.TtspMillis.samples().back(), R.TtspMillis);
  EXPECT_GT(Stats.StragglerPolling, 0u);
}

TEST(ObservabilityTest, ParkedStragglerIsAttributedAsParked) {
  Heap H(manualConfig());
  MutatorContext Worker(H), Sleeper(H);
  Worker.allocate(1, 64);
  Sleeper.park();
  H.runAtSafepoint([](Heap &) {});
  const SafepointRendezvousRecord &R = H.lastSafepointRendezvous();
  EXPECT_EQ(R.Straggler, StragglerKind::Parked);
  EXPECT_EQ(R.StragglerContext, Sleeper.id());
  EXPECT_EQ(stragglerKindName(R.Straggler), std::string("parked"));
  Sleeper.unpark();
  EXPECT_GT(H.safepointTtspStats().StragglerParked, 0u);
  EXPECT_EQ(Sleeper.stats().Parks, 1u);
  EXPECT_EQ(Sleeper.stats().Unparks, 1u);
}

TEST(ObservabilityTest, PerContextCountersTrackTheWorkload) {
  HeapConfig Config = manualConfig();
  Heap H(Config);
  MutatorContext Ctx(H);

  size_t First = Ctx.allocateRooted(1, 32);
  for (int I = 0; I != 100; ++I) {
    size_t Index = Ctx.allocateRooted(1, 32);
    Ctx.writeSlot(Ctx.root(Index - 1), 0, Ctx.root(Index));
    Ctx.safepoint();
  }
  (void)First;
  H.runAtSafepoint([](Heap &) {});

  const MutatorContext::Stats &S = Ctx.stats();
  EXPECT_EQ(S.Allocations, 101u);
  EXPECT_GT(S.AllocatedBytes, 0u);
  EXPECT_GE(S.TlabRefills, 1u);
  EXPECT_GE(S.BarrierFlushes, 1u);
  EXPECT_EQ(S.SafepointPolls, 100u);
  EXPECT_GT(S.BarrierHighWater, 0u);
  EXPECT_LE(S.BarrierHighWater, 64u); // Flush threshold bounds it.
  // The derived figures: the bytes carved cover every allocation, and the
  // rendezvous above published all of them.
  EXPECT_GE(S.TlabRefills * Heap::BlockBytes, S.AllocatedBytes);
  EXPECT_EQ(Ctx.pendingAllocations(), 0u);
  EXPECT_EQ(H.mutatorStats().PublishedObjects, S.Allocations);
  EXPECT_EQ(H.mutatorStats().TlabCarvedBytes,
            H.mutatorStats().TlabRefills * Heap::BlockBytes);
}

//===----------------------------------------------------------------------===//
// Determinism contract
//===----------------------------------------------------------------------===//

namespace {

/// Fixed-seed 4-context round-robin workload, one thread — the test-side
/// replica of the bench driver's mutator-counters stage recipe.
struct WorkloadOutcome {
  std::vector<MutatorContext::Stats> Stats;
  std::vector<size_t> Pending;
  SafepointRendezvousRecord LastRendezvous;
  std::vector<FlightEvent> Flight;
  std::vector<double> TtspSamples;
};

WorkloadOutcome runFixedSeedWorkload() {
  HeapConfig Config;
  Config.TriggerBytes = 16'000;
  Heap H(Config);
  H.setPolicy(core::createPolicy("fixed1", core::PolicyConfig()));
  std::vector<std::unique_ptr<MutatorContext>> Ctxs;
  for (int I = 0; I != 4; ++I)
    Ctxs.push_back(std::make_unique<MutatorContext>(H));

  uint64_t Lcg = 0xFA417;
  auto Next = [&Lcg] {
    Lcg = Lcg * 6364136223846793005ull + 1442695040888963407ull;
    return Lcg >> 33;
  };
  for (uint64_t Step = 0; Step != 2'000; ++Step) {
    MutatorContext &Ctx = *Ctxs[Step % 4];
    uint64_t Roll = Next();
    size_t Index =
        Ctx.allocateRooted(1 + static_cast<uint32_t>(Roll % 3),
                           static_cast<uint32_t>((Roll >> 8) % 64));
    if (Index != 0)
      Ctx.writeSlot(Ctx.root(Index - 1), 0, Ctx.root(Index));
    if (Roll % 5 == 0)
      Ctx.safepoint();
    if (Ctx.numRoots() > 128)
      Ctx.truncateRoots(8);
  }
  H.collectAtBoundary(0);

  WorkloadOutcome Out;
  for (const auto &Ctx : Ctxs) {
    Out.Stats.push_back(Ctx->stats());
    Out.Pending.push_back(Ctx->pendingAllocations());
  }
  Out.LastRendezvous = H.lastSafepointRendezvous();
  Out.Flight = H.flightRecorder().snapshot();
  Out.TtspSamples = H.safepointTtspStats().TtspMillis.samples();
  return Out;
}

} // namespace

TEST(ObservabilityTest, FixedSeedWorkloadExportsBitIdenticalMetrics) {
  WorkloadOutcome A = runFixedSeedWorkload();
  WorkloadOutcome B = runFixedSeedWorkload();

  ASSERT_EQ(A.Stats.size(), B.Stats.size());
  for (size_t I = 0; I != A.Stats.size(); ++I) {
    const MutatorContext::Stats &X = A.Stats[I];
    const MutatorContext::Stats &Y = B.Stats[I];
    EXPECT_EQ(X.Allocations, Y.Allocations) << "context " << I;
    EXPECT_EQ(X.AllocatedBytes, Y.AllocatedBytes) << "context " << I;
    EXPECT_EQ(X.TlabRefills, Y.TlabRefills) << "context " << I;
    EXPECT_EQ(X.BarrierBufferedEntries, Y.BarrierBufferedEntries)
        << "context " << I;
    EXPECT_EQ(X.BarrierFlushes, Y.BarrierFlushes) << "context " << I;
    EXPECT_EQ(X.TriggeredCollections, Y.TriggeredCollections)
        << "context " << I;
    EXPECT_EQ(X.TlabWastedBytes, Y.TlabWastedBytes) << "context " << I;
    EXPECT_EQ(X.BarrierHighWater, Y.BarrierHighWater) << "context " << I;
    EXPECT_EQ(X.SafepointPolls, Y.SafepointPolls) << "context " << I;
    // Objects published so far: Allocations - pendingAllocations().
    EXPECT_EQ(A.Pending[I], B.Pending[I]) << "context " << I;
  }

  EXPECT_EQ(A.LastRendezvous.Serial, B.LastRendezvous.Serial);
  EXPECT_EQ(A.LastRendezvous.Time, B.LastRendezvous.Time);
  EXPECT_EQ(A.LastRendezvous.PendingAllocBytes,
            B.LastRendezvous.PendingAllocBytes);
  EXPECT_DOUBLE_EQ(A.LastRendezvous.TtspMillis, B.LastRendezvous.TtspMillis);
  EXPECT_EQ(A.LastRendezvous.StragglerContext,
            B.LastRendezvous.StragglerContext);

  // The whole flight-recorder tail replays bit-identically.
  ASSERT_EQ(A.Flight.size(), B.Flight.size());
  for (size_t I = 0; I != A.Flight.size(); ++I) {
    EXPECT_EQ(A.Flight[I].Seq, B.Flight[I].Seq);
    EXPECT_EQ(A.Flight[I].Kind, B.Flight[I].Kind);
    EXPECT_EQ(A.Flight[I].Time, B.Flight[I].Time);
    EXPECT_EQ(A.Flight[I].A, B.Flight[I].A);
    EXPECT_EQ(A.Flight[I].B, B.Flight[I].B);
    EXPECT_EQ(A.Flight[I].C, B.Flight[I].C);
  }
  EXPECT_GT(A.LastRendezvous.Serial, 1u); // The workload actually stopped.

  ASSERT_EQ(A.TtspSamples.size(), B.TtspSamples.size());
  for (size_t I = 0; I != A.TtspSamples.size(); ++I)
    EXPECT_DOUBLE_EQ(A.TtspSamples[I], B.TtspSamples[I]);
}

//===----------------------------------------------------------------------===//
// Automatic dump on degradation
//===----------------------------------------------------------------------===//

TEST(ObservabilityTest, DegradationDumpsFlightRecorderWithRendezvous) {
  char *Buffer = nullptr;
  size_t Size = 0;
  std::FILE *Stream = open_memstream(&Buffer, &Size);
  ASSERT_NE(Stream, nullptr);
  {
    HeapConfig Config;
    Config.TriggerBytes = 0;
    Config.HeapLimitBytes = 64 * 1024;
    Config.LogStream = Stream;
    Heap H(Config);
    H.setPolicy(core::createPolicy("fixed1", core::PolicyConfig()));
    MutatorContext Ctx(H);

    // A context-visible rendezvous first, so the dump that follows has
    // the triggering stop on its tail.
    Ctx.allocate(1, 64);
    H.runAtSafepoint([](Heap &) {});
    ASSERT_GT(H.lastSafepointRendezvous().Serial, 0u);

    // Unrooted garbage up to the limit, then a request that cannot fit:
    // the pressure ladder stops the world (another rendezvous) and its
    // first rung records a degradation event — which must auto-dump the
    // flight recorder into the GC log.
    for (int I = 0; I != 50; ++I)
      Ctx.allocate(0, 1'000);
    ASSERT_NE(Ctx.tryAllocate(0, 32 * 1024), nullptr);
    EXPECT_GT(H.totalDegradationEvents(), 0u);
  }
  std::fclose(Stream);
  std::string Log(Buffer, Size);
  std::free(Buffer);

  EXPECT_NE(Log.find("[flight-recorder] dump on emergency-scavenge"),
            std::string::npos);
  EXPECT_NE(Log.find("flight recorder:"), std::string::npos);
  // The dump carries the rendezvous that preceded the degradation.
  EXPECT_NE(Log.find("safepoint-rendezvous:"), std::string::npos);
  EXPECT_NE(Log.find("degradation emergency-scavenge"), std::string::npos);
}
