//===- tests/telemetry_integration_test.cpp - End-to-end telemetry -------===//
//
// Part of the dtbgc project (Barrett & Zorn DTB reproduction).
//
// Telemetry wired through the real pipelines: the experiment grid's event
// stream is bit-identical across worker-thread counts, the per-scavenge
// pause spans reproduce the Table 3 quantiles exactly, the managed heap
// emits scavenge spans, TB instants, and degradation instants, its
// allocation counters fold in at each collection and at teardown, its CSV
// rows keep their seven fields, and with the recorder off none of them
// records anything.
//
//===----------------------------------------------------------------------===//

#include "telemetry/Export.h"
#include "telemetry/Telemetry.h"

#include "core/MachineModel.h"
#include "core/Policies.h"
#include "report/Experiments.h"
#include "runtime/Heap.h"
#include "runtime/Mutator.h"
#include "support/FaultInjector.h"
#include "support/Statistics.h"
#include "workload/Workload.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

using namespace dtb;
using namespace dtb::report;
using namespace dtb::runtime;
namespace tel = dtb::telemetry;

namespace {

/// Two small distinct workloads; the grid keys tracks by workload name.
std::vector<workload::WorkloadSpec> testWorkloads() {
  workload::WorkloadSpec A = workload::makeSteadyStateSpec(192 * 1024, 7);
  A.Name = "wa";
  workload::WorkloadSpec B = workload::makeSteadyStateSpec(256 * 1024, 11);
  B.Name = "wb";
  return {A, B};
}

ExperimentConfig smallConfig(unsigned Threads) {
  ExperimentConfig Config;
  Config.TriggerBytes = 32 * 1024;
  Config.TraceMaxBytes = 8 * 1024;
  Config.MemMaxBytes = 256 * 1024;
  Config.Threads = Threads;
  return Config;
}

const std::vector<std::string> TestPolicies = {"full", "dtbfm", "dtbmem"};

/// Runs the grid with telemetry live and returns the exported trace bytes.
/// The recorder and global registry are reset first so consecutive calls
/// start from identical state.
std::string runGridAndExport(unsigned Threads) {
  tel::recorder().enable(); // Clears the buffer.
  tel::MetricsRegistry::global().reset();
  ExperimentGrid Grid(testWorkloads(), TestPolicies, smallConfig(Threads));
  char *Data = nullptr;
  size_t Size = 0;
  std::FILE *Stream = open_memstream(&Data, &Size);
  tel::writeChromeTrace(tel::recorder().buffer().sorted(),
                       tel::MetricsRegistry::global().snapshot(),
                       tel::ExportOptions(), Stream);
  std::fclose(Stream);
  std::string Out(Data, Size);
  std::free(Data);
  tel::recorder().disable();
  tel::recorder().buffer().clear();
  return Out;
}

TEST(TelemetryIntegration, GridExportBitIdenticalAcrossThreadCounts) {
  std::string Serial = runGridAndExport(1);
  std::string Parallel = runGridAndExport(4);
  EXPECT_FALSE(Serial.empty());
  EXPECT_EQ(Serial, Parallel);
}

TEST(TelemetryIntegration, PauseSpansReproduceTable3QuantilesExactly) {
  tel::recorder().enable();
  tel::MetricsRegistry::global().reset();
  ExperimentGrid Grid(testWorkloads(), TestPolicies, smallConfig(1));
  std::vector<tel::Event> Events = tel::recorder().buffer().sorted();
  tel::recorder().disable();
  tel::recorder().buffer().clear();

  for (const workload::WorkloadSpec &Spec : Grid.workloads()) {
    for (const std::string &Policy : Grid.policyNames()) {
      std::string Track = "sim/" + Spec.Name + "/" + Policy;
      SampleSet Pauses;
      for (const tel::Event &E : Events)
        if (E.Track == Track && E.Phase == tel::EventPhase::Span &&
            E.Name == "scavenge")
          Pauses.add(E.DurMillis);
      const sim::SimulationResult &Result = Grid.result(Policy, Spec.Name);
      ASSERT_EQ(Pauses.size(), Result.PauseMillis.size())
          << Track << ": one span per scavenge";
      // The span duration is the same double the simulator fed into
      // PauseMillis, so Table 3's quantiles come out bit-exact.
      EXPECT_DOUBLE_EQ(Pauses.median(), Result.PauseMillis.median()) << Track;
      EXPECT_DOUBLE_EQ(Pauses.percentile90(), Result.PauseMillis.percentile90())
          << Track;
    }
  }
}

TEST(TelemetryIntegration, GridEmitsTbInstantsAndRuleArgs) {
  tel::recorder().enable();
  tel::MetricsRegistry::global().reset();
  ExperimentGrid Grid(testWorkloads(), {"dtbfm"}, smallConfig(1));
  std::vector<tel::Event> Events = tel::recorder().buffer().sorted();
  tel::recorder().disable();
  tel::recorder().buffer().clear();

  size_t Instants = 0, SpansWithRule = 0, Spans = 0;
  for (const tel::Event &E : Events) {
    if (E.Phase == tel::EventPhase::Instant && E.Name == "tb")
      Instants += 1;
    if (E.Phase == tel::EventPhase::Span && E.Name == "scavenge") {
      Spans += 1;
      for (const tel::EventArg &A : E.Args)
        if (A.Key == "rule" && !A.Value.empty()) {
          SpansWithRule += 1;
          break;
        }
    }
  }
  EXPECT_GT(Spans, 0u);
  EXPECT_EQ(Instants, Spans); // One TB decision instant per scavenge.
  EXPECT_EQ(SpansWithRule, Spans);

  // The policy rule counters account for every scavenge of the run.
  uint64_t RuleTotal = 0;
  for (const tel::MetricSample &M : tel::MetricsRegistry::global().snapshot())
    if (M.Name.rfind("policy.dtbfm.rule.", 0) == 0)
      RuleTotal += static_cast<uint64_t>(M.Value);
  uint64_t TotalScavenges = 0;
  for (const workload::WorkloadSpec &Spec : Grid.workloads())
    TotalScavenges += Grid.result("dtbfm", Spec.Name).NumScavenges;
  EXPECT_EQ(RuleTotal, TotalScavenges);
}

TEST(TelemetryIntegration, HeapEmitsScavengeSpansAndDegradationInstants) {
  tel::recorder().enable();
  tel::MetricsRegistry::global().reset();
  {
    HeapConfig Config;
    Config.TriggerBytes = 0;
    Config.HeapLimitBytes = 16 * 1024;
    Heap H(Config);
    H.setPolicy(core::createPolicy("full", core::PolicyConfig()));
    // Unrooted allocations: each one over the limit walks the degradation
    // ladder, whose first rung scavenges all the garbage away.
    for (int I = 0; I != 64; ++I)
      ASSERT_NE(H.tryAllocate(0, 1024), nullptr);
  }
  std::vector<tel::Event> Events = tel::recorder().buffer().sorted();
  tel::recorder().disable();
  tel::recorder().buffer().clear();

  size_t Scavenges = 0, Degradations = 0, TbInstants = 0;
  for (const tel::Event &E : Events) {
    if (E.Track.rfind("heap#", 0) != 0)
      continue;
    if (E.Phase == tel::EventPhase::Span && E.Name == "scavenge")
      Scavenges += 1;
    else if (E.Phase == tel::EventPhase::Instant && E.Name == "degradation")
      Degradations += 1;
    else if (E.Phase == tel::EventPhase::Instant && E.Name == "tb")
      TbInstants += 1;
  }
  EXPECT_GT(Scavenges, 0u);
  EXPECT_GT(Degradations, 0u);
  EXPECT_EQ(TbInstants, Scavenges);

  // Registry mirrors: the scavenge count and at least one per-kind
  // degradation counter moved.
  EXPECT_EQ(static_cast<size_t>(tel::MetricsRegistry::global()
                                    .counter("runtime.scavenge.count")
                                    .value()),
            Scavenges);
  uint64_t DegradationCounted = 0;
  for (const tel::MetricSample &M : tel::MetricsRegistry::global().snapshot())
    if (M.Name.rfind("runtime.degradation.", 0) == 0)
      DegradationCounted += static_cast<uint64_t>(M.Value);
  EXPECT_EQ(DegradationCounted, Degradations);
}

/// The global registry's value of counter \p Name (0 if it is not
/// registered), read without registering it.
uint64_t counterValue(const std::string &Name) {
  for (const tel::MetricSample &M : tel::MetricsRegistry::global().snapshot())
    if (M.Name == Name)
      return static_cast<uint64_t>(M.Value);
  return 0;
}

/// Expects the allocation counters to count \p Allocations objects,
/// \p Clock bytes and \p Refills TLAB blocks.
void expectAllocationCounters(uint64_t Allocations, uint64_t Clock,
                              uint64_t Refills) {
  EXPECT_EQ(counterValue("runtime.alloc.count"), Allocations);
  EXPECT_EQ(counterValue("runtime.alloc.bytes"), Clock);
  EXPECT_EQ(counterValue("runtime.tlab.refills"), Refills);
  EXPECT_EQ(counterValue("runtime.tlab.carved_bytes"),
            Refills * Heap::BlockBytes);
}

TEST(TelemetryIntegration, AllocationCountersFoldAtCollectionsAndTeardown) {
  // One heap driven directly and through two contexts from this thread.
  // After a collection the counters hold every allocation so far, and
  // after teardown every allocation of the run, the ones since the last
  // collection included.
  for (CollectorKind Kind : {CollectorKind::MarkSweep, CollectorKind::Copying}) {
    SCOPED_TRACE(Kind == CollectorKind::MarkSweep ? "mark-sweep" : "copying");
    tel::recorder().enable();
    tel::MetricsRegistry::global().reset();
    uint64_t Allocations = 0, Clock = 0, Refills = 0;
    {
      HeapConfig Config;
      Config.TriggerBytes = 0;
      Config.Collector = Kind;
      Heap H(Config);
      H.setPolicy(core::createPolicy("fixed1", core::PolicyConfig()));
      MutatorContext A(H), B(H);
      // Garbage on every path, and a rooted object now and then that a
      // later round drops.
      auto Round = [&](int N) {
        for (int I = 0; I != N; ++I) {
          H.allocate(0, 32);
          A.allocate(0, 48);
          Allocations += 2;
          if (I % 8 == 0) {
            B.allocateRooted(1, 8);
            Allocations += 1;
          }
        }
      };
      Round(2'000);
      H.collect();
      expectAllocationCounters(Allocations, H.now(),
                               H.mutatorStats().TlabRefills);
      B.truncateRoots(0);
      Round(2'000);
      H.collect();
      expectAllocationCounters(Allocations, H.now(),
                               H.mutatorStats().TlabRefills);
      if (Kind == CollectorKind::MarkSweep) {
        // An incremental cycle folds when it closes; the objects allocated
        // between its quanta are counted with it.
        H.beginIncrementalScavenge(0);
        Round(500);
        H.finishIncrementalScavenge();
        expectAllocationCounters(Allocations, H.now(),
                                 H.mutatorStats().TlabRefills);
      }
      Round(1'000);
      Clock = H.now();
      Refills = H.mutatorStats().TlabRefills;
      ASSERT_GT(Refills, 2u);
    }
    expectAllocationCounters(Allocations, Clock, Refills);
    tel::recorder().disable();
    tel::recorder().buffer().clear();
  }
}

TEST(TelemetryIntegration, AllocationCountersFoldUnderRacingContexts) {
  // Two contexts on two threads race the trigger; each collection folds
  // what both published, and teardown the rest.
  tel::recorder().enable();
  tel::MetricsRegistry::global().reset();
  uint64_t Allocations[2] = {0, 0}, Clock = 0, Refills = 0;
  {
    HeapConfig Config;
    Config.TriggerBytes = 16 * 1024;
    Heap H(Config);
    H.setPolicy(core::createPolicy("fixed1", core::PolicyConfig()));
    std::vector<std::thread> Threads;
    for (int T = 0; T != 2; ++T)
      Threads.emplace_back([&H, &Allocations, T] {
        MutatorContext Ctx(H);
        for (int I = 0; I != 6'000; ++I) {
          if (I % 64 == 0)
            Ctx.truncateRoots(0);
          if (I % 4 == 0)
            Ctx.allocateRooted(1, 16);
          else
            Ctx.allocate(0, 24);
        }
        Allocations[T] = Ctx.stats().Allocations;
      });
    for (std::thread &Thread : Threads)
      Thread.join();
    EXPECT_GT(H.history().size(), 2u);
    Clock = H.now();
    Refills = H.mutatorStats().TlabRefills;
  }
  expectAllocationCounters(Allocations[0] + Allocations[1], Clock, Refills);
  tel::recorder().disable();
  tel::recorder().buffer().clear();
}

/// Splits RFC 4180 CSV text into rows of fields.
std::vector<std::vector<std::string>> parseCsv(const std::string &Text) {
  std::vector<std::vector<std::string>> Rows(1);
  std::string Field;
  bool Quoted = false;
  for (size_t I = 0; I != Text.size(); ++I) {
    char C = Text[I];
    if (Quoted) {
      if (C != '"')
        Field += C;
      else if (I + 1 != Text.size() && Text[I + 1] == '"')
        Field += Text[++I];
      else
        Quoted = false;
    } else if (C == '"') {
      Quoted = true;
    } else if (C == ',' || C == '\n') {
      Rows.back().push_back(std::move(Field));
      Field.clear();
      if (C == '\n')
        Rows.emplace_back();
    } else {
      Field += C;
    }
  }
  Rows.pop_back(); // After the last line break.
  return Rows;
}

TEST(TelemetryIntegration, CsvRowsHoldingCommasKeepSevenFields) {
  tel::recorder().enable();
  {
    // A two-context stop: its rendezvous instant's arrival order is "1,2".
    HeapConfig Config;
    Config.TriggerBytes = 0;
    Heap H(Config);
    MutatorContext A(H), B(H);
    A.allocate(0, 16);
    B.allocate(0, 16);
    H.collectAtBoundary(0);
  }
  {
    // A deadline below any quantum's model cost: each watchdog violation's
    // detail reads "(model cost X ms, deadline Y ms)".
    HeapConfig Config;
    Config.TriggerBytes = 0;
    Config.ScavengeBudgetBytes = 500;
    Config.QuantumDeadlineMillis =
        core::MachineModel().pauseMillisForTracedBytes(32);
    Heap H(Config);
    HandleScope Scope(H);
    Object *&Head = Scope.slot(nullptr);
    for (int I = 0; I != 200; ++I) {
      Object *N = H.allocate(1, 32);
      H.writeSlot(N, 0, Head);
      Head = N;
    }
    H.collectAtBoundary(0);
    ASSERT_GT(H.degradationEventsOfKind(DegradationKind::WatchdogDeadline),
              0u);
  }
  std::vector<tel::Event> Events = tel::recorder().buffer().sorted();
  char *Data = nullptr;
  size_t Size = 0;
  std::FILE *Stream = open_memstream(&Data, &Size);
  tel::writeCsv(Events, tel::ExportOptions(), Stream);
  std::fclose(Stream);
  std::string Text(Data, Size);
  std::free(Data);
  tel::recorder().disable();
  tel::recorder().buffer().clear();

  std::vector<std::vector<std::string>> Rows = parseCsv(Text);
  ASSERT_EQ(Rows.size(), Events.size() + 1);
  bool SawArrivals = false, SawWatchdog = false;
  for (size_t I = 0; I != Rows.size(); ++I) {
    ASSERT_EQ(Rows[I].size(), 7u) << "row " << I;
    if (I == 0)
      continue;
    const tel::Event &E = Events[I - 1];
    std::string Args;
    for (const tel::EventArg &A : E.Args)
      Args += (Args.empty() ? "" : ";") + A.Key + "=" + A.Value;
    EXPECT_EQ(Rows[I][0], E.Track);
    EXPECT_EQ(Rows[I][3], E.Name);
    EXPECT_EQ(Rows[I][6], Args); // The args cell round-trips.
    SawArrivals |= E.Name == "safepoint_rendezvous" &&
                   Args.find("arrival_order=1,2") != std::string::npos;
    SawWatchdog |= E.Name == "degradation" &&
                   Args.find(" ms, deadline ") != std::string::npos;
  }
  EXPECT_TRUE(SawArrivals);
  EXPECT_TRUE(SawWatchdog);
}

/// Every instrument in the global registry, rendered for comparison.
std::string registryState() {
  std::string Out;
  for (const tel::MetricSample &M : tel::MetricsRegistry::global().snapshot()) {
    char Line[256];
    std::snprintf(Line, sizeof(Line), " %.17g %llu %.17g %.17g %.17g\n",
                  M.Value, static_cast<unsigned long long>(M.Count), M.Sum,
                  M.Min, M.Max);
    Out += M.Name + Line;
  }
  return Out;
}

TEST(TelemetryIntegration, SilentWithoutTrackOrWhenDisabled) {
  // With the recorder disabled, a grid run and a runtime heap leave the
  // event buffer empty and the registry as it was; a direct simulate()
  // with no TelemetryTrack emits nothing even when the recorder is live.
  tel::recorder().disable();
  tel::recorder().buffer().clear();
  const std::string RegistryBefore = registryState();
  ExperimentGrid Grid(testWorkloads(), {"full"}, smallConfig(1));
  EXPECT_EQ(tel::recorder().buffer().size(), 0u);
  {
    // Every instrumented runtime path, directly and through a context:
    // allocations past a TLAB refill, forward stores, collections with a
    // safepoint rendezvous, and an injected policy-evaluation fault.
    HeapConfig Config;
    Config.TriggerBytes = 0;
    Heap H(Config);
    H.setPolicy(core::createPolicy("full", core::PolicyConfig()));
    HandleScope Scope(H);
    MutatorContext Ctx(H);
    Object *&Old = Scope.slot(H.allocate(1));
    size_t CtxOld = Ctx.allocateRooted(1);
    for (int I = 0; I != 2'000; ++I) {
      H.allocate(0, 32);
      Ctx.allocate(0, 32);
    }
    ASSERT_GT(Ctx.stats().TlabRefills, 1u);
    H.writeSlot(Old, 0, H.allocate(0));
    Ctx.writeSlot(Ctx.root(CtxOld), 0, Ctx.allocate(0));
    ASSERT_GT(Ctx.stats().BarrierBufferedEntries, 0u);
    H.collect();
    FaultInjector Injector(/*Seed=*/1);
    Injector.armOneShot(FaultSite::PolicyEvaluation, 1);
    {
      FaultInjectionScope FaultScope(Injector);
      H.collect();
    }
    EXPECT_EQ(H.degradationEventsOfKind(DegradationKind::PolicyFallback), 1u);
    EXPECT_EQ(H.history().size(), 2u);
  }
  EXPECT_EQ(tel::recorder().buffer().size(), 0u);
  EXPECT_EQ(registryState(), RegistryBefore);

  tel::recorder().enable();
  workload::WorkloadSpec Spec = testWorkloads()[0];
  trace::Trace T = workload::generateTrace(Spec);
  sim::SimulatorConfig SimConfig;
  SimConfig.TriggerBytes = 32 * 1024;
  std::unique_ptr<core::BoundaryPolicy> Policy =
      core::createPolicy("full", core::PolicyConfig());
  sim::simulate(T, *Policy, SimConfig);
  EXPECT_EQ(tel::recorder().buffer().size(), 0u);
  tel::recorder().disable();
  tel::recorder().buffer().clear();
}

} // namespace
