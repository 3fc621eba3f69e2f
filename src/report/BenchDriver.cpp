//===- report/BenchDriver.cpp ---------------------------------------------==//

#include "report/BenchDriver.h"

#include "core/OptimalPolicies.h"
#include "core/Policies.h"
#include "report/Experiments.h"
#include "report/GhostMutator.h"
#include "runtime/Heap.h"
#include "runtime/Mutator.h"
#include "serverload/ServerLoad.h"
#include "sim/Simulator.h"
#include "support/Error.h"
#include "support/Statistics.h"
#include "support/ThreadPool.h"
#include "trace/TraceStats.h"
#include "workload/Workload.h"

#include <array>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>

using namespace dtb;
using namespace dtb::report;

namespace {

//===----------------------------------------------------------------------===//
// Environment identity
//===----------------------------------------------------------------------===//

/// First line of a shell command's stdout, trimmed; empty on failure.
std::string captureLine(const char *Command) {
  std::string Out;
  if (std::FILE *P = ::popen(Command, "r")) {
    char Buffer[256];
    while (size_t N = std::fread(Buffer, 1, sizeof Buffer, P))
      Out.append(Buffer, N);
    ::pclose(P);
  }
  if (size_t Eol = Out.find('\n'); Eol != std::string::npos)
    Out.resize(Eol);
  return Out;
}

std::string buildFlagsString() {
  std::string Flags;
#if DTB_TELEMETRY
  Flags += "telemetry=on";
#else
  Flags += "telemetry=off";
#endif
#ifdef NDEBUG
  Flags += ";ndebug";
#endif
#ifdef __VERSION__
  Flags += ";compiler=" __VERSION__;
#endif
  return Flags;
}

//===----------------------------------------------------------------------===//
// Wall measurement
//===----------------------------------------------------------------------===//

double timeSeconds(const std::function<void()> &Fn) {
  auto Start = std::chrono::steady_clock::now();
  Fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

/// Warmup runs discarded, then one sample per timed repeat.
std::vector<double> measureWall(const BenchDriverOptions &Options,
                                const std::function<void()> &Fn) {
  for (unsigned I = 0; I != Options.Warmup; ++I)
    Fn();
  std::vector<double> Samples;
  unsigned Repeats = Options.Repeats ? Options.Repeats : 1;
  for (unsigned I = 0; I != Repeats; ++I)
    Samples.push_back(timeSeconds(Fn));
  return Samples;
}

//===----------------------------------------------------------------------===//
// Deterministic stages
//===----------------------------------------------------------------------===//

/// The quick suite's sim grid: the parallel-equivalence scale — three
/// small steady-state workloads, full policy set, scaled budgets.
std::vector<workload::WorkloadSpec> quickWorkloads() {
  std::vector<workload::WorkloadSpec> Workloads = {
      workload::makeSteadyStateSpec(200'000, 1),
      workload::makeSteadyStateSpec(300'000, 2),
      workload::makeSteadyStateSpec(250'000, 3)};
  Workloads[1].Name = "steady2";
  Workloads[1].DisplayName = "STEADY2";
  Workloads[2].Name = "steady3";
  Workloads[2].DisplayName = "STEADY3";
  return Workloads;
}

ExperimentConfig quickGridConfig(unsigned Threads) {
  ExperimentConfig Config;
  Config.TriggerBytes = 20'000;
  Config.TraceMaxBytes = 5'000;
  Config.MemMaxBytes = 60'000;
  Config.Threads = Threads;
  return Config;
}

/// Runs the (workload x policy) sim grid with a per-cell phase profiler and
/// appends one metric group per cell. The fan-out mirrors ExperimentGrid:
/// independent tasks deposit into preassigned slots, and the metric /
/// profile folds run serially in a fixed (workload, policy) order, so the
/// record is bit-identical for every thread count.
void runSimGridStage(const std::vector<workload::WorkloadSpec> &Workloads,
                     const ExperimentConfig &Config, BenchRecord &Record,
                     profiling::PhaseProfiler &Merged) {
  const std::vector<std::string> &Policies = core::paperPolicyNames();
  core::PolicyConfig PolicyConfig;
  PolicyConfig.TraceMaxBytes = Config.TraceMaxBytes;
  PolicyConfig.MemMaxBytes = Config.MemMaxBytes;

  PoolSelection Pool(Config.Threads);
  std::vector<trace::Trace> Traces(Workloads.size());
  parallelFor(
      Workloads.size(),
      [&](size_t W) { Traces[W] = workload::generateTrace(Workloads[W]); },
      Pool.pool());

  struct Cell {
    sim::SimulationResult Result;
    profiling::PhaseProfiler Profile;
  };
  std::vector<Cell> Cells(Workloads.size() * Policies.size());
  parallelFor(
      Cells.size(),
      [&](size_t I) {
        size_t W = I / Policies.size();
        size_t P = I % Policies.size();
        sim::SimulatorConfig SimConfig;
        SimConfig.TriggerBytes = Config.TriggerBytes;
        SimConfig.Machine = Config.Machine;
        SimConfig.ProgramSeconds = Workloads[W].ProgramSeconds;
        Cells[I].Profile.setEnabled(true);
        SimConfig.Profiler = &Cells[I].Profile;
        std::unique_ptr<core::BoundaryPolicy> Policy =
            core::createPolicy(Policies[P], PolicyConfig);
        Cells[I].Result = sim::simulate(Traces[W], *Policy, SimConfig);
      },
      Pool.pool());

  for (size_t I = 0; I != Cells.size(); ++I) {
    size_t W = I / Policies.size();
    size_t P = I % Policies.size();
    const sim::SimulationResult &R = Cells[I].Result;
    std::string Prefix = "sim/" + Workloads[W].Name + "/" + Policies[P] + "/";
    Record.addExact(Prefix + "mem_mean_bytes", "bytes", R.MemMeanBytes);
    Record.addExact(Prefix + "mem_max_bytes", "bytes",
                    static_cast<double>(R.MemMaxBytes));
    Record.addExact(Prefix + "traced_bytes", "bytes",
                    static_cast<double>(R.TotalTracedBytes));
    Record.addExact(Prefix + "num_scavenges", "count",
                    static_cast<double>(R.NumScavenges));
    Record.addExact(Prefix + "pause_p50_ms", "ms", R.PauseMillis.median());
    Record.addExact(Prefix + "pause_p90_ms", "ms",
                    R.PauseMillis.percentile90());
    Merged.mergeFrom(Cells[I].Profile);
  }
}

/// Runs the (server scenario x policy) sim grid with tail metrics. Mirrors
/// runSimGridStage's determinism recipe (preassigned slots, serial fixed-
/// order fold) but adds the two tail families the server suite gates:
/// machine-model pause quantiles out to p99.9, and the memory-*overshoot*
/// distribution — per scavenge, resident bytes just before the collection
/// minus the trace's oracle live bytes at that clock, i.e. the floating
/// garbage the policy allowed to accumulate. Each scenario runs under its
/// own suggested trigger/constraint set (the scenarios differ in live
/// level by design). Pass null \p Record / \p Merged for a pure wall pass.
void runServerGridStage(unsigned Threads, BenchRecord *Record,
                        profiling::PhaseProfiler *Merged) {
  const std::vector<serverload::ServerScenario> &Scenarios =
      serverload::serverScenarios();
  const std::vector<std::string> &Policies = core::paperPolicyNames();

  PoolSelection Pool(Threads);
  std::vector<trace::Trace> Traces(Scenarios.size());
  parallelFor(
      Scenarios.size(),
      [&](size_t S) {
        Traces[S] = serverload::generateServerTrace(Scenarios[S]);
      },
      Pool.pool());

  struct Cell {
    sim::SimulationResult Result;
    SampleSet OvershootBytes;
    profiling::PhaseProfiler Profile;
  };
  std::vector<Cell> Cells(Scenarios.size() * Policies.size());
  parallelFor(
      Cells.size(),
      [&](size_t I) {
        size_t S = I / Policies.size();
        size_t P = I % Policies.size();
        const serverload::ServerScenario &Scenario = Scenarios[S];
        core::PolicyConfig PolicyConfig;
        PolicyConfig.TraceMaxBytes = Scenario.TraceMaxBytes;
        PolicyConfig.MemMaxBytes = Scenario.MemMaxBytes;
        sim::SimulatorConfig SimConfig;
        SimConfig.TriggerBytes = Scenario.TriggerBytes;
        SimConfig.ProgramSeconds = Scenario.ProgramSeconds;
        if (Merged) {
          Cells[I].Profile.setEnabled(true);
          SimConfig.Profiler = &Cells[I].Profile;
        }
        std::unique_ptr<core::BoundaryPolicy> Policy =
            core::createPolicy(Policies[P], PolicyConfig);
        Cells[I].Result = sim::simulate(Traces[S], *Policy, SimConfig);

        const std::vector<core::ScavengeRecord> &History =
            Cells[I].Result.History.records();
        std::vector<trace::AllocClock> Times;
        Times.reserve(History.size());
        for (const core::ScavengeRecord &R : History)
          Times.push_back(R.Time);
        std::vector<uint64_t> Live = trace::liveBytesAt(Traces[S], Times);
        for (size_t N = 0; N != History.size(); ++N) {
          uint64_t Mem = History[N].MemBeforeBytes;
          Cells[I].OvershootBytes.add(
              Mem > Live[N] ? static_cast<double>(Mem - Live[N]) : 0.0);
        }
      },
      Pool.pool());

  if (!Record)
    return;
  for (size_t I = 0; I != Cells.size(); ++I) {
    size_t S = I / Policies.size();
    size_t P = I % Policies.size();
    const sim::SimulationResult &R = Cells[I].Result;
    std::string Prefix =
        "server/" + Scenarios[S].Name + "/" + Policies[P] + "/";
    Record->addExact(Prefix + "pause_p50_ms", "ms", R.PauseMillis.median());
    Record->addExact(Prefix + "pause_p99_ms", "ms",
                     R.PauseMillis.quantile(0.99));
    Record->addExact(Prefix + "pause_p999_ms", "ms",
                     R.PauseMillis.quantile(0.999));
    Record->addExact(Prefix + "mem_overshoot_p50_bytes", "bytes",
                     Cells[I].OvershootBytes.median());
    Record->addExact(Prefix + "mem_overshoot_p99_bytes", "bytes",
                     Cells[I].OvershootBytes.quantile(0.99));
    Record->addExact(Prefix + "mem_overshoot_p999_bytes", "bytes",
                     Cells[I].OvershootBytes.quantile(0.999));
    Record->addExact(Prefix + "mem_max_bytes", "bytes",
                     static_cast<double>(R.MemMaxBytes));
    Record->addExact(Prefix + "traced_bytes", "bytes",
                     static_cast<double>(R.TotalTracedBytes));
    Record->addExact(Prefix + "num_scavenges", "count",
                     static_cast<double>(R.NumScavenges));
    if (Merged)
      Merged->mergeFrom(Cells[I].Profile);
  }
}

/// Scale parameters for the managed-runtime stage.
struct RuntimeScale {
  uint64_t TotalBytes;
  uint64_t TriggerBytes;
  uint64_t TraceMaxBytes;
  uint64_t MemMaxBytes;
};

constexpr RuntimeScale QuickRuntime = {400'000, 20'000, 5'000, 60'000};
/// runtime_end_to_end's defaults: ~GHOST(1) at 1/10 scale.
constexpr RuntimeScale FullRuntime = {5'000'000, 100'000, 12'000, 300'000};

/// One GhostMutator run per policy on the real runtime; serial, so the
/// record and profile are deterministic by construction. \p Profiled
/// controls whether heap profilers record (off for pure wall repeats).
///
/// When \p Record is set, every policy also runs a second, budget-sliced
/// pass on \p TraceLanes lanes (ScavengeBudgetBytes = Scale.TraceMaxBytes)
/// whose exported scavenge stream must match the monolithic serial run
/// bit for bit — the driver fatals otherwise, so any determinism breach
/// in the parallel or incremental trace fails the bench rather than
/// shifting numbers silently. The budgeted pass contributes the
/// trace_quanta / max_quantum_traced_bytes metrics from one final
/// full-heap collection, bound-checked against the budget.
void runRuntimePolicies(const RuntimeScale &Scale, unsigned TraceLanes,
                        BenchRecord *Record,
                        profiling::PhaseProfiler *Merged) {
  core::PolicyConfig PolicyConfig;
  PolicyConfig.TraceMaxBytes = Scale.TraceMaxBytes;
  PolicyConfig.MemMaxBytes = Scale.MemMaxBytes;

  // Degradation-ladder accounting across every heap the stage runs
  // (monolithic and budgeted passes alike). A clean bench run must not
  // take a single rung — the exported runtime/degradation/* exact
  // metrics let bench_compare gate that at zero against the baseline.
  std::array<uint64_t, runtime::NumDegradationKinds> DegradationByKind{};
  uint64_t DegradationTotal = 0;
  auto AccumulateDegradation = [&](const runtime::Heap &Heap) {
    DegradationTotal += Heap.totalDegradationEvents();
    for (unsigned Kind = 0; Kind != runtime::NumDegradationKinds; ++Kind)
      DegradationByKind[Kind] += Heap.degradationEventsOfKind(
          static_cast<runtime::DegradationKind>(Kind));
  };

  for (const std::string &Name : core::paperPolicyNames()) {
    runtime::HeapConfig Config;
    Config.TriggerBytes = Scale.TriggerBytes;
    runtime::Heap H(Config);
    H.setPolicy(core::createPolicy(Name, PolicyConfig));
    if (Merged)
      H.profiler().setEnabled(true);

    runtime::HandleScope Scope(H);
    GhostMutator Mutator(H, Scope, /*Seed=*/0x61057);
    Mutator.run(Scale.TotalBytes);

    if (Record) {
      RunningStats MemBefore;
      SampleSet PauseBytes;
      uint64_t Traced = 0;
      for (const core::ScavengeRecord &R : H.history().records()) {
        MemBefore.add(static_cast<double>(R.MemBeforeBytes));
        PauseBytes.add(static_cast<double>(R.TracedBytes));
        Traced += R.TracedBytes;
      }
      std::string Prefix = "runtime/" + Name + "/";
      Record->addExact(Prefix + "num_collections", "count",
                       static_cast<double>(H.history().size()));
      Record->addExact(Prefix + "mem_before_mean_bytes", "bytes",
                       MemBefore.mean());
      Record->addExact(Prefix + "mem_before_max_bytes", "bytes",
                       MemBefore.max());
      Record->addExact(Prefix + "traced_bytes", "bytes",
                       static_cast<double>(Traced));
      Record->addExact(Prefix + "pause_p50_traced_bytes", "bytes",
                       PauseBytes.median());
      Record->addExact(Prefix + "pause_p99_traced_bytes", "bytes",
                       PauseBytes.quantile(0.99));
      Record->addExact(Prefix + "pause_p999_traced_bytes", "bytes",
                       PauseBytes.quantile(0.999));

      // Budget-sliced parallel re-run: same mutator, trace cut into
      // ScavengeBudgetBytes quanta across TraceLanes lanes.
      runtime::HeapConfig BudgetConfig;
      BudgetConfig.TriggerBytes = Scale.TriggerBytes;
      BudgetConfig.TraceThreads = TraceLanes;
      BudgetConfig.ScavengeBudgetBytes = Scale.TraceMaxBytes;
      runtime::Heap B(BudgetConfig);
      B.setPolicy(core::createPolicy(Name, PolicyConfig));
      runtime::HandleScope BudgetScope(B);
      GhostMutator BudgetMutator(B, BudgetScope, /*Seed=*/0x61057);
      BudgetMutator.run(Scale.TotalBytes);

      if (B.history().size() != H.history().size())
        fatalError("budgeted runtime pass diverges: " +
                   std::to_string(B.history().size()) + " vs " +
                   std::to_string(H.history().size()) + " scavenges (" +
                   Name + ")");
      for (uint64_t I = 1; I <= H.history().size(); ++I) {
        const core::ScavengeRecord &A = H.history().record(I);
        const core::ScavengeRecord &C = B.history().record(I);
        if (A.Time != C.Time || A.Boundary != C.Boundary ||
            A.TracedBytes != C.TracedBytes ||
            A.MemBeforeBytes != C.MemBeforeBytes ||
            A.SurvivedBytes != C.SurvivedBytes ||
            A.ReclaimedBytes != C.ReclaimedBytes)
          fatalError("budgeted runtime pass diverges from the monolithic "
                     "trace at scavenge " + std::to_string(I) + " (" + Name +
                     ")");
      }

      // One final full-heap collection under the budget gives the
      // per-quantum pause bound the incremental trace guarantees: no
      // quantum may overshoot the budget by more than one object.
      B.collectAtBoundary(0);
      const runtime::CollectionStats &S = B.lastCollectionStats();
      if (S.MaxQuantumTracedBytes >
          Scale.TraceMaxBytes + GhostMutator::MaxObjectGrossBytes)
        fatalError("trace quantum overshot the budget by more than one "
                   "object (" + Name + ")");
      Record->addExact(Prefix + "trace_quanta", "count",
                       static_cast<double>(S.TraceQuanta));
      Record->addExact(Prefix + "max_quantum_traced_bytes", "bytes",
                       static_cast<double>(S.MaxQuantumTracedBytes));
      AccumulateDegradation(B);
    }
    AccumulateDegradation(H);
    if (Merged)
      Merged->mergeFrom(H.profiler());
  }

  if (Record) {
    for (unsigned Kind = 0; Kind != runtime::NumDegradationKinds; ++Kind)
      Record->addExact(std::string("runtime/degradation/") +
                           runtime::degradationKindName(
                               static_cast<runtime::DegradationKind>(Kind)),
                       "count", static_cast<double>(DegradationByKind[Kind]));
    Record->addExact("runtime/degradation/total", "count",
                     static_cast<double>(DegradationTotal));
  }
}

//===----------------------------------------------------------------------===//
// Mutator-observability stage (TTSP + per-mutator counters)
//===----------------------------------------------------------------------===//

/// Drives four registered MutatorContexts round-robin from ONE thread
/// with a fixed-seed LCG workload (rooted allocation chains,
/// forward-in-time stores, parks across a neighbour's bursts, explicit
/// safepoint polls), so every rendezvous the trigger rule fires — and
/// with it every TTSP sample, straggler attribution, and per-mutator
/// counter — is deterministic by construction. The stage never touches
/// the thread pool: the concurrency machinery (Dekker handshake,
/// publication, barrier flush) runs for real, but on one thread, so the
/// exported exact metrics are bit-identical across --threads settings
/// and machines, and bench_compare gates them against the baseline.
void runMutatorObservabilityStage(BenchRecord &Record) {
  constexpr size_t NumContexts = 4;
  constexpr uint64_t Steps = 6'000;

  runtime::HeapConfig Config;
  Config.TriggerBytes = 24'000;
  runtime::Heap H(Config);
  core::PolicyConfig PolicyConfig;
  PolicyConfig.TraceMaxBytes = QuickRuntime.TraceMaxBytes;
  PolicyConfig.MemMaxBytes = QuickRuntime.MemMaxBytes;
  H.setPolicy(core::createPolicy("dtbfm", PolicyConfig));
  std::array<std::unique_ptr<runtime::MutatorContext>, NumContexts> Ctxs;
  for (auto &C : Ctxs)
    C = std::make_unique<runtime::MutatorContext>(H);

  uint64_t Lcg = 0x0B5E7B111ull;
  auto Next = [&Lcg] {
    Lcg = Lcg * 6364136223846793005ull + 1442695040888963407ull;
    return Lcg >> 33;
  };

  for (uint64_t Step = 0; Step != Steps; ++Step) {
    runtime::MutatorContext &Ctx = *Ctxs[Step % NumContexts];
    uint64_t Roll = Next();
    if (Roll % 16 == 0) {
      // Park this context across a neighbour's allocation burst: if the
      // burst trips the trigger, the rendezvous sees a genuinely parked
      // context and the straggler tallies exercise that classification.
      Ctx.park();
      runtime::MutatorContext &Other = *Ctxs[(Step + 1) % NumContexts];
      for (int I = 0; I != 4; ++I)
        Other.allocate(1, 32);
      Ctx.unpark();
      continue;
    }
    uint32_t Slots = 1 + static_cast<uint32_t>(Roll % 3);
    uint32_t Raw = static_cast<uint32_t>((Roll >> 8) % 96);
    size_t RootIndex = Ctx.allocateRooted(Slots, Raw);
    if (RootIndex != 0)
      // Forward-in-time store (old root -> the new, younger object):
      // the buffered write barrier's bread and butter.
      Ctx.writeSlot(Ctx.root(RootIndex - 1), 0, Ctx.root(RootIndex));
    Ctx.allocate(0, 8 + static_cast<uint32_t>(Roll % 48)); // Garbage.
    if (Roll % 7 == 0)
      Ctx.safepoint();
    if (Ctx.numRoots() > 256)
      Ctx.truncateRoots(16);
  }
  // Final explicit collection: publishes the tail bursts and leaves the
  // heap's last-rendezvous record covering a full 4-context stop.
  H.collectAtBoundary(0);

  Record.addExact("runtime.safepoint.rendezvous", "count",
                  static_cast<double>(H.lastSafepointRendezvous().Serial));
#if DTB_TELEMETRY
  const runtime::SafepointTtspStats &Ttsp = H.safepointTtspStats();
  Record.addExact("runtime.safepoint.ttsp_p50", "ms",
                  Ttsp.TtspMillis.quantile(0.5));
  Record.addExact("runtime.safepoint.ttsp_p99", "ms",
                  Ttsp.TtspMillis.quantile(0.99));
  Record.addExact("runtime.safepoint.pending_bytes_p99", "bytes",
                  Ttsp.PendingBytes.quantile(0.99));
  Record.addExact("runtime.safepoint.straggler_midop", "count",
                  static_cast<double>(Ttsp.StragglerMidOp));
  Record.addExact("runtime.safepoint.straggler_parked", "count",
                  static_cast<double>(Ttsp.StragglerParked));
  Record.addExact("runtime.safepoint.straggler_polling", "count",
                  static_cast<double>(Ttsp.StragglerPolling));
#endif
  for (size_t I = 0; I != NumContexts; ++I) {
    const runtime::MutatorContext::Stats &S = Ctxs[I]->stats();
    std::string Prefix =
        "runtime/mutator/" + std::to_string(Ctxs[I]->id()) + "/";
    Record.addExact(Prefix + "allocations", "count",
                    static_cast<double>(S.Allocations));
    Record.addExact(Prefix + "alloc_bytes", "bytes",
                    static_cast<double>(S.AllocatedBytes));
    Record.addExact(Prefix + "tlab_refills", "count",
                    static_cast<double>(S.TlabRefills));
    Record.addExact(Prefix + "barrier_flushes", "count",
                    static_cast<double>(S.BarrierFlushes));
#if DTB_TELEMETRY
    Record.addExact(Prefix + "tlab_waste_bytes", "bytes",
                    static_cast<double>(S.Obs.TlabWastedBytes));
    Record.addExact(Prefix + "barrier_high_water", "count",
                    static_cast<double>(S.Obs.BarrierHighWater));
    Record.addExact(Prefix + "safepoint_polls", "count",
                    static_cast<double>(S.Obs.SafepointPolls));
    Record.addExact(Prefix + "parks", "count",
                    static_cast<double>(S.Obs.Parks));
#endif
  }
}

//===----------------------------------------------------------------------===//
// Trace-speedup stage (parallel scavenge wall measurement)
//===----------------------------------------------------------------------===//

/// Builds a wide survivor-heavy heap: \p Chains handle-rooted linked
/// chains of \p Depth nodes each, so every trace round carries ~Chains
/// gray objects and the lanes have real work to steal.
void buildTraceGraph(runtime::Heap &H, runtime::HandleScope &Scope,
                     size_t Chains, size_t Depth) {
  for (size_t C = 0; C != Chains; ++C) {
    runtime::Object *&Head = Scope.slot(nullptr);
    for (size_t D = 0; D != Depth; ++D) {
      runtime::Object *Node = H.allocate(1, 64);
      H.writeSlot(Node, 0, Head);
      Head = Node;
    }
  }
}

/// Wall-times repeated full-heap scavenges of the same survivor graph at
/// one lane vs. \p Lanes lanes and records the paired speedup ratio (the
/// CI smoke gate checks it on multi-core runners). The two heaps' scavenge
/// streams must agree exactly — the parallel trace is deterministic — so
/// a divergence is fatal, not noise.
void runTraceSpeedupStage(const BenchDriverOptions &Options, unsigned Lanes,
                          BenchRecord &Record) {
  constexpr size_t Chains = 2'048;
  constexpr size_t Depth = 128;

  runtime::HeapConfig SerialConfig;
  SerialConfig.TriggerBytes = 0; // Collections driven manually.
  SerialConfig.TraceThreads = 1;
  runtime::HeapConfig ParallelConfig = SerialConfig;
  ParallelConfig.TraceThreads = Lanes;
  runtime::Heap Serial(SerialConfig), Parallel(ParallelConfig);
  runtime::HandleScope SerialScope(Serial), ParallelScope(Parallel);
  buildTraceGraph(Serial, SerialScope, Chains, Depth);
  buildTraceGraph(Parallel, ParallelScope, Chains, Depth);

  std::vector<double> SerialSec =
      measureWall(Options, [&] { Serial.collectAtBoundary(0); });
  std::vector<double> ParallelSec =
      measureWall(Options, [&] { Parallel.collectAtBoundary(0); });

  const core::ScavengeRecord &A = Serial.history().last();
  const core::ScavengeRecord &B = Parallel.history().last();
  if (A.TracedBytes != B.TracedBytes || A.SurvivedBytes != B.SurvivedBytes ||
      A.ReclaimedBytes != B.ReclaimedBytes)
    fatalError("trace-speedup heaps diverge between 1 lane and " +
               std::to_string(Lanes) + " lanes");

  std::vector<double> Speedup;
  for (size_t I = 0; I != SerialSec.size() && I != ParallelSec.size(); ++I)
    Speedup.push_back(ParallelSec[I] > 0.0 ? SerialSec[I] / ParallelSec[I]
                                           : 0.0);
  Record.addWall("wall/runtime/trace_serial_seconds", "seconds", SerialSec);
  Record.addWall("wall/runtime/trace_parallel_seconds", "seconds",
                 ParallelSec);
  Record.addWall("wall/runtime/trace_speedup", "ratio", Speedup,
                 /*LowerIsBetter=*/false);
}

//===----------------------------------------------------------------------===//
// Timing stage
//===----------------------------------------------------------------------===//

/// The parallel-engine and indexed-heap-query speedups. Speedups are
/// recorded per repeat (paired ratio), so their MAD reflects the
/// run-to-run noise of the ratio itself.
void runTimingStage(const BenchDriverOptions &Options, unsigned Lanes,
                    BenchRecord &Record) {
  // Grid: parallel vs. forced-serial paper grid.
  if (Options.IncludeWall) {
    ExperimentConfig GridConfig;
    std::vector<double> ParallelSec = measureWall(Options, [&] {
      GridConfig.Threads = Lanes;
      ExperimentGrid::paperGrid(GridConfig);
    });
    std::vector<double> SerialSec = measureWall(Options, [&] {
      GridConfig.Threads = 1;
      ExperimentGrid::paperGrid(GridConfig);
    });
    std::vector<double> Speedup;
    for (size_t I = 0; I != ParallelSec.size() && I != SerialSec.size(); ++I)
      Speedup.push_back(ParallelSec[I] > 0.0 ? SerialSec[I] / ParallelSec[I]
                                             : 0.0);
    Record.addWall("wall/timing/grid_serial_seconds", "seconds", SerialSec);
    Record.addWall("wall/timing/grid_parallel_seconds", "seconds",
                   ParallelSec);
    Record.addWall("wall/timing/grid_speedup", "ratio", Speedup,
                   /*LowerIsBetter=*/false);
  }

  // Heap queries: the largest paper workload under the oracle memory-first
  // boundary search, indexed vs. retained naive scans. A budget just above
  // the mean live size binds at every scavenge, so the binary search (the
  // code being measured) actually runs.
  const workload::WorkloadSpec *Largest = nullptr;
  for (const workload::WorkloadSpec &Spec : workload::paperWorkloads())
    if (!Largest || Spec.TotalAllocationBytes > Largest->TotalAllocationBytes)
      Largest = &Spec;
  trace::Trace T = workload::generateTrace(*Largest);
  trace::TraceStats Stats = trace::computeTraceStats(T);
  auto MemBudget = static_cast<uint64_t>(Stats.LiveMeanBytes * 1.2);
  core::OptimalMemoryPolicy MemFirst(MemBudget);

  sim::SimulatorConfig SimConfig;
  SimConfig.ProgramSeconds = Largest->ProgramSeconds;

  // One deterministic run of each query mode: the consistency check and
  // the exact metrics.
  sim::SimulationResult Indexed = sim::simulate(T, MemFirst, SimConfig);
  SimConfig.UseNaiveHeapQueries = true;
  sim::SimulationResult Scanned = sim::simulate(T, MemFirst, SimConfig);
  SimConfig.UseNaiveHeapQueries = false;
  if (Indexed.TotalTracedBytes != Scanned.TotalTracedBytes ||
      Indexed.NumScavenges != Scanned.NumScavenges)
    fatalError("indexed and scan heap-query runs disagree");

  Record.addExact("timing/heap_queries/mem_budget_bytes", "bytes",
                  static_cast<double>(MemBudget));
  Record.addExact("timing/heap_queries/num_scavenges", "count",
                  static_cast<double>(Indexed.NumScavenges));
  Record.addExact("timing/heap_queries/traced_bytes", "bytes",
                  static_cast<double>(Indexed.TotalTracedBytes));

  if (Options.IncludeWall) {
    std::vector<double> IndexedSec = measureWall(Options, [&] {
      sim::simulate(T, MemFirst, SimConfig);
    });
    sim::SimulatorConfig ScanConfig = SimConfig;
    ScanConfig.UseNaiveHeapQueries = true;
    std::vector<double> ScanSec = measureWall(Options, [&] {
      sim::simulate(T, MemFirst, ScanConfig);
    });
    std::vector<double> Speedup;
    for (size_t I = 0; I != IndexedSec.size() && I != ScanSec.size(); ++I)
      Speedup.push_back(IndexedSec[I] > 0.0 ? ScanSec[I] / IndexedSec[I]
                                            : 0.0);
    Record.addWall("wall/timing/heap_queries_scan_seconds", "seconds",
                   ScanSec);
    Record.addWall("wall/timing/heap_queries_indexed_seconds", "seconds",
                   IndexedSec);
    Record.addWall("wall/timing/heap_queries_speedup", "ratio", Speedup,
                   /*LowerIsBetter=*/false);
  }
}

} // namespace

const std::vector<std::string> &dtb::report::benchSuiteNames() {
  static const std::vector<std::string> Names = {"quick", "paper", "runtime",
                                                 "timing", "server"};
  return Names;
}

BenchSuiteResult dtb::report::runBenchSuite(const BenchDriverOptions &Options) {
  BenchSuiteResult Result;
  BenchRecord &Record = Result.Record;
  Record.Suite = Options.Suite;
  unsigned Lanes = Options.Threads ? Options.Threads : defaultThreadCount();
  unsigned TraceLanes = Options.TraceLanes ? Options.TraceLanes : Lanes;

  if (Options.IncludeEnv) {
    Record.HasEnv = true;
    Record.GitSha = captureLine("git rev-parse HEAD 2>/dev/null");
    if (Record.GitSha.empty())
      Record.GitSha = "unknown";
    Record.BuildFlags = buildFlagsString();
    Record.Threads = Lanes;
    Record.TraceLanes = TraceLanes;
  }

  if (Options.Suite == "quick") {
    profiling::PhaseProfiler &Sim = Result.Profiles["sim"];
    profiling::PhaseProfiler &Runtime = Result.Profiles["runtime"];
    runSimGridStage(quickWorkloads(), quickGridConfig(Options.Threads),
                    Record, Sim);
    runRuntimePolicies(QuickRuntime, TraceLanes, &Record, &Runtime);
    runMutatorObservabilityStage(Record);
    if (Options.IncludeWall) {
      Record.addWall("wall/quick/sim_grid_seconds", "seconds",
                     measureWall(Options, [&] {
                       ExperimentGrid(quickWorkloads(),
                                      core::paperPolicyNames(),
                                      quickGridConfig(Options.Threads));
                     }));
      Record.addWall("wall/quick/runtime_seconds", "seconds",
                     measureWall(Options, [&] {
                       runRuntimePolicies(QuickRuntime, 1, nullptr, nullptr);
                     }));
    }
    addProfileToRecord(Sim, "sim", Record);
    addProfileToRecord(Runtime, "runtime", Record);
  } else if (Options.Suite == "paper") {
    profiling::PhaseProfiler &Sim = Result.Profiles["sim"];
    profiling::PhaseProfiler &Runtime = Result.Profiles["runtime"];
    ExperimentConfig Config;
    Config.Threads = Options.Threads;
    runSimGridStage(workload::paperWorkloads(), Config, Record, Sim);
    runRuntimePolicies(FullRuntime, TraceLanes, &Record, &Runtime);
    if (Options.IncludeWall)
      Record.addWall("wall/paper/sim_grid_seconds", "seconds",
                     measureWall(Options, [&] {
                       ExperimentConfig WallConfig;
                       WallConfig.Threads = Options.Threads;
                       ExperimentGrid::paperGrid(WallConfig);
                     }));
    addProfileToRecord(Sim, "sim", Record);
    addProfileToRecord(Runtime, "runtime", Record);
  } else if (Options.Suite == "runtime") {
    profiling::PhaseProfiler &Runtime = Result.Profiles["runtime"];
    runRuntimePolicies(FullRuntime, TraceLanes, &Record, &Runtime);
    runMutatorObservabilityStage(Record);
    if (Options.IncludeWall) {
      Record.addWall("wall/runtime/policies_seconds", "seconds",
                     measureWall(Options, [&] {
                       runRuntimePolicies(FullRuntime, 1, nullptr, nullptr);
                     }));
      runTraceSpeedupStage(Options, TraceLanes, Record);
    }
    addProfileToRecord(Runtime, "runtime", Record);
  } else if (Options.Suite == "timing") {
    runTimingStage(Options, Lanes, Record);
  } else if (Options.Suite == "server") {
    profiling::PhaseProfiler &Sim = Result.Profiles["sim"];
    runServerGridStage(Options.Threads, &Record, &Sim);
    runMutatorObservabilityStage(Record);
    if (Options.IncludeWall)
      Record.addWall("wall/server/sim_grid_seconds", "seconds",
                     measureWall(Options, [&] {
                       runServerGridStage(Options.Threads, nullptr, nullptr);
                     }));
    addProfileToRecord(Sim, "sim", Record);
  } else {
    fatalError("unknown bench suite '" + Options.Suite +
               "' (expected quick, paper, runtime, timing, or server)");
  }
  return Result;
}
