//===- sim/Simulator.cpp --------------------------------------------------==//

#include "sim/Simulator.h"

#include "core/ScavengeReport.h"
#include "sim/Trigger.h"
#include "support/Error.h"
#include "telemetry/Telemetry.h"

#include <algorithm>
#include <cassert>

using namespace dtb;
using namespace dtb::sim;
using core::AllocClock;

namespace {

/// Oracle demographics for the policies: exact live bytes from the heap
/// model judged at the current clock.
class OracleDemographics final : public core::Demographics {
public:
  OracleDemographics(const HeapModel &Heap, const AllocClock &Now)
      : Heap(Heap), Now(Now) {}

  uint64_t liveBytesBornAfter(AllocClock Boundary) const override {
    return Heap.liveBytesBornAfter(Boundary, Now);
  }

  uint64_t residentBytesBornAfter(AllocClock Boundary) const override {
    return Heap.residentBytesBornAfter(Boundary);
  }

private:
  const HeapModel &Heap;
  const AllocClock &Now;
};

} // namespace

SimulationResult dtb::sim::simulate(const trace::Trace &T,
                                    core::BoundaryPolicy &Policy,
                                    const SimulatorConfig &Config) {
  if (Config.TriggerBytes == 0 && !Config.Trigger)
    fatalError("simulator trigger interval must be nonzero");

  Policy.reset();
  if (Config.Trigger)
    Config.Trigger->reset();

  SimulationResult Result;
  HeapModel Heap(Config.UseNaiveHeapQueries ? HeapModel::QueryMode::Scan
                                            : HeapModel::QueryMode::Indexed);
  Heap.setCrossCheck(Config.CrossCheckHeapQueries);
  // Pre-size the resident vector and the position-keyed indexes for a
  // typical between-scavenge resident set; they only ever need to hold
  // concurrent residents, not the whole trace, so cap well below the
  // record count to avoid over-committing on huge traces.
  Heap.reserve(std::min<size_t>(T.records().size(), size_t(1) << 16));
  AllocClock Now = 0;
  OracleDemographics Demo(Heap, Now);

  TimeWeightedStats Memory;
  Memory.setLevel(0, 0.0);

  AllocClock NextTrigger = Config.TriggerBytes;
  AllocClock NextCurveSample =
      Config.RecordMemoryCurve ? Config.CurveSampleBytes : 0;

  auto recordCurvePoint = [&](bool AfterScavenge) {
    if (Config.RecordMemoryCurve)
      Result.Curve.push_back({Now, Heap.residentBytes(), AfterScavenge});
  };

  const bool Telemetry =
      telemetry::enabled() && !Config.TelemetryTrack.empty();

  auto runScavenge = [&] {
    uint64_t Index = Result.History.size() + 1;
    core::BoundaryRequest Request;
    Request.Index = Index;
    Request.Now = Now;
    Request.MemBytes = Heap.residentBytes();
    Request.History = &Result.History;
    Request.Demo = &Demo;
    std::string Rule = "unspecified";
    std::string Note;
    if (Telemetry || Config.OnScavenge)
      Request.RuleFired = &Rule;
    if (Config.OnScavenge)
      Request.DegradationNote = &Note;
    Request.Profiler = Config.Profiler;
    core::BoundaryDecision Decision;
    // The decision explanation feeds the telemetry "tb" instant; the
    // extra demographic queries it costs are value-pure, so asking them
    // only when the instant will be emitted cannot change the run.
    if (Telemetry)
      Request.Decision = &Decision;

    AllocClock Boundary;
    {
      // Decision latency is wall time: it lands in the "wall." metrics
      // only, never the deterministic event stream.
      telemetry::TelemetrySpan Span("sim.policy_decision");
      profiling::ProfilePhase Phase(Config.Profiler,
                                    profiling::phase::PolicyDecision);
      Boundary = Policy.chooseBoundary(Request);
    }
    if (Boundary > Now)
      fatalError("policy chose a boundary in the future");

    // The heap is at a local maximum just before the scavenge.
    Memory.setLevel(Now, static_cast<double>(Heap.residentBytes()));
    recordCurvePoint(/*AfterScavenge=*/false);

    ScavengeOutcome Outcome = Heap.scavenge(Now, Boundary);

    // The heap model scavenges atomically, so the trace and sweep phases
    // are attributed from the outcome figures (bytes traced, bytes
    // reclaimed) — the same cost units the runtime collector bills from
    // inside its loops.
    if (Config.Profiler && Config.Profiler->active()) {
      {
        profiling::ProfilePhase Phase(Config.Profiler,
                                      profiling::phase::Trace);
        Phase.addCost(Outcome.TracedBytes);
      }
      {
        profiling::ProfilePhase Phase(Config.Profiler,
                                      profiling::phase::Sweep);
        Phase.addCost(Outcome.ReclaimedBytes);
      }
      Config.Profiler->finishScavenge();
    }

    core::ScavengeRecord Record;
    Record.Index = Index;
    Record.Time = Now;
    Record.Boundary = Boundary;
    Record.TracedBytes = Outcome.TracedBytes;
    Record.MemBeforeBytes = Outcome.MemBeforeBytes;
    Record.SurvivedBytes = Outcome.SurvivedBytes;
    Record.ReclaimedBytes = Outcome.ReclaimedBytes;
    Result.History.append(Record);

    Result.TotalTracedBytes += Outcome.TracedBytes;
    double PauseMs =
        Config.Machine.pauseMillisForTracedBytes(Outcome.TracedBytes);
    Result.PauseMillis.add(PauseMs);

    Memory.setLevel(Now, static_cast<double>(Heap.residentBytes()));
    recordCurvePoint(/*AfterScavenge=*/true);

    if (Telemetry) {
      namespace tm = dtb::telemetry;
      // The span duration is the exact double added to PauseMillis above,
      // so exported quantiles match the Table 3 pipeline bit for bit.
      core::emitScavengeReport(Config.TelemetryTrack, Result.History.last(),
                               PauseMs, Rule, Decision);

      tm::Event Resident;
      Resident.Phase = tm::EventPhase::Counter;
      Resident.Track = Config.TelemetryTrack;
      Resident.Name = "resident_bytes";
      Resident.ScavengeIndex = Index;
      Resident.TsClock = Now;
      Resident.Args = {tm::arg("resident_bytes", Heap.residentBytes())};
      tm::recorder().emit(std::move(Resident));

      tm::MetricsRegistry &Registry = tm::MetricsRegistry::global();
      Registry.counter("sim.scavenge.count").add(1);
      Registry.counter("sim.scavenge.traced_bytes").add(Outcome.TracedBytes);
      Registry.counter("policy." + Policy.name() + ".rule." + Rule).add(1);
      Registry.histogram("sim.scavenge.pause_ms").record(PauseMs);
    }

    if (Config.OnScavenge) {
      ScavengeObservation Obs{Result.History.last(), Rule, Note, Heap,
                              PauseMs};
      Config.OnScavenge(Obs);
    }
  };

  for (const trace::AllocationRecord &R : T.records()) {
    Now = R.Birth;
    Heap.addObject(R.Birth, R.Size, R.Death);
    Memory.setLevel(Now, static_cast<double>(Heap.residentBytes()));

    if (Config.RecordMemoryCurve && Now >= NextCurveSample) {
      recordCurvePoint(/*AfterScavenge=*/false);
      while (NextCurveSample <= Now)
        NextCurveSample += Config.CurveSampleBytes;
    }

    if (Config.Trigger) {
      // Pluggable when-to-collect policy (sim/Trigger.h).
      TriggerContext Context;
      Context.Now = Now;
      Context.BytesSinceLastScavenge =
          Now - (Result.History.empty() ? 0 : Result.History.last().Time);
      Context.ResidentBytes = Heap.residentBytes();
      Context.LastSurvivedBytes =
          Result.History.empty() ? 0 : Result.History.last().SurvivedBytes;
      Context.NumScavenges = Result.History.size();
      if (Config.Trigger->shouldScavenge(Context))
        runScavenge();
    } else if (Now >= NextTrigger) {
      // The paper's trigger: a scavenge once every TriggerBytes of
      // allocation. A single huge allocation can cross several trigger
      // points but still causes one scavenge, matching "triggered after
      // every 1 MB of allocation".
      runScavenge();
      while (NextTrigger <= Now)
        NextTrigger += Config.TriggerBytes;
    }
  }

  Memory.finish(T.totalAllocated());

  Result.MemMeanBytes = Memory.mean();
  Result.MemMaxBytes = static_cast<uint64_t>(Memory.max());
  Result.NumScavenges = Result.History.size();
  Result.CpuOverheadPercent = Config.Machine.cpuOverheadPercent(
      Result.TotalTracedBytes, Config.ProgramSeconds);
  return Result;
}
