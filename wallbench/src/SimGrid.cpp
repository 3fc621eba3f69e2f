//===- wallbench/src/SimGrid.cpp - The `sim-grid` workload ---------------===//
//
// Part of the dtbgc project (Barrett & Zorn DTB reproduction).
//
// sim::simulate over four paper workloads (GHOST, ESPRESSO, SIS, CFRAC:
// the first configuration of each program) x the six paper policies under
// the paper's constraints (1 MB trigger, Trace_max 50 KB, Mem_max 3 MB),
// serially, cell after cell, pass after pass. No runtime code runs, so this
// is the workload that loads sim/HeapModel/core.
//
// A simulated scavenge's wall time (from the policy decision to the
// scavenge observer) stands in for a pause; the grid's trace MB over the
// sum of its cells' fastest wall times is the simulator's throughput (and,
// the trace being the allocation clock, alloc_mb_per_s). Every pass must
// reproduce the first pass's scavenge count and traced bytes cell for cell,
// and after the timed phase one cell, chosen by the seed, is re-simulated
// with the naive heap queries and must match exactly.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "workload/Workload.h"

#include <algorithm>
#include <cmath>
#include <map>

namespace wallbench {
namespace {

const char *const Programs[] = {"ghost1", "espresso1", "sis", "cfrac"};

struct CellResult {
  uint64_t Scavenges = 0;
  uint64_t TracedBytes = 0;
};

class SimGrid final : public Workload {
public:
  explicit SimGrid(const Options &Opts) : Opts(Opts) {
    Paper.TraceMaxBytes = 50'000;
    Paper.MemMaxBytes = 3'000'000;
    for (const std::string &Name : core::paperPolicyNames())
      Policies.push_back(makeTimedPolicy(Name, Paper));
  }

  void setup() override {
    Traces.clear();
    uint64_t Start = nowNs();
    for (const char *Name : Programs) {
      workload::WorkloadSpec Spec = *workload::findWorkload(Name);
      Spec.Seed = stampFor(Opts.Seed, Spec.Seed);
      uint64_t GenStart = nowNs();
      Traces.push_back(workload::generateTrace(Spec));
      if (SetupSpans)
        SetupSpans->add("generateTrace", GenStart, nowNs());
    }
    GenerateSeconds = secondsBetween(Start, nowNs());
    Expected.clear();
  }

  double timed(double Seconds, SpanLog *Spans, Report &Rep) override;

  void check(Report &Rep) override {
    // Re-simulate one cell with the naive (scan) heap queries, outside the
    // timed phase: the indexed and naive models must agree exactly.
    size_t Cell = static_cast<size_t>(Opts.Seed % Expected.size());
    size_t W = Cell / Policies.size(), P = Cell % Policies.size();
    sim::SimulatorConfig Config = config();
    Config.UseNaiveHeapQueries = true;
    sim::SimulationResult R = sim::simulate(Traces[W], *Policies[P], Config);
    const CellResult &E = Expected[Cell];
    Rep.note("naive re-simulation of " + std::string(Programs[W]) + " x " +
             Policies[P]->name() + ": " + std::to_string(R.NumScavenges) +
             " scavenges, " + std::to_string(R.TotalTracedBytes) +
             " bytes traced");
    if (R.NumScavenges != E.Scavenges + ExpectedSkew ||
        R.TotalTracedBytes != E.TracedBytes)
      Rep.fail("naive re-simulation of cell " + std::to_string(Cell) +
               " disagrees with the indexed model");
  }

  /// Claims one scavenge more than the cells produce.
  bool skewExpectedCount() override {
    ExpectedSkew = 1;
    return true;
  }

private:
  sim::SimulatorConfig config() const {
    sim::SimulatorConfig Config;
    Config.TriggerBytes = 1'000'000;
    return Config;
  }

  Options Opts;
  core::PolicyConfig Paper;
  std::vector<std::unique_ptr<TimedPolicy>> Policies;
  std::vector<trace::Trace> Traces;
  double GenerateSeconds = 0.0;
  /// Per-cell results of the first pass (cell = workload * 6 + policy).
  std::vector<CellResult> Expected;
  uint64_t ExpectedSkew = 0;
};

double SimGrid::timed(double Seconds, SpanLog *Spans, Report &Rep) {
  const bool Traced = Spans != nullptr;
  SpanLog::Buffer *Buf = Traced ? &Spans->buffer(0) : nullptr;
  for (auto &P : Policies)
    P->clearSamples();

  const size_t GridCells = Traces.size() * Policies.size();
  std::vector<PauseSample> Pauses;
  // Every pass repeats the same scavenges, so the wall times of one
  // scavenge are kept together: ScavengeUs[cell][index - 1].
  std::vector<std::vector<std::vector<double>>> ScavengeUs(GridCells);
  size_t Cell = 0;
  uint64_t MemPeak = 0;
  sim::SimulatorConfig Config = config();
  Config.OnScavenge = [&](const sim::ScavengeObservation &Obs) {
    uint64_t T = nowNs();
    double Us =
        static_cast<double>(T - TimedPolicy::lastStartNsOnThisThread()) * 1e-3;
    Pauses.push_back({T, Us});
    std::vector<std::vector<double>> &Of = ScavengeUs[Cell];
    if (Of.size() < Obs.Record.Index)
      Of.resize(Obs.Record.Index);
    Of[Obs.Record.Index - 1].push_back(Us);
    MemPeak = std::max(MemPeak, Obs.Record.MemBeforeBytes);
  };
  profiling::PhaseProfiler Profiler;
  if (Traced) {
    Profiler.setEnabled(true);
    Config.Profiler = &Profiler;
  }

  std::map<std::string, std::pair<double, double>> PolicyMbAndSeconds;
  std::vector<double> PassRates;
  std::vector<double> FastestCellSeconds(GridCells, HUGE_VAL);
  uint64_t Cells = 0, Mismatches = 0;
  double SimBytes = 0.0, SimBytesMid = 0.0;

  CpuRotation Rotation;
  const uint64_t Start = nowNs();
  const uint64_t End = Start + static_cast<uint64_t>(Seconds * 1e9);
  const uint64_t Mid = Start + (End - Start) / 2;
  uint64_t Now = Start;
  while (Now < End) {
    uint64_t PassStart = Now;
    double PassBytes = 0.0;
    for (Cell = 0; Cell != GridCells && Now < End; ++Cell) {
      const trace::Trace &T = Traces[Cell / Policies.size()];
      TimedPolicy &P = *Policies[Cell % Policies.size()];
      Rotation.tick(Now);
      uint64_t CellStart = nowNs();
      sim::SimulationResult R = sim::simulate(T, P, Config);
      Now = nowNs();
      if (Buf)
        Buf->add("simulate", CellStart, Now);
      double Bytes = static_cast<double>(T.totalAllocated());
      double CellSeconds = secondsBetween(CellStart, Now);
      auto &[Mb, Sec] = PolicyMbAndSeconds[P.name()];
      Mb += Bytes / MB;
      Sec += CellSeconds;
      FastestCellSeconds[Cell] = std::min(FastestCellSeconds[Cell], CellSeconds);
      PassBytes += Bytes;
      SimBytes += Bytes;
      if (Now < Mid)
        SimBytesMid = SimBytes;
      Cells += 1;
      // The first time a cell runs it sets the expectation every later
      // pass must reproduce.
      CellResult Got{R.NumScavenges, R.TotalTracedBytes};
      if (Cell == Expected.size())
        Expected.push_back(Got);
      else if (Got.Scavenges != Expected[Cell].Scavenges ||
               Got.TracedBytes != Expected[Cell].TracedBytes)
        Mismatches += 1;
    }
    if (Cell == GridCells)
      PassRates.push_back(PassBytes / MB / secondsBetween(PassStart, Now));
  }
  if (PassRates.empty())
    Rep.fail("sim-grid finished no full pass; give it more seconds");

  Rep.Attempted += Cells;
  Rep.Failed += Mismatches;
  if (Mismatches)
    Rep.fail(std::to_string(Mismatches) +
             " cells did not reproduce their first-pass result");

  if (!Traced) {
    // A scavenge's pause is the fastest of its repeats over the passes, and
    // the simulator's speed is the grid's trace MB over the sum of each
    // cell's fastest repeat: the host's busy spells slow some repeats, not
    // the work. A cell (~10 ms) finds a quiet spell where a whole pass
    // (~0.25 s) may not. On this workload the allocation clock is the
    // trace, so alloc_mb_per_s is the same figure.
    std::vector<double> Fastest;
    for (const auto &Of : ScavengeUs)
      for (const std::vector<double> &Us : Of)
        if (!Us.empty())
          Fastest.push_back(*std::min_element(Us.begin(), Us.end()));
    double GridBytes = 0.0, GridSeconds = 0.0;
    for (size_t C = 0; C != GridCells; ++C) {
      GridBytes += static_cast<double>(
          Traces[C / Policies.size()].totalAllocated());
      GridSeconds += FastestCellSeconds[C];
    }
    const double FastestMbPerS =
        PassRates.empty() ? 0.0 : GridBytes / MB / GridSeconds;
    Rep.add("alloc_mb_per_s", FastestMbPerS, "MB/s");
    Rep.add("sim_mb_per_s", FastestMbPerS, "MB/s");
    Rep.add("pause_p50_us", quantileOf(Fastest, 0.5), "us");
    Rep.add("pause_p99_us", quantileOf(Fastest, 0.99), "us");
    Rep.add("repeat.programs", static_cast<double>(PassRates.size()),
            "count");
    Rep.add("repeat.collections", static_cast<double>(Fastest.size()),
            "count");
    Rep.add("pause.samples", static_cast<double>(Pauses.size()), "count");
    Rep.add("heap_peak_mb", static_cast<double>(MemPeak) / MB, "MB");
    HalfRatios Halves =
        halfRatios(Start, Mid, Now, SimBytesMid, SimBytes - SimBytesMid,
                   Pauses);
    Rep.add("steady.alloc_half_ratio", Halves.Alloc, "ratio");
    Rep.add("steady.pause_half_ratio", Halves.PauseP50, "ratio");
    return quantileOf(PassRates, 0.5);
  }

  for (auto &[Name, MbSec] : PolicyMbAndSeconds)
    Rep.add("sim." + Name + ".mb_per_s", MbSec.first / MbSec.second, "MB/s");
  uint64_t Scavenges = 0, TracedBytes = 0;
  for (const CellResult &C : Expected) {
    Scavenges += C.Scavenges;
    TracedBytes += C.TracedBytes;
  }
  Rep.add("sim.scavenges", static_cast<double>(Scavenges), "count");
  Rep.add("sim.traced_mb", static_cast<double>(TracedBytes) / MB, "MB");
  SampleSet Decisions;
  for (auto &P : Policies)
    for (double V : P->decisionMicros().samples())
      Decisions.add(V);
  Rep.add("policy.decision_us_p50", Decisions.median(), "us");
  addPhaseMetrics(Rep, Profiler, Pauses.size());
  Rep.add("workload.generate_s", GenerateSeconds, "s");
  return quantileOf(PassRates, 0.5);
}

} // namespace

std::unique_ptr<Workload> makeSimGrid(const Options &Opts) {
  return std::make_unique<SimGrid>(Opts);
}

} // namespace wallbench
