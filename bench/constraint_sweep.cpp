//===- bench/constraint_sweep.cpp - Constraint-tracking sweeps -----------===//
//
// Part of the dtbgc project (Barrett & Zorn DTB reproduction).
//
// The paper's central claim is that the two tuning knobs map *directly*
// onto user-visible resource constraints. This bench quantifies that
// beyond the single published operating point (100 ms / 3000 KB):
//
//   * sweep Trace_max and report DTBFM's (and FEEDMED's) median pause —
//     the median should track the constraint;
//   * sweep Mem_max and report DTBMEM's maximum memory — the maximum
//     should hug the constraint until it crosses the live floor, then
//     saturate at FULL's requirement.
//
//===----------------------------------------------------------------------===//

#include "ExperimentCli.h"

#include "report/Experiments.h"
#include "support/Table.h"
#include "support/ThreadPool.h"
#include "support/Units.h"

#include <cstdio>
#include <vector>

using namespace dtb;

int dtb::bench::runConstraintSweep(ExperimentCli &Cli) {
  std::string WorkloadName = "ghost1";
  Cli.Parser.addString("workload", "Workload name", &WorkloadName);
  if (!Cli.parse())
    return 1;

  const workload::WorkloadSpec *Spec = lookupWorkload(WorkloadName);
  if (!Spec)
    return 1;
  trace::Trace T = workload::generateTrace(*Spec);

  sim::SimulatorConfig SimConfig;
  SimConfig.ProgramSeconds = Spec->ProgramSeconds;
  core::MachineModel Machine;

  // --- Pause-constraint sweep -------------------------------------------
  // Every simulation below is independent, so both sweeps fan out over
  // the worker pool; results land in per-budget slots and the tables are
  // rendered serially afterwards, identical for any --threads value.
  std::printf("Pause-constraint sweep on %s (median should track the "
              "budget):\n\n",
              Spec->DisplayName.c_str());
  Table PauseTable({"Budget (ms)", "DTBFM median", "DTBFM 90th",
                    "DTBFM mem mean (KB)", "FEEDMED median",
                    "FEEDMED mem mean (KB)"});
  const std::vector<double> PauseBudgetsMs = {25.0,  50.0,  100.0,
                                              200.0, 400.0, 800.0};
  std::vector<sim::SimulationResult> FmResults(PauseBudgetsMs.size());
  std::vector<sim::SimulationResult> MedResults(PauseBudgetsMs.size());
  parallelFor(PauseBudgetsMs.size(), [&](size_t I) {
    uint64_t TraceMax = Machine.tracedBytesForPauseMillis(PauseBudgetsMs[I]);
    core::DtbPausePolicy DtbFm(TraceMax);
    core::FeedbackMediationPolicy FeedMed(TraceMax);
    // Copy before setting the track: SimConfig is shared across workers.
    sim::SimulatorConfig CellConfig = SimConfig;
    std::string Budget =
        std::to_string(static_cast<uint64_t>(PauseBudgetsMs[I])) + "ms";
    CellConfig.TelemetryTrack = "sim/" + Spec->Name + "/dtbfm@" + Budget;
    FmResults[I] = sim::simulate(T, DtbFm, CellConfig);
    CellConfig.TelemetryTrack = "sim/" + Spec->Name + "/feedmed@" + Budget;
    MedResults[I] = sim::simulate(T, FeedMed, CellConfig);
  });
  for (size_t I = 0; I != PauseBudgetsMs.size(); ++I) {
    const sim::SimulationResult &RFm = FmResults[I];
    const sim::SimulationResult &RMed = MedResults[I];
    PauseTable.addRow({Table::cell(PauseBudgetsMs[I], 0),
                       Table::cell(RFm.PauseMillis.median(), 0),
                       Table::cell(RFm.PauseMillis.percentile90(), 0),
                       Table::cell(bytesToKB(RFm.MemMeanBytes)),
                       Table::cell(RMed.PauseMillis.median(), 0),
                       Table::cell(bytesToKB(RMed.MemMeanBytes))});
  }
  PauseTable.print(stdout);

  // --- Memory-constraint sweep ------------------------------------------
  const std::vector<uint64_t> MemBudgetsKB = {1000, 1500, 2000, 2500,
                                              3000, 4000, 6000, 8000};
  sim::SimulationResult FullResult, Fixed1Result;
  std::vector<sim::SimulationResult> MemResults(MemBudgetsKB.size());
  parallelFor(MemBudgetsKB.size() + 2, [&](size_t I) {
    sim::SimulatorConfig CellConfig = SimConfig;
    if (I == 0) {
      core::FullPolicy Full;
      CellConfig.TelemetryTrack = "sim/" + Spec->Name + "/full";
      FullResult = sim::simulate(T, Full, CellConfig);
    } else if (I == 1) {
      core::FixedAgePolicy Fixed1(1);
      CellConfig.TelemetryTrack = "sim/" + Spec->Name + "/fixed1";
      Fixed1Result = sim::simulate(T, Fixed1, CellConfig);
    } else {
      core::DtbMemoryPolicy DtbMem(MemBudgetsKB[I - 2] * 1000);
      CellConfig.TelemetryTrack = "sim/" + Spec->Name + "/dtbmem@" +
                                  std::to_string(MemBudgetsKB[I - 2]) + "kb";
      MemResults[I - 2] = sim::simulate(T, DtbMem, CellConfig);
    }
  });
  std::printf("\nMemory-constraint sweep on %s (max should hug the budget; "
              "FULL needs %.0f KB):\n\n",
              Spec->DisplayName.c_str(),
              bytesToKB(FullResult.MemMaxBytes));
  Table MemTable({"Budget (KB)", "DTBMEM max (KB)", "DTBMEM mean (KB)",
                  "Traced (KB)", "vs FIXED1 traced"});
  for (size_t I = 0; I != MemBudgetsKB.size(); ++I) {
    const sim::SimulationResult &R = MemResults[I];
    double Ratio = Fixed1Result.TotalTracedBytes == 0
                       ? 0.0
                       : static_cast<double>(R.TotalTracedBytes) /
                             static_cast<double>(
                                 Fixed1Result.TotalTracedBytes);
    MemTable.addRow({Table::cell(MemBudgetsKB[I]),
                     Table::cell(bytesToKB(R.MemMaxBytes)),
                     Table::cell(bytesToKB(R.MemMeanBytes)),
                     Table::cell(bytesToKB(R.TotalTracedBytes)),
                     Table::cell(Ratio, 2) + "x"});
  }
  MemTable.print(stdout);

  std::printf("\nOver-constrained budgets (below FULL's requirement) "
              "saturate at FULL's\nmemory while tracing cost climbs; "
              "feasible budgets are met with tracing\nnear FIXED1's "
              "(ratio -> 1).\n");
  return 0;
}
