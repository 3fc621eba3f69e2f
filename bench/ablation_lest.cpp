//===- bench/ablation_lest.cpp - DTBMEM live-estimator ablation ----------===//
//
// Part of the dtbgc project (Barrett & Zorn DTB reproduction).
//
// The paper's DTBMEM estimates the unknown live bytes L_{n-1} as the
// average of S_{n-1} (an overestimate: includes tenured garbage) and
// Trace_{n-1} (an underestimate: misses live immune bytes). This ablation
// compares the paper's midpoint against both extremes and the oracle,
// reporting constraint adherence (max memory vs 3000 KB) and tracing
// cost on every workload.
//
//===----------------------------------------------------------------------===//

#include "ExperimentCli.h"

#include "report/Experiments.h"
#include "support/Table.h"
#include "support/Units.h"

#include <cstdio>
#include <tuple>

using namespace dtb;

int dtb::bench::runAblationLest(ExperimentCli &Cli) {
  uint64_t MemMax = 3'000'000;
  Cli.Parser.addUInt("mem-max", "Memory budget in bytes", &MemMax);
  if (!Cli.parse())
    return 1;

  const std::tuple<core::LiveEstimateKind, const char *, const char *>
      Estimators[] = {
          {core::LiveEstimateKind::AverageOfSurvivedAndTraced,
           "midpoint (paper)", "midpoint"},
          {core::LiveEstimateKind::Survived, "S_{n-1} (over)", "survived"},
          {core::LiveEstimateKind::Traced, "Trace_{n-1} (under)", "traced"},
          {core::LiveEstimateKind::Oracle, "oracle live", "oracle"},
      };

  std::printf("DTBMEM live-estimator ablation (budget %.0f KB)\n\n",
              bytesToKB(MemMax));
  for (const workload::WorkloadSpec &Spec : workload::paperWorkloads()) {
    trace::Trace T = workload::generateTrace(Spec);
    sim::SimulatorConfig SimConfig;
    SimConfig.ProgramSeconds = Spec.ProgramSeconds;

    Table Tbl({"Estimator", "Mem mean (KB)", "Mem max (KB)",
               "Over budget?", "Traced (KB)", "Median pause (ms)"});
    for (const auto &[Kind, Label, Slug] : Estimators) {
      core::DtbMemoryPolicy Policy(MemMax, Kind);
      SimConfig.TelemetryTrack = "sim/" + Spec.Name + "/dtbmem-" + Slug;
      sim::SimulationResult R = sim::simulate(T, Policy, SimConfig);
      Tbl.addRow({Label, Table::cell(bytesToKB(R.MemMeanBytes)),
                  Table::cell(bytesToKB(R.MemMaxBytes)),
                  R.MemMaxBytes > MemMax ? "yes" : "no",
                  Table::cell(bytesToKB(R.TotalTracedBytes)),
                  Table::cell(R.PauseMillis.median(), 0)});
    }
    std::printf("%s:\n", Spec.DisplayName.c_str());
    Tbl.print(stdout);
    std::printf("\n");
  }

  std::printf("Expected shape: the Trace-based underestimate is "
              "optimistic about\nheadroom (more budget violations, least "
              "tracing); the S-based\noverestimate is conservative (never "
              "violates, traces more); the\npaper's midpoint sits between "
              "and close to the oracle.\n");
  return 0;
}
