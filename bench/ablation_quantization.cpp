//===- bench/ablation_quantization.cpp - Age-precision ablation ----------===//
//
// Part of the dtbgc project (Barrett & Zorn DTB reproduction).
//
// §4.2: exact per-object birth times let the collector "model a
// generational collector with an arbitrarily large number of
// generations"; coarser ages (page- or card-grained, as in Caudill's
// Smalltalk-80 implementation) cost precision. This ablation quantizes
// the DTB policies' boundaries to increasing granularities and measures
// what the lost precision costs in memory and tracing: snapping down is
// always safe (it only threatens more), so the price is extra tracing,
// never a missed constraint.
//
//===----------------------------------------------------------------------===//

#include "ExperimentCli.h"

#include "core/Combinators.h"
#include "report/Experiments.h"
#include "support/Table.h"
#include "support/Units.h"

#include <cstdio>

using namespace dtb;

int dtb::bench::runAblationQuantization(ExperimentCli &Cli) {
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

  const uint64_t Quanta[] = {1,         4'096,     65'536,
                             262'144,   1'048'576, 4'194'304};

  std::printf("Age-quantization ablation on %s (DTBFM 50 KB budget, "
              "DTBMEM 3000 KB budget)\n\n",
              Spec->DisplayName.c_str());
  for (const char *Inner : {"dtbfm", "dtbmem"}) {
    Table Tbl({"Quantum", "Mem mean (KB)", "Mem max (KB)", "Traced (KB)",
               "Median pause (ms)", "90th (ms)"});
    for (uint64_t Quantum : Quanta) {
      core::PolicyConfig PolicyConfig;
      core::QuantizedBoundaryPolicy Policy(
          core::createPolicy(Inner, PolicyConfig), Quantum);
      SimConfig.TelemetryTrack = "sim/" + Spec->Name + "/" + Inner + "-q" +
                                 std::to_string(Quantum);
      sim::SimulationResult R = sim::simulate(T, Policy, SimConfig);
      Tbl.addRow({Quantum == 1 ? "exact" : formatBytes(Quantum),
                  Table::cell(bytesToKB(R.MemMeanBytes)),
                  Table::cell(bytesToKB(R.MemMaxBytes)),
                  Table::cell(bytesToKB(R.TotalTracedBytes)),
                  Table::cell(R.PauseMillis.median(), 0),
                  Table::cell(R.PauseMillis.percentile90(), 0)});
    }
    std::printf("%s:\n", Inner);
    Tbl.print(stdout);
    std::printf("\n");
  }

  std::printf("Expected shape: quanta far below the trigger interval are "
              "free; at and\nabove the 1 MB trigger the boundary can only "
              "land on interval edges —\nDTBFM loses its fine pause "
              "control (medians step) and both policies\ntrace more. "
              "Memory budgets are never violated: snapping down only\n"
              "threatens more.\n");
  return 0;
}
