//===- bench/ablation_trigger.cpp - Scavenge-trigger interval sweep ------===//
//
// Part of the dtbgc project (Barrett & Zorn DTB reproduction).
//
// §4 of the paper stresses that *what* to collect (the threatening
// boundary — this paper) and *when* to collect (the trigger — Wilson &
// Moher's territory) are orthogonal decisions that are easily confused.
// This ablation sweeps the trigger interval under each policy and shows
// the two effects separating: more frequent collection lowers memory and
// per-pause cost but raises total tracing, while the boundary policy
// controls the memory/pause point *within* each trigger setting.
//
//===----------------------------------------------------------------------===//

#include "ExperimentCli.h"

#include "report/Experiments.h"
#include "support/Table.h"
#include "support/Units.h"

#include <cstdio>

using namespace dtb;

int dtb::bench::runAblationTrigger(ExperimentCli &Cli) {
  std::string WorkloadName = "ghost1";
  Cli.Parser.addString("workload", "Workload name", &WorkloadName);
  if (!Cli.parse())
    return 1;

  const workload::WorkloadSpec *Spec = lookupWorkload(WorkloadName);
  if (!Spec)
    return 1;
  trace::Trace T = workload::generateTrace(*Spec);

  core::PolicyConfig PolicyConfig; // Paper defaults: 50 KB / 3000 KB.

  std::printf("Trigger-interval ablation on %s\n\n",
              Spec->DisplayName.c_str());
  for (const char *PolicyName : {"full", "fixed1", "dtbfm", "dtbmem"}) {
    Table Tbl({"Trigger (KB)", "Scavenges", "Mem mean (KB)",
               "Mem max (KB)", "Traced (KB)", "Median pause (ms)",
               "90th (ms)"});
    for (uint64_t TriggerKB : {250ull, 500ull, 1000ull, 2000ull, 4000ull}) {
      auto Policy = core::createPolicy(PolicyName, PolicyConfig);
      sim::SimulatorConfig SimConfig;
      SimConfig.TriggerBytes = TriggerKB * 1000;
      SimConfig.ProgramSeconds = Spec->ProgramSeconds;
      SimConfig.TelemetryTrack = "sim/" + Spec->Name + "/" + PolicyName +
                                 "@" + std::to_string(TriggerKB) + "kb";
      sim::SimulationResult R = sim::simulate(T, *Policy, SimConfig);
      Tbl.addRow({Table::cell(TriggerKB), Table::cell(R.NumScavenges),
                  Table::cell(bytesToKB(R.MemMeanBytes)),
                  Table::cell(bytesToKB(R.MemMaxBytes)),
                  Table::cell(bytesToKB(R.TotalTracedBytes)),
                  Table::cell(R.PauseMillis.median(), 0),
                  Table::cell(R.PauseMillis.percentile90(), 0)});
    }
    std::printf("%s:\n", PolicyName);
    Tbl.print(stdout);
    std::printf("\n");
  }

  std::printf("Expected shape: for FULL, halving the trigger roughly "
              "doubles total\ntracing while lowering the memory ceiling "
              "(classic when-to-collect\ntradeoff). The constrained "
              "policies hold their constraint (median pause\nfor DTBFM, "
              "memory max for DTBMEM) across trigger settings — the\n"
              "boundary, not the trigger, is what enforces it.\n");
  return 0;
}
