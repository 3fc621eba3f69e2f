//===- bench/ablation_trigger_policy.cpp - When-to-collect ablation ------===//
//
// Part of the dtbgc project (Barrett & Zorn DTB reproduction).
//
// Compares the paper's fixed-interval trigger against a heap-growth
// trigger (collect when residency reaches a multiple of the last
// survivor set — the opportunistic "when to collect" axis the paper
// delegates to Wilson & Moher). Under each trigger, the boundary policy
// still controls what is collected; the trigger shifts how often.
//
//===----------------------------------------------------------------------===//

#include "ExperimentCli.h"

#include "report/Experiments.h"
#include "sim/Trigger.h"
#include "support/Table.h"
#include "support/Units.h"

#include <cstdio>
#include <memory>

using namespace dtb;

int dtb::bench::runAblationTriggerPolicy(ExperimentCli &Cli) {
  std::string WorkloadName = "ghost1";
  Cli.Parser.addString("workload", "Workload name", &WorkloadName);
  if (!Cli.parse())
    return 1;

  const workload::WorkloadSpec *Spec = lookupWorkload(WorkloadName);
  if (!Spec)
    return 1;
  trace::Trace T = workload::generateTrace(*Spec);

  struct TriggerCase {
    const char *Label;
    std::unique_ptr<sim::TriggerPolicy> Trigger;
  };
  TriggerCase Triggers[] = {
      {"fixed 1 MB", std::make_unique<sim::FixedBytesTrigger>(1'000'000)},
      {"fixed 250 KB", std::make_unique<sim::FixedBytesTrigger>(250'000)},
      {"growth 1.5x",
       std::make_unique<sim::HeapGrowthTrigger>(1.5, 500'000)},
      {"growth 3x",
       std::make_unique<sim::HeapGrowthTrigger>(3.0, 500'000)},
  };

  std::printf("Trigger-policy ablation on %s\n\n",
              Spec->DisplayName.c_str());
  for (const char *PolicyName : {"full", "dtbfm", "dtbmem"}) {
    Table Tbl({"Trigger", "Scavenges", "Mem mean (KB)", "Mem max (KB)",
               "Traced (KB)", "Median pause (ms)"});
    for (TriggerCase &Case : Triggers) {
      auto Policy = core::createPolicy(PolicyName, {});
      sim::SimulatorConfig SimConfig;
      SimConfig.Trigger = Case.Trigger.get();
      SimConfig.ProgramSeconds = Spec->ProgramSeconds;
      SimConfig.TelemetryTrack =
          "sim/" + Spec->Name + "/" + PolicyName + "@" + Case.Label;
      sim::SimulationResult R = sim::simulate(T, *Policy, SimConfig);
      Tbl.addRow({Case.Label, Table::cell(R.NumScavenges),
                  Table::cell(bytesToKB(R.MemMeanBytes)),
                  Table::cell(bytesToKB(R.MemMaxBytes)),
                  Table::cell(bytesToKB(R.TotalTracedBytes)),
                  Table::cell(R.PauseMillis.median(), 0)});
    }
    std::printf("%s:\n", PolicyName);
    Tbl.print(stdout);
    std::printf("\n");
  }

  std::printf("Reading: the growth trigger adapts collection frequency to "
              "the live\nset — fewer scavenges when survivors are large "
              "(tight headroom buys\nnothing), more when the heap is "
              "mostly garbage. The boundary policies'\nconstraints hold "
              "under either trigger: the axes are orthogonal, as §4\n"
              "argues.\n");
  return 0;
}
