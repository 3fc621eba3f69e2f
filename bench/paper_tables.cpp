//===- bench/paper_tables.cpp - Reproduces the paper's Tables 2-4 --------===//
//
// Part of the dtbgc project (Barrett & Zorn DTB reproduction).
//
// Runs the six collectors over the six workloads with the paper's
// parameters (1 MB trigger, 50 KB trace budget, 3000 KB memory budget) and
// prints one of the paper's three result tables, followed by the
// published values for comparison:
//
//   table2_memory        mean and maximum memory per cell (Table 2);
//   table3_pause_times   median and 90th-percentile scavenge pause times,
//                        in ms at the paper's 500 KB/s tracing rate
//                        (Table 3);
//   table4_cpu_overhead  total kilobytes traced and estimated CPU
//                        overhead, in % of mutator time at 10 MIPS /
//                        500 KB/s (Table 4).
//
//===----------------------------------------------------------------------===//

#include "ExperimentCli.h"

#include "report/Experiments.h"
#include "report/PaperReference.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <iterator>

using namespace dtb;

int dtb::bench::runPaperTable(ExperimentCli &Cli) {
  struct PaperTable {
    const char *Experiment;
    const char *Label;
    const char *Caption;
    Table (*Measured)(const report::ExperimentGrid &);
    Table (*Published)();
  };
  static const PaperTable Tables[] = {
      {"table2_memory", "Table 2",
       "Mean and Maximum Memory Allocated (Kilobytes)", report::buildTable2,
       report::paperTable2},
      {"table3_pause_times", "Table 3",
       "Median and 90th Percentile Pause Times (Milliseconds)",
       report::buildTable3, report::paperTable3},
      {"table4_cpu_overhead", "Table 4",
       "Total Bytes Traced (Kilobytes) and Estimated CPU Overhead (%)",
       report::buildTable4, report::paperTable4},
  };
  const PaperTable *T = std::find_if(
      std::begin(Tables), std::end(Tables),
      [&](const PaperTable &P) { return Cli.name() == P.Experiment; });
  assert(T != std::end(Tables) && "not a Table 2-4 experiment");

  bool Csv = false;
  report::ExperimentConfig Config;
  Cli.Parser.addFlag("csv", "Emit CSV instead of aligned text", &Csv);
  Cli.Parser.addUInt("trigger", "Bytes allocated between scavenges",
                     &Config.TriggerBytes);
  Cli.Parser.addUInt("trace-max", "Pause budget in traced bytes",
                     &Config.TraceMaxBytes);
  Cli.Parser.addUInt("mem-max", "DTBMEM memory budget in bytes",
                     &Config.MemMaxBytes);
  if (!Cli.parse())
    return 1;

  report::ExperimentGrid Grid = report::ExperimentGrid::paperGrid(Config);
  Table Measured = T->Measured(Grid);
  if (Csv) {
    Measured.printCsv(stdout);
    return 0;
  }

  std::printf("%s (measured): %s\n\n", T->Label, T->Caption);
  Measured.print(stdout);
  std::printf("\n%s (paper):\n\n", T->Label);
  T->Published().print(stdout);
  return 0;
}
