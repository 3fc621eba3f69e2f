//===- bench/table5_6_workloads.cpp - Reproduces Tables 5 and 6 ----------===//
//
// Part of the dtbgc project (Barrett & Zorn DTB reproduction).
//
// Prints the allocation behaviour of the six synthetic workloads in the
// layout of the paper's Table 6, plus the LIVE / No-GC baselines of
// Table 2 and the lifetime CDF that documents each workload's calibrated
// lifetime structure (the paper's Table 5 descriptions are prose; the
// statistics here are their measurable counterpart).
//
//===----------------------------------------------------------------------===//

#include "ExperimentCli.h"

#include "report/Experiments.h"
#include "report/PaperReference.h"
#include "support/Units.h"

#include <cstdio>

using namespace dtb;

int dtb::bench::runTable56Workloads(ExperimentCli &Cli) {
  bool Csv = false;
  report::ExperimentConfig Config;
  Cli.Parser.addFlag("csv", "Emit CSV instead of aligned text", &Csv);
  if (!Cli.parse())
    return 1;

  report::ExperimentGrid Grid = report::ExperimentGrid::paperGrid(Config);

  Table T6 = report::buildTable6(Grid);
  if (Csv) {
    T6.printCsv(stdout);
    return 0;
  }

  std::printf("Table 6 (measured): Allocation Behaviour of Programs\n\n");
  T6.print(stdout);

  std::printf("\nBaselines (measured vs paper, KB):\n\n");
  Table Baselines({"Program", "Live mean", "paper", "Live max", "paper",
                   "NoGC mean", "paper", "NoGC max", "paper"});
  for (const workload::WorkloadSpec &Spec : Grid.workloads()) {
    const trace::TraceStats &B = Grid.baseline(Spec.Name);
    auto Paper = report::paperBaseline(Spec.Name);
    Baselines.addRow(
        {Spec.DisplayName, Table::cell(bytesToKB(B.LiveMeanBytes)),
         Table::cell(Paper->LiveMeanKB, 0),
         Table::cell(bytesToKB(B.LiveMaxBytes)),
         Table::cell(Paper->LiveMaxKB, 0),
         Table::cell(bytesToKB(B.NoGcMeanBytes)),
         Table::cell(Paper->NoGcMeanKB, 0),
         Table::cell(bytesToKB(B.TotalAllocatedBytes)),
         Table::cell(Paper->NoGcMaxKB, 0)});
  }
  Baselines.print(stdout);

  std::printf("\nLifetime CDF (fraction of allocated bytes dying before "
              "age):\n\n");
  std::vector<std::string> Header = {"Program"};
  for (uint64_t Threshold : trace::TraceStats::lifetimeThresholds())
    Header.push_back("<" + formatBytes(Threshold));
  Table Cdf(std::move(Header));
  for (const workload::WorkloadSpec &Spec : Grid.workloads()) {
    const trace::TraceStats &B = Grid.baseline(Spec.Name);
    std::vector<std::string> Row = {Spec.DisplayName};
    for (double Fraction : B.LifetimeCdf)
      Row.push_back(Table::cell(Fraction, 3));
    Cdf.addRow(std::move(Row));
  }
  Cdf.print(stdout);
  return 0;
}
