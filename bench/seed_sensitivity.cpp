//===- bench/seed_sensitivity.cpp - Robustness across trace resampling ---===//
//
// Part of the dtbgc project (Barrett & Zorn DTB reproduction).
//
// Re-generates every workload under several seeds and re-runs the six
// collectors, reporting mean ± stddev for the Table 2/3/4 metrics and
// checking that each qualitative conclusion of the paper holds for every
// individual seed — evidence that the reproduction's conclusions are
// properties of the workload *shape*, not of one lucky random draw.
//
//===----------------------------------------------------------------------===//

#include "ExperimentCli.h"

#include "report/SeedSweep.h"
#include "support/Table.h"

#include <cstdio>

using namespace dtb;
using namespace dtb::report;

namespace {

std::string meanPlusMinus(const RunningStats &S, int Decimals = 0) {
  return Table::cell(S.mean(), Decimals) + " ±" +
         Table::cell(S.stddev(), Decimals);
}

} // namespace

int dtb::bench::runSeedSensitivity(ExperimentCli &Cli) {
  uint64_t NumSeeds = 5;
  Cli.Parser.addUInt("seeds", "Number of seeds per workload", &NumSeeds);
  if (!Cli.parse())
    return 1;

  ExperimentConfig Config;
  SeedSweepResult Sweep =
      runSeedSweep(workload::paperWorkloads(), core::paperPolicyNames(),
                   Config, static_cast<unsigned>(NumSeeds));

  std::printf("Seed sensitivity over %llu seeds (mean ± stddev)\n\n",
              static_cast<unsigned long long>(NumSeeds));

  Table MemTable({"Workload", "Full mem mean", "Fixed1 mem mean",
                  "DtbMem mem max", "DtbFM med pause", "FeedMed med pause"});
  for (const workload::WorkloadSpec &Spec : workload::paperWorkloads()) {
    MemTable.addRow(
        {Spec.DisplayName,
         meanPlusMinus(Sweep.cell("full", Spec.Name).MemMeanKB),
         meanPlusMinus(Sweep.cell("fixed1", Spec.Name).MemMeanKB),
         meanPlusMinus(Sweep.cell("dtbmem", Spec.Name).MemMaxKB),
         meanPlusMinus(Sweep.cell("dtbfm", Spec.Name).MedianPauseMs),
         meanPlusMinus(Sweep.cell("feedmed", Spec.Name).MedianPauseMs)});
  }
  MemTable.print(stdout);

  // Per-seed invariant audit: worst-case (across seeds) versions of the
  // integration assertions.
  std::printf("\nWorst-case-across-seeds checks:\n");
  int Failures = 0;
  auto Check = [&](bool Ok, const char *What) {
    std::printf("  [%s] %s\n", Ok ? "ok" : "FAIL", What);
    if (!Ok)
      ++Failures;
  };

  for (const workload::WorkloadSpec &Spec : workload::paperWorkloads()) {
    const SeedCell &Full = Sweep.cell("full", Spec.Name);
    const SeedCell &Fixed1 = Sweep.cell("fixed1", Spec.Name);
    // Even the best FIXED1 seed uses at least as much memory as the worst
    // FULL seed... on the *same* seed it is exact; across seeds compare
    // means with the spread.
    Check(Fixed1.MemMeanKB.min() >= Full.MemMeanKB.min() &&
              Fixed1.MemMeanKB.mean() >= Full.MemMeanKB.mean(),
          (Spec.Name + ": FIXED1 memory >= FULL memory").c_str());
    Check(Fixed1.TracedKB.max() <= Full.TracedKB.min(),
          (Spec.Name + ": FIXED1 always traces less than FULL").c_str());
  }

  const SeedCell &FmGhost = Sweep.cell("dtbfm", "ghost1");
  Check(FmGhost.MedianPauseMs.min() > 60 &&
            FmGhost.MedianPauseMs.max() < 140,
        "ghost1: DTBFM median pause within [60,140] ms for every seed");
  const SeedCell &MemEsp = Sweep.cell("dtbmem", "espresso2");
  Check(MemEsp.MemMaxKB.max() <= 3030,
        "espresso2: DTBMEM max memory <= 3000 KB (+1%) for every seed");
  const SeedCell &FmEsp = Sweep.cell("dtbfm", "espresso2");
  const SeedCell &MedEsp = Sweep.cell("feedmed", "espresso2");
  Check(FmEsp.MemMeanKB.max() < MedEsp.MemMeanKB.min(),
        "espresso2: DTBFM uses less memory than FEEDMED for every seed");

  std::printf("\n%s\n", Failures == 0
                            ? "All qualitative conclusions hold for every "
                              "seed."
                            : "SOME CHECKS FAILED — see above.");
  return Failures == 0 ? 0 : 1;
}
