//===- examples/constraint_explorer.cpp - Pause/memory tradeoff frontier -===//
//
// Part of the dtbgc project (Barrett & Zorn DTB reproduction).
//
// The paper frames garbage collection tuning as a single tradeoff: pause
// time against memory, selected by moving the threatening boundary. This
// example makes the frontier visible for a workload: it sweeps DTBFM's
// pause budget and DTBMEM's memory budget, plots (as a text scatter) each
// operating point in (median pause, mean memory) space, and overlays the
// classic fixed policies — showing that the DTB knobs span the whole
// curve the fixed policies only sample.
//
//===----------------------------------------------------------------------===//

#include "core/Policies.h"
#include "sim/Simulator.h"
#include "support/CommandLine.h"
#include "support/Table.h"
#include "support/Units.h"
#include "workload/Workload.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

using namespace dtb;

namespace {

struct OperatingPoint {
  std::string Label;
  char Mark;
  double MedianPauseMs;
  double MemMeanKB;
};

/// Renders points on a log-x text scatter plot.
void plotScatter(const std::vector<OperatingPoint> &Points) {
  if (Points.empty())
    return;
  double MinPause = 1e300, MaxPause = 0, MinMem = 1e300, MaxMem = 0;
  for (const OperatingPoint &P : Points) {
    MinPause = std::min(MinPause, std::max(P.MedianPauseMs, 1.0));
    MaxPause = std::max(MaxPause, P.MedianPauseMs);
    MinMem = std::min(MinMem, P.MemMeanKB);
    MaxMem = std::max(MaxMem, P.MemMeanKB);
  }
  const int Rows = 18, Cols = 64;
  std::vector<std::string> Grid(Rows, std::string(Cols, ' '));
  auto LogX = [&](double Pause) {
    double L = std::log(std::max(Pause, 1.0) / MinPause) /
               std::log(MaxPause / MinPause + 1e-9);
    return std::clamp(static_cast<int>(L * (Cols - 1)), 0, Cols - 1);
  };
  auto LinY = [&](double Mem) {
    double L = (Mem - MinMem) / (MaxMem - MinMem + 1e-9);
    return std::clamp(Rows - 1 - static_cast<int>(L * (Rows - 1)), 0,
                      Rows - 1);
  };
  for (const OperatingPoint &P : Points)
    Grid[LinY(P.MemMeanKB)][LogX(P.MedianPauseMs)] = P.Mark;

  std::printf("mean memory (KB)  %.0f\n", MaxMem);
  for (const std::string &Row : Grid)
    std::printf("                 |%s\n", Row.c_str());
  std::printf("            %.0f +%s\n", MinMem, std::string(Cols, '-').c_str());
  std::printf("                  %.0fms%*s%.0fms (median pause, log "
              "scale)\n\n",
              MinPause, Cols - 14, "", MaxPause);
}

} // namespace

int main(int Argc, char **Argv) {
  std::string WorkloadName = "espresso2";
  OptionParser Parser("Explores the pause/memory tradeoff frontier spanned "
                      "by the DTB policies");
  Parser.addString("workload", "Workload name", &WorkloadName);
  Parser.rejectPositionals();
  if (!Parser.parse(Argc, Argv))
    return 1;

  const workload::WorkloadSpec *Spec = workload::findWorkload(WorkloadName);
  if (!Spec) {
    std::fprintf(stderr, "error: unknown workload '%s'\n",
                 WorkloadName.c_str());
    return 1;
  }
  trace::Trace T = workload::generateTrace(*Spec);
  sim::SimulatorConfig SimConfig;
  SimConfig.ProgramSeconds = Spec->ProgramSeconds;

  std::vector<OperatingPoint> Points;
  Table Tbl({"Policy", "Knob", "Median pause (ms)", "Mem mean (KB)",
             "Traced (KB)"});

  auto Run = [&](const std::string &Label, char Mark,
                 core::BoundaryPolicy &Policy, const std::string &Knob) {
    sim::SimulationResult R = sim::simulate(T, Policy, SimConfig);
    Points.push_back({Label, Mark, R.PauseMillis.median(),
                      bytesToKB(R.MemMeanBytes)});
    Tbl.addRow({Label, Knob, Table::cell(R.PauseMillis.median(), 0),
                Table::cell(bytesToKB(R.MemMeanBytes)),
                Table::cell(bytesToKB(R.TotalTracedBytes))});
  };

  // The DTBFM frontier: sweep the pause budget.
  for (double BudgetMs : {12.5, 25.0, 50.0, 100.0, 200.0, 400.0, 800.0,
                          1600.0}) {
    uint64_t TraceMax =
        core::MachineModel().tracedBytesForPauseMillis(BudgetMs);
    core::DtbPausePolicy Policy(TraceMax);
    Run("dtbfm", '*', Policy,
        Table::cell(BudgetMs, 0) + " ms");
  }

  // The classic fixed points.
  {
    core::FullPolicy Full;
    Run("full", 'F', Full, "-");
    core::FixedAgePolicy Fixed1(1);
    Run("fixed1", '1', Fixed1, "-");
    core::FixedAgePolicy Fixed2(2);
    Run("fixed2", '2', Fixed2, "-");
    core::FixedAgePolicy Fixed4(4);
    Run("fixed4", '4', Fixed4, "-");
    core::FixedAgePolicy Fixed8(8);
    Run("fixed8", '8', Fixed8, "-");
  }

  std::printf("Pause/memory frontier on %s\n\n", Spec->DisplayName.c_str());
  plotScatter(Points);
  std::printf("  * = DTBFM at a swept pause budget;  F/1/2/4/8 = FULL and "
              "FIXEDk\n\n");
  Tbl.print(stdout);
  std::printf("\nThe DTB policy reaches any point on the frontier by "
              "dialing one knob in\nuser units; the fixed policies are "
              "stuck at their design points.\n");
  return 0;
}
