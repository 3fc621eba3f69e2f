//===- bench/dtb_experiments.cpp - Every paper experiment, one binary -----===//
//
// Part of the dtbgc project (Barrett & Zorn DTB reproduction).
//
// `dtb_experiments <name> [options]` runs one of the paper's tables and
// figures, or one of the ablations, extensions and sweeps built around
// them. Each experiment lives in its own source file under bench/; this
// file maps names to them and owns the command-line steps they share
// (bench/ExperimentCli.h). With no name, or an unknown one, it lists the
// experiments and exits 1. tests/data/experiments/ holds every
// experiment's default output, which the experiment_* ctests match byte
// for byte.
//
//===----------------------------------------------------------------------===//

#include "ExperimentCli.h"

#include "support/ThreadPool.h"

#include <cstdio>
#include <cstring>

using namespace dtb;
using namespace dtb::bench;

namespace {

struct Experiment {
  const char *Name;
  /// Takes --threads: fans independent simulations out over the pool.
  bool TakesThreads;
  int (*Run)(ExperimentCli &);
  const char *Description;
};

const Experiment Experiments[] = {
    {"table2_memory", true, runPaperTable,
     "Reproduces Table 2: mean and maximum memory allocated (KB) per "
     "collector and workload"},
    {"table3_pause_times", true, runPaperTable,
     "Reproduces Table 3: median and 90th percentile pause times "
     "(milliseconds)"},
    {"table4_cpu_overhead", true, runPaperTable,
     "Reproduces Table 4: total bytes traced (KB) and estimated CPU "
     "overhead (%)"},
    {"table5_6_workloads", true, runTable56Workloads,
     "Reproduces Tables 5/6: workload allocation behaviour and baselines"},
    {"fig1_nepotism", false, runFig1Nepotism,
     "Walks the paper's Figure 1 object graph on the managed runtime"},
    {"fig2_memory_curve", false, runFig2MemoryCurve,
     "Reproduces Figure 2: memory use over time for FULL vs the DTB "
     "collectors, with the live-byte floor"},
    {"constraint_sweep", true, runConstraintSweep,
     "Sweeps the pause and memory constraints to show how closely the DTB "
     "policies track them"},
    {"ablation_lest", false, runAblationLest,
     "DTBMEM L_est ablation: paper's midpoint vs the S/Trace extremes and "
     "the oracle"},
    {"ablation_trigger", false, runAblationTrigger,
     "Sweep of the scavenge trigger interval under each boundary policy "
     "(what-to-collect vs when-to-collect orthogonality)"},
    {"ablation_trigger_policy", false, runAblationTriggerPolicy,
     "Fixed-interval vs heap-growth scavenge triggers under each boundary "
     "policy"},
    {"ablation_quantization", false, runAblationQuantization,
     "Quantizes the DTB boundaries to coarser age granularities and "
     "measures the cost of imprecise object ages"},
    {"combined_constraints", true, runCombinedConstraints,
     "Imposes the paper's memory and pause constraints simultaneously via "
     "policy composition"},
    {"seed_sensitivity", true, runSeedSensitivity,
     "Re-runs the paper grid across multiple workload seeds and reports "
     "metric distributions"},
    {"remset_overhead", false, runRemsetOverhead,
     "Measures unified (DTB) vs inter-generational remembered-set demand "
     "under synthetic pointer traffic (paper §4.2)"},
    {"ablation_oracle", false, runAblationOracle,
     "Measures DTBFM/DTBMEM regret against clairvoyant "
     "per-scavenge-optimal baselines"},
    {"runtime_end_to_end", false, runRuntimeEndToEnd,
     "Runs the six collectors on the real managed runtime (no oracle) "
     "under a GHOST-like mutator"},
};

} // namespace

ExperimentCli::ExperimentCli(const char *Description, bool TakesThreads,
                             int Argc, const char *const *Argv)
    : Parser(Description), TakesThreads(TakesThreads), Argc(Argc),
      Argv(Argv) {}

bool ExperimentCli::parse() {
  if (TakesThreads)
    addThreadsOption(Parser, &Threads);
  telemetry::addTelemetryOptions(Parser, &TelemetryOpts);
  if (!Parser.parse(Argc, Argv))
    return false;
  Telemetry.emplace(TelemetryOpts);
  // Without --threads, Threads stays 0: the pool's default size.
  applyThreadsOption(Threads);
  return Telemetry->valid();
}

const workload::WorkloadSpec *
dtb::bench::lookupWorkload(const std::string &Name) {
  const workload::WorkloadSpec *Spec = workload::findWorkload(Name);
  if (!Spec)
    std::fprintf(stderr, "error: unknown workload '%s'\n", Name.c_str());
  return Spec;
}

int main(int Argc, char **Argv) {
  for (const Experiment &E : Experiments) {
    if (Argc < 2 || std::strcmp(Argv[1], E.Name) != 0)
      continue;
    // The experiment parses Argv[1..]: its name stands in for argv[0].
    ExperimentCli Cli(E.Description, E.TakesThreads, Argc - 1, Argv + 1);
    return E.Run(Cli);
  }

  if (Argc >= 2)
    std::fprintf(stderr, "error: unknown experiment '%s'\n", Argv[1]);
  std::fprintf(stderr,
               "usage: %s <experiment> [options]\n"
               "       %s <experiment> --help   lists its options\n\n"
               "experiments:\n",
               Argv[0], Argv[0]);
  for (const Experiment &E : Experiments)
    std::fprintf(stderr, "  %s\n      %s\n", E.Name, E.Description);
  return 1;
}
