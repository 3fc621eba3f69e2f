//===- bench/ExperimentCli.h - The dtb_experiments command line -*- C++ -*-===//
//
// Part of the dtbgc project (Barrett & Zorn DTB reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every experiment of `dtb_experiments <name> [options]` shares.
/// dtb_experiments.cpp maps the name to one of the functions below and
/// hands it an ExperimentCli whose parser carries the experiment's
/// description. The experiment registers its own options, calls parse(),
/// and returns its exit status; the telemetry session parse() opens
/// stays live until the experiment has returned.
///
//===----------------------------------------------------------------------===//

#ifndef DTB_BENCH_EXPERIMENTCLI_H
#define DTB_BENCH_EXPERIMENTCLI_H

#include "support/CommandLine.h"
#include "telemetry/TelemetryCli.h"
#include "workload/Workload.h"

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace dtb {
namespace bench {

/// One experiment's command line: its own options, then --threads (for
/// experiments that fan out over the worker pool) and the telemetry
/// options, in that order.
class ExperimentCli {
public:
  /// \p Argv[0] is the experiment's name.
  ExperimentCli(const char *Description, bool TakesThreads, int Argc,
                const char *const *Argv);

  /// Registers --threads and the telemetry options, parses, opens the
  /// telemetry session and installs the thread count. False means a
  /// diagnostic or help text was printed and the experiment exits 1.
  bool parse();

  std::string_view name() const { return Argv[0]; }

  OptionParser Parser;

private:
  bool TakesThreads;
  int Argc;
  const char *const *Argv;
  uint64_t Threads = 0;
  telemetry::TelemetryOptions TelemetryOpts;
  std::optional<telemetry::TelemetrySession> Telemetry;
};

/// The paper workload called \p Name, or null after printing
/// "error: unknown workload" to stderr.
const workload::WorkloadSpec *lookupWorkload(const std::string &Name);

// The experiments. Tables 2-4 share runPaperTable, which picks the table
// by experiment name.
int runPaperTable(ExperimentCli &Cli);
int runTable56Workloads(ExperimentCli &Cli);
int runFig1Nepotism(ExperimentCli &Cli);
int runFig2MemoryCurve(ExperimentCli &Cli);
int runConstraintSweep(ExperimentCli &Cli);
int runAblationLest(ExperimentCli &Cli);
int runAblationTrigger(ExperimentCli &Cli);
int runAblationTriggerPolicy(ExperimentCli &Cli);
int runAblationQuantization(ExperimentCli &Cli);
int runCombinedConstraints(ExperimentCli &Cli);
int runSeedSensitivity(ExperimentCli &Cli);
int runRemsetOverhead(ExperimentCli &Cli);
int runAblationOracle(ExperimentCli &Cli);
int runRuntimeEndToEnd(ExperimentCli &Cli);

} // namespace bench
} // namespace dtb

#endif // DTB_BENCH_EXPERIMENTCLI_H
