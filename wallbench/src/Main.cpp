//===- wallbench/src/Main.cpp - Wall-clock benchmark entry point ---------===//
//
// Part of the dtbgc project (Barrett & Zorn DTB reproduction).
//
// Runs one workload for a fixed wall time and prints every metric by name
// with its unit, the output checks, an environment fingerprint, and (as
// the last line) all metrics as one JSON object. wallbench/run.py builds
// this binary and reduces that line to the benchmark's result line.
//
//   wallbench --workload ghost --seed 1 --seconds 10 [--trace] [--out-dir D]
//   wallbench --self-test
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

using namespace wallbench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: wallbench --workload {ghost,cache-3t,bigdata-copy,"
               "sim-grid} --seed N --seconds S [--trace] [--out-dir DIR] "
               "[--git-sha SHA]\n"
               "       wallbench --self-test\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts;
  std::string GitSha = "unknown";
  bool SelfTest = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto value = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    const char *V = nullptr;
    if (Arg == "--self-test") {
      SelfTest = true;
    } else if (Arg == "--trace") {
      Opts.Trace = true;
    } else if (Arg == "--workload" && (V = value())) {
      Opts.Workload = V;
    } else if (Arg == "--seed" && (V = value())) {
      Opts.Seed = std::strtoull(V, nullptr, 10);
    } else if (Arg == "--seconds" && (V = value())) {
      Opts.Seconds = std::strtod(V, nullptr);
    } else if (Arg == "--out-dir" && (V = value())) {
      Opts.OutDir = V;
    } else if (Arg == "--git-sha" && (V = value())) {
      GitSha = V;
    } else {
      return usage();
    }
  }
  if (SelfTest)
    return runSelfTest();
  if (!(Opts.Seconds > 0.0) || Opts.Seconds > 600.0)
    return usage();

  std::unique_ptr<Workload> W;
  if (Opts.Workload == "ghost")
    W = makeGhost(Opts);
  else if (Opts.Workload == "cache-3t")
    W = makeCache(Opts);
  else if (Opts.Workload == "bigdata-copy")
    W = makeBigData(Opts);
  else if (Opts.Workload == "sim-grid")
    W = makeSimGrid(Opts);
  else
    return usage();

  Report Rep;
  Rep.note("fingerprint: git " + GitSha + ", build " WALLBENCH_BUILD_TYPE
           ", DTB_ENABLE_ASSERTIONS=" +
           std::to_string(WALLBENCH_ASSERTIONS) +
           ", DTB_ENABLE_TELEMETRY=" + std::to_string(WALLBENCH_TELEMETRY) +
           ", nproc " + std::to_string(std::thread::hardware_concurrency()));
  Rep.note("run: workload " + Opts.Workload + ", seed " +
           std::to_string(Opts.Seed) + ", " + std::to_string(Opts.Seconds) +
           " s, trace " + (Opts.Trace ? "on" : "off"));
  runWorkload(*W, Opts, Rep);
  if (Rep.Attempted == 0)
    Rep.fail("no operation was attempted");
  Rep.add("failed_ratio",
          Rep.Attempted ? static_cast<double>(Rep.Failed) /
                              static_cast<double>(Rep.Attempted)
                        : 1.0,
          "ratio");
  Rep.print(Opts);
  return Rep.correct() ? 0 : 1;
}
