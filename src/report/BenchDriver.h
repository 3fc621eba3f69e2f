//===- report/BenchDriver.h - Unified benchmark suites ----------*- C++ -*-===//
//
// Part of the dtbgc project (Barrett & Zorn DTB reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One harness for every perf measurement in the repo, emitting the
/// BENCH_<suite>.json records of report/BenchRecord.h. Each suite mixes:
///
///  * a deterministic pass — simulator grid cells and managed-runtime
///    mutator runs, per-cell phase profilers folded serially into one
///    "sim" and one "runtime" domain. Bit-identical for every --threads
///    value (tasks deposit into preassigned slots, fixed-order merges).
///  * optional wall measurements ("wall/..." metrics) — warmup runs
///    discarded, N timed repeats, min/median/MAD recorded. Skipped
///    entirely under IncludeWall=false so records meant for bit-exact
///    comparison carry no nondeterminism.
///
/// Suites:
///  * quick  — small steady-state sim grid + a scaled runtime run; the CI
///             smoke gate (sub-second deterministic pass).
///  * paper  — the full Table 2/3/4 workload×policy grid + the
///             runtime_end_to_end-scale runtime run.
///  * runtime— the runtime run plus the wall-clock speedup of a trace
///             over TraceLanes lanes against a serial one.
///  * timing — the parallel-engine and indexed-heap-query speedups; the
///             indexed and scan heap-query runs must agree exactly.
///  * server — the serverload scenario catalog (serverload/ServerLoad.h)
///             under every paper policy, emitting the tail families the
///             server story gates: pause p50/p99/p99.9 and
///             memory-overshoot (floating garbage vs. the trace oracle)
///             quantiles per scenario x policy.
///
//===----------------------------------------------------------------------===//

#ifndef DTB_REPORT_BENCHDRIVER_H
#define DTB_REPORT_BENCHDRIVER_H

#include "profiling/Profiler.h"
#include "report/BenchRecord.h"

#include <map>
#include <string>
#include <vector>

namespace dtb {
namespace report {

struct BenchDriverOptions {
  std::string Suite = "quick";
  /// Worker threads for the sim fan-out: 0 = process default, 1 = serial.
  /// Deterministic output is independent of this.
  unsigned Threads = 0;
  /// Trace lanes for the runtime stages' parallel-scavenge passes:
  /// 0 = follow the resolved Threads value, 1 = serial. Deterministic
  /// output is independent of this too — the budgeted re-run per policy
  /// verifies it by construction.
  unsigned TraceLanes = 0;
  /// Timed repeats per wall measurement.
  unsigned Repeats = 3;
  /// Discarded warmup runs before the timed repeats.
  unsigned Warmup = 1;
  /// Record wall metrics. Off = fully deterministic record.
  bool IncludeWall = true;
  /// Record the env block (git SHA, build flags, thread count).
  bool IncludeEnv = true;
};

/// A suite's record plus the merged per-domain profilers backing its
/// phases block (for the cost-attribution summary).
struct BenchSuiteResult {
  BenchRecord Record;
  std::map<std::string, profiling::PhaseProfiler> Profiles;
};

/// The declared suite names, in documentation order.
const std::vector<std::string> &benchSuiteNames();

/// Runs one suite. Fatal on an unknown suite name.
BenchSuiteResult runBenchSuite(const BenchDriverOptions &Options);

} // namespace report
} // namespace dtb

#endif // DTB_REPORT_BENCHDRIVER_H
