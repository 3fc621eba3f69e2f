//===- report/BenchRecord.h - BENCH_*.json record model ---------*- C++ -*-===//
//
// Part of the dtbgc project (Barrett & Zorn DTB reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The schema for the unified benchmark records (BENCH_<suite>.json)
/// emitted by bench_driver and diffed by bench_compare. One record holds:
///
///  * exact metrics — deterministic values (bytes traced, scavenge counts,
///    pause quantiles in machine-model milliseconds). Bit-identical across
///    runs and thread counts; the comparator gates on equality.
///  * wall metrics — repeated wall-clock measurements with min / median /
///    MAD, compared against a noise threshold derived from the MAD. Named
///    under the "wall/" prefix, mirroring telemetry's quarantine rule.
///  * phases — the per-phase cost attribution from profiling::PhaseProfiler,
///    one block per domain ("sim", "runtime"). Deterministic self/total
///    costs are also mirrored as exact metrics so the comparator covers
///    them without special cases.
///  * env — git SHA, build flags, thread count. Optional (--no-env) so
///    records meant to be bit-compared can omit machine identity.
///
/// Reading back uses support/Json; writing is local to this component so
/// the format is producer-controlled (shortest round-trip doubles via the
/// telemetry arg formatter — parse(toJson(R)) reproduces every value
/// exactly).
///
//===----------------------------------------------------------------------===//

#ifndef DTB_REPORT_BENCHRECORD_H
#define DTB_REPORT_BENCHRECORD_H

#include "profiling/Profiler.h"

#include <cstdint>
#include <string>
#include <vector>

namespace dtb {
namespace report {

/// Bumped on any incompatible change to the JSON layout; bench_compare
/// refuses mixed-version comparisons (exit 2).
inline constexpr int BenchSchemaVersion = 1;

/// One named measurement. Exactly one of the two kinds:
///  * Exact: a single deterministic Value.
///  * Wall: Values holds one sample per repeat; Min/Median/Mad are derived
///    (finalize()).
struct BenchMetric {
  /// "/"-separated path, e.g. "sim/ghost/full/mem_mean_bytes" or
  /// "wall/quick/sim_grid_seconds".
  std::string Name;
  /// Measurement unit ("bytes", "count", "ms", "seconds", "ratio").
  std::string Unit;
  /// Direction of improvement; the comparator needs it to tell a
  /// regression from a win.
  bool LowerIsBetter = true;
  bool Exact = true;

  double Value = 0.0;         // Exact kind only.
  std::vector<double> Values; // Wall kind only: one sample per repeat.
  double Min = 0.0;
  double Median = 0.0;
  /// Median absolute deviation of Values — the robust noise floor the
  /// comparator scales into its threshold.
  double Mad = 0.0;

  /// Computes Min/Median/Mad from Values (wall kind).
  void finalize();
};

/// Per-phase aggregate snapshot for the "phases" block.
struct BenchPhase {
  std::string Domain; // "sim" or "runtime".
  std::string Name;   // profiling::phase:: taxonomy name.
  uint64_t Count = 0;
  uint64_t SelfCost = 0;
  uint64_t TotalCost = 0;
  double P50 = 0.0;
  double P90 = 0.0;
  double P99 = 0.0;
  double Stddev = 0.0;
};

/// One BENCH_<suite>.json document.
struct BenchRecord {
  int SchemaVersion = BenchSchemaVersion;
  std::string Suite;

  /// Environment identity; omitted from the JSON when HasEnv is false.
  bool HasEnv = false;
  std::string GitSha;
  std::string BuildFlags;
  unsigned Threads = 0;
  /// Trace lanes the runtime stages collected with. Distinguishes records
  /// from different --threads runs: the deterministic metrics are
  /// bit-identical across lane counts, but the wall metrics are not.
  unsigned TraceLanes = 0;

  /// Emission order is preserved in the JSON; lookup is by name.
  std::vector<BenchMetric> Metrics;
  std::vector<BenchPhase> Phases;

  /// Appends an exact metric.
  void addExact(std::string Name, std::string Unit, double Value,
                bool LowerIsBetter = true);
  /// Appends a wall metric from raw repeat samples (finalized).
  void addWall(std::string Name, std::string Unit,
               std::vector<double> Values, bool LowerIsBetter = true);

  /// Metric lookup by full name; nullptr when absent.
  const BenchMetric *findMetric(const std::string &Name) const;
};

/// Folds a profiler's aggregates into \p Record: one BenchPhase per phase
/// under \p Domain, plus exact metrics "phase/<domain>/<name>/self_cost"
/// and ".../total_cost" so phase costs ride the normal comparator path.
void addProfileToRecord(const profiling::PhaseProfiler &Profiler,
                        const std::string &Domain, BenchRecord &Record);

/// Renders \p Record as pretty-printed JSON (trailing newline included).
/// Doubles use shortest round-trip formatting: parsing the output
/// reproduces each value bit for bit.
std::string toJson(const BenchRecord &Record);

/// Parses a BENCH JSON document. Unknown schema versions parse fine (the
/// comparator decides what to do with them); malformed documents return
/// false with a one-line diagnostic in \p Error.
bool parseBenchRecord(const std::string &Text, BenchRecord *Out,
                      std::string *Error = nullptr);

} // namespace report
} // namespace dtb

#endif // DTB_REPORT_BENCHRECORD_H
