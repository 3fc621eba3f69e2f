//===- sim/Simulator.h - Trace-driven collector simulation -----*- C++ -*-===//
//
// Part of the dtbgc project (Barrett & Zorn DTB reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The trace-driven garbage-collection simulator of the paper's §5:
/// allocation/deallocation events drive a heap model; scavenges are
/// triggered after every TriggerBytes of allocation (paper: 1 MB); a
/// threatening-boundary policy chooses what to collect; and the simulator
/// records memory usage, pause times, and tracing work, which are then
/// reduced to the paper's Table 2/3/4 metrics.
///
//===----------------------------------------------------------------------===//

#ifndef DTB_SIM_SIMULATOR_H
#define DTB_SIM_SIMULATOR_H

#include "core/BoundaryPolicy.h"
#include "core/MachineModel.h"
#include "core/ScavengeHistory.h"
#include "profiling/Profiler.h"
#include "sim/HeapModel.h"
#include "support/Statistics.h"
#include "trace/Trace.h"

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace dtb {
namespace sim {

class TriggerPolicy;

/// Snapshot handed to a ScavengeObserver immediately after each simulated
/// scavenge completes. All references point at simulator-internal state
/// and are valid only for the duration of the callback.
struct ScavengeObservation {
  /// The scavenge record just appended to the history (index, time,
  /// boundary, traced/reclaimed/survived/mem-before bytes).
  const core::ScavengeRecord &Record;
  /// Rule identifier the policy reported through BoundaryRequest::RuleFired
  /// ("unspecified" when the policy wrote nothing).
  const std::string &RuleFired;
  /// Degradation note the policy reported, if any (empty otherwise).
  const std::string &DegradationNote;
  /// The post-scavenge heap model: only live objects born after the
  /// boundary plus unthreatened residents remain.
  const HeapModel &Heap;
  /// Machine-model pause for this scavenge in milliseconds.
  double PauseMillis = 0.0;
};

/// Callback invoked after every scavenge; the conformance harness uses it
/// to drive the managed runtime to the same allocation clock and
/// cross-check outcomes in lockstep. Throwing from the observer aborts
/// the simulation (the exception propagates out of simulate()).
using ScavengeObserver = std::function<void(const ScavengeObservation &)>;

/// Static simulation parameters.
struct SimulatorConfig {
  /// Bytes of allocation between scavenges (paper: 1,000,000). Ignored
  /// when Trigger is set.
  uint64_t TriggerBytes = 1'000'000;
  /// Optional when-to-collect policy (sim/Trigger.h); overrides
  /// TriggerBytes. Not owned; must outlive the simulation.
  TriggerPolicy *Trigger = nullptr;
  /// The pause/overhead cost model (paper: 10 MIPS, 500 KB/s tracing).
  core::MachineModel Machine;
  /// Mutator execution time in seconds, used for the CPU-overhead
  /// percentage; comes from the workload definition. Zero disables the
  /// overhead computation.
  double ProgramSeconds = 0.0;
  /// When true, record a (clock, resident bytes) curve for figures.
  bool RecordMemoryCurve = false;
  /// Curve sampling granularity between scavenges.
  uint64_t CurveSampleBytes = 100'000;
  /// When true, the heap model answers oracle queries with the original
  /// O(residents) scans instead of the incremental indexes — the timing
  /// baseline for bench_driver --suite timing. Results are identical
  /// either way.
  bool UseNaiveHeapQueries = false;
  /// When true, every indexed heap-model query is cross-checked against
  /// the naive scan (fatal on divergence). For tests; very slow.
  bool CrossCheckHeapQueries = false;
  /// Telemetry timeline for this run's events ("sim/<workload>/<policy>").
  /// Empty keeps the run silent even when the recorder is enabled — the
  /// default, so parallel grid cells must opt in with distinct tracks.
  std::string TelemetryTrack;
  /// Optional per-scavenge callback (conformance harness). Setting it also
  /// forces the rule-fired and degradation-note sinks on, independent of
  /// telemetry.
  ScavengeObserver OnScavenge;
  /// Optional phase profiler: the simulator attributes each scavenge's
  /// work to the shared phase taxonomy (profiling/Profiler.h) — policy
  /// decision and boundary search by demographic-query count, trace and
  /// sweep by bytes — so sim profiles line up with runtime profiles row
  /// for row. Not owned; one profiler per concurrent simulate() call.
  profiling::PhaseProfiler *Profiler = nullptr;
};

/// One point of the Figure-2-style memory curve.
struct MemoryCurvePoint {
  core::AllocClock Clock = 0;
  uint64_t ResidentBytes = 0;
  /// True for the post-scavenge point (the vertical drop in Figure 2).
  bool AfterScavenge = false;
};

/// Everything measured by one simulation run.
struct SimulationResult {
  /// Per-scavenge records (t_n, TB_n, Trace_n, Mem_n, S_n, ...).
  core::ScavengeHistory History;

  /// Time-weighted mean and max of resident bytes (Table 2 rows).
  double MemMeanBytes = 0.0;
  uint64_t MemMaxBytes = 0;

  /// Per-scavenge pause times in milliseconds (Table 3 medians/90ths).
  SampleSet PauseMillis;

  /// Total bytes traced over the run and the CPU overhead (Table 4).
  uint64_t TotalTracedBytes = 0;
  double CpuOverheadPercent = 0.0;

  uint64_t NumScavenges = 0;

  /// Optional Figure-2 curve (empty unless requested).
  std::vector<MemoryCurvePoint> Curve;
};

/// Runs \p Policy over \p T under \p Config. The policy is reset() first,
/// so a policy instance may be reused across runs.
SimulationResult simulate(const trace::Trace &T, core::BoundaryPolicy &Policy,
                          const SimulatorConfig &Config);

} // namespace sim
} // namespace dtb

#endif // DTB_SIM_SIMULATOR_H
