//===- profiling/Profiler.h - Scoped phase profiler ------------*- C++ -*-===//
//
// Part of the dtbgc project (Barrett & Zorn DTB reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A low-overhead scoped profiler that attributes collector work to named
/// *phases* — policy decision, root scan, trace/copy, remembered-set
/// scan/rebuild, promotion, sweep — so pause/throughput tradeoffs are
/// debuggable per phase instead of per scavenge (the LXR-style cost
/// breakdown the paper's tables lack).
///
/// Two cost dimensions per phase:
///
///  * allocation-clock cost — deterministic work units reported by the
///    instrumentation site (bytes traced/copied/reclaimed for marking
///    phases, demographic queries for the policy's boundary search).
///    Bit-identical for any thread count; this is what BENCH records and
///    the regression comparator gate on.
///  * wall time — real nanoseconds, nondeterministic, kept strictly out
///    of deterministic exports (same quarantine rule as telemetry's
///    "wall." metrics).
///
/// Phases nest: each scavenge produces a tree (finishScavenge() closes
/// it), and every phase accumulates self vs. total cost across the run —
/// self excludes enclosed child phases, total includes them. Per-entry
/// self-cost samples feed p50/p90/p99 and variance via support/Statistics.
///
/// The runtime heap and the trace-driven simulator instrument the *same
/// taxonomy* (profiling/Profiler.h's phase:: names), so a sim profile and
/// a runtime profile line up row for row.
///
/// A PhaseProfiler is single-threaded by design: one instance per Heap or
/// per simulate() call. Parallel drivers give each task its own profiler
/// and fold the aggregates in a fixed serial order (mergeFrom), keeping
/// the attribution deterministic.
///
/// Overhead: ProfilePhase checks PhaseProfiler::active() once at
/// construction (profiler enabled, or telemetry recording); an inactive
/// scope costs that check and nothing else.
///
//===----------------------------------------------------------------------===//

#ifndef DTB_PROFILING_PROFILER_H
#define DTB_PROFILING_PROFILER_H

#include "support/Statistics.h"
#include "support/Table.h"
#include "telemetry/Telemetry.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace dtb {
namespace profiling {

/// The shared phase taxonomy. The runtime and the simulator must report
/// through these names so their profiles are comparable; new phases are
/// fine, ad-hoc spellings of these are not.
namespace phase {
inline constexpr const char *PolicyDecision = "policy_decision";
inline constexpr const char *BoundarySearch = "boundary_search";
inline constexpr const char *RootScan = "root_scan";
inline constexpr const char *RemSetScan = "remset_scan";
inline constexpr const char *Trace = "trace";
inline constexpr const char *Promote = "promote";
inline constexpr const char *WeakRefs = "weak_refs";
inline constexpr const char *Sweep = "sweep";
inline constexpr const char *RemSetRebuild = "remset_rebuild";
/// Stop-the-world pause anatomy (multi-mutator runtime only; heaps with
/// no registered contexts never enter these). Rendezvous covers the
/// whole stop — waiting out mid-op contexts plus publication — with
/// Publication (cost = published pending-allocation bytes) and
/// BarrierFlush (cost = barrier entries delivered) nested inside it;
/// WorldRelease (cost = contexts to wake) is recorded by the collection
/// epilogue for the pending resume, so a pause decomposes end-to-end in
/// the cost-attribution table. Costs are deterministic counts, never
/// wall time.
inline constexpr const char *Rendezvous = "rendezvous";
inline constexpr const char *Publication = "publication";
inline constexpr const char *BarrierFlush = "barrier_flush";
inline constexpr const char *WorldRelease = "world_release";
} // namespace phase

/// Cross-run aggregate for one phase name.
struct PhaseAggregate {
  /// Times the phase was entered.
  uint64_t Count = 0;
  /// Work units attributed directly to the phase (children excluded).
  uint64_t SelfCost = 0;
  /// Work units including enclosed child phases.
  uint64_t TotalCost = 0;
  /// One self-cost sample per entry; quantiles/variance for the cost
  /// attribution summary.
  SampleSet SelfCostSamples;
  /// Wall nanoseconds excluding children (nondeterministic; never part of
  /// deterministic exports).
  double WallSelfNanos = 0.0;
};

/// One node of the most recent scavenge's phase tree, in pre-order.
struct PhaseTreeNode {
  const char *Name = nullptr;
  /// Index of the enclosing node in the pre-order vector (-1 for roots).
  int Parent = -1;
  uint64_t SelfCost = 0;
  uint64_t TotalCost = 0;
};

/// Per-collector phase profiler; see the file comment.
class PhaseProfiler {
public:
  /// Whether ProfilePhase scopes should record right now: explicitly
  /// enabled, or the telemetry recorder is live.
  bool active() const { return Enabled || telemetry::enabled(); }

  /// Forces recording on/off independent of telemetry (the bench driver
  /// profiles without exporting an event stream).
  void setEnabled(bool On) { Enabled = On; }

  /// Opens a phase frame. Callers use ProfilePhase, which pairs enter and
  /// exit and remembers whether the profiler was active at entry.
  void enter(const char *Name);
  /// Attributes \p Units of deterministic work to the innermost frame.
  void addCost(uint64_t Units);
  /// Closes the innermost frame and folds it into the aggregates.
  void exit();

  /// Ends the current scavenge's tree: requires every frame closed, then
  /// publishes it as lastTree() and starts a fresh one.
  void finishScavenge();

  /// The completed phase tree of the most recent finishScavenge(), in
  /// pre-order.
  const std::vector<PhaseTreeNode> &lastTree() const { return LastTree; }

  /// Cross-run aggregates, keyed by phase name (std::map: stable sorted
  /// iteration for deterministic export).
  const std::map<std::string, PhaseAggregate> &aggregates() const {
    return Aggregates;
  }

  /// Folds \p Other's aggregates into this profiler. Parallel drivers call
  /// this in a fixed serial order so the merged attribution is independent
  /// of scheduling.
  void mergeFrom(const PhaseProfiler &Other);

  /// Drops all aggregates and any open tree.
  void reset();

private:
  struct Frame {
    const char *Name;
    int TreeIndex;
    uint64_t SelfCost = 0;
    uint64_t ChildTotalCost = 0;
    double ChildWallNanos = 0.0;
    std::chrono::steady_clock::time_point WallStart;
  };

  bool Enabled = false;
  std::vector<Frame> Stack;
  /// Pre-order nodes of the scavenge being recorded; moved to LastTree by
  /// finishScavenge().
  std::vector<PhaseTreeNode> Tree;
  std::vector<PhaseTreeNode> LastTree;
  std::map<std::string, PhaseAggregate> Aggregates;
};

/// RAII phase scope. Arms itself only when \p Profiler is non-null and
/// active at construction, so a scope opened before recording starts never
/// runs an unmatched exit.
class ProfilePhase {
public:
  ProfilePhase(PhaseProfiler *Profiler, const char *Name)
      : Profiler(Profiler && Profiler->active() ? Profiler : nullptr) {
    if (this->Profiler)
      this->Profiler->enter(Name);
  }
  ~ProfilePhase() {
    if (Profiler)
      Profiler->exit();
  }
  /// Attributes \p Units of deterministic work to this phase.
  void addCost(uint64_t Units) {
    if (Profiler)
      Profiler->addCost(Units);
  }

  ProfilePhase(const ProfilePhase &) = delete;
  ProfilePhase &operator=(const ProfilePhase &) = delete;

private:
  PhaseProfiler *Profiler;
};

/// Renders the cost-attribution summary: the top \p TopN phases by self
/// cost with count, self/total cost, self share, p50/p90/p99 and standard
/// deviation of per-entry self cost. Deterministic (wall time excluded).
Table buildCostAttributionTable(const PhaseProfiler &Profiler,
                                size_t TopN = 16);

} // namespace profiling
} // namespace dtb

#endif // DTB_PROFILING_PROFILER_H
