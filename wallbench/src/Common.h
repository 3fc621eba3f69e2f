//===- wallbench/src/Common.h - Shared benchmark machinery -----*- C++ -*-===//
//
// Part of the dtbgc project (Barrett & Zorn DTB reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every wallbench workload shares: the wall clock, the metric
/// report, the object stamps that check the mutator's data survives the
/// collector, the timing policy wrapper that tells a mutator call which
/// ran a collection, the in-memory span log written as a Perfetto-loadable
/// trace, and the run skeleton (repeated set-up, an untraced timed phase,
/// and for traced runs a second, traced phase).
///
/// Everything here drives the libraries through their public headers; no
/// instrumentation is added inside src/.
///
//===----------------------------------------------------------------------===//

#ifndef WALLBENCH_COMMON_H
#define WALLBENCH_COMMON_H

#include "core/BoundaryPolicy.h"
#include "core/Policies.h"
#include "profiling/Profiler.h"
#include "runtime/Heap.h"
#include "sim/Simulator.h"
#include "support/Statistics.h"
#include "trace/Trace.h"

#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace wallbench {

using namespace dtb;

/// Monotonic wall clock in nanoseconds.
inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// CPU time of the calling thread in nanoseconds. The kernel leaves out
/// time the host stole from the virtual CPU, and time the thread waited.
uint64_t threadCpuNs();

inline double secondsBetween(uint64_t StartNs, uint64_t EndNs) {
  return static_cast<double>(EndNs - StartNs) * 1e-9;
}

constexpr double MB = 1e6;

/// Moves the calling thread over every CPU the process may run on, one
/// slice at a time, and gives it back the whole set when destroyed.
///
/// The CPUs of a shared host are not equally fast for this code: with the
/// thread pinned, ghost's pause p50 read 32-36 us on one CPU and 21-25 us
/// on the others, run after run. A thread the scheduler leaves on one CPU
/// measures that CPU, so a run's figures flipped between two modes from one
/// run to the next (same seed: 19 or 28 us). Rotating gives every run the
/// same share of every CPU.
///
/// A thread inherits the affinity of the thread that starts it, so only
/// code that starts no threads may run under a rotation.
class CpuRotation {
public:
  static constexpr uint64_t SliceNs = 100'000'000;

  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation &) = delete;
  CpuRotation &operator=(const CpuRotation &) = delete;

  /// Moves to the next CPU once the current slice has run out.
  void tick(uint64_t NowNs) {
    if (NowNs >= SliceEndNs)
      next(NowNs);
  }
  /// Moves to the next CPU now; its slice ends SliceNs after \p NowNs.
  void next(uint64_t NowNs);

private:
  /// The CPUs the process may run on (empty: fewer than two, no rotation).
  std::vector<int> Cpus;
  size_t At = 0;
  uint64_t SliceEndNs = 0;
};

/// Command-line options of one run.
struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  /// Directory the traced run writes its span trace and per-collection
  /// CSV into.
  std::string OutDir = ".bench_out";
};

/// The metrics and output checks of one run. Metric order is insertion
/// order, so the printed report reads top-down like the doc.
class Report {
public:
  void add(const std::string &Name, double Value, const std::string &Unit);
  /// Records a failed output check; the run reports correct=false.
  void fail(const std::string &Why);
  /// A human-readable line printed above the metric block.
  void note(const std::string &Line) { Notes.push_back(Line); }

  bool correct() const { return Problems.empty(); }
  const std::vector<std::string> &problems() const { return Problems; }

  /// Prints notes, one "name value unit" line per metric, the output
  /// checks, and finally the whole metric set as one JSON line.
  void print(const Options &Opts) const;

  uint64_t Attempted = 0;
  uint64_t Failed = 0;

private:
  struct Metric {
    std::string Name;
    double Value;
    std::string Unit;
  };
  std::vector<Metric> Metrics;
  std::vector<std::string> Notes;
  std::vector<std::string> Problems;
};

//===----------------------------------------------------------------------===//
// Object stamps
//===----------------------------------------------------------------------===//

/// The 8-byte stamp the mutator writes into an object's raw data at
/// allocation and checks when it drops the object and at the end of the
/// run. A collector that frees, moves or overwrites a live object wrongly
/// turns into a stamp mismatch.
inline uint64_t stampFor(uint64_t Seed, uint64_t Serial) {
  uint64_t Z = Seed * 0x9E3779B97F4A7C15ull + Serial + 0x632BE59BD9B4E019ull;
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
  return Z ^ (Z >> 31);
}

inline void writeStamp(runtime::Object *O, uint64_t Stamp) {
  std::memcpy(O->rawData(), &Stamp, sizeof(Stamp));
}

inline bool stampMatches(const runtime::Object *O, uint64_t Stamp) {
  if (!O || !O->isAlive() || O->rawBytes() < sizeof(Stamp))
    return false;
  uint64_t Seen = 0;
  std::memcpy(&Seen, O->rawData(), sizeof(Seen));
  return Seen == Stamp;
}

//===----------------------------------------------------------------------===//
// Policy wrapper
//===----------------------------------------------------------------------===//

/// Wraps a paper policy and times every boundary decision. It is how the
/// benchmark sees collections from outside: chooseBoundary runs on the
/// thread that is collecting, with the world stopped, so the wrapper
///  * counts collections per thread (a mutator call ran a collection iff
///    this thread's count grew during it; with one mutator that is
///    exactly history().size() growing),
///  * remembers the 1-based index of the collection this thread ran last,
///  * samples the remembered-set size while it is consistent.
class TimedPolicy final : public core::BoundaryPolicy {
public:
  explicit TimedPolicy(std::unique_ptr<core::BoundaryPolicy> Inner)
      : Inner(std::move(Inner)) {}

  std::string name() const override { return Inner->name(); }
  core::AllocClock chooseBoundary(const core::BoundaryRequest &R) override;
  void reset() override { Inner->reset(); }

  /// Heap whose remembered set is sampled at each decision (optional).
  void watch(const runtime::Heap *H) { Watched = H; }
  /// Also reads the thread's CPU clock at each decision start (a system
  /// call, so only for the workload that uses it).
  void recordCpuTime() { CpuTime = true; }

  /// Collections the calling thread has run through this (or any) wrapper.
  static uint64_t collectionsOnThisThread();
  /// Index (Request.Index) of the calling thread's latest collection.
  static uint64_t lastIndexOnThisThread();
  /// Wall clock at the calling thread's latest decision start.
  static uint64_t lastStartNsOnThisThread();
  /// The calling thread's CPU time (threadCpuNs) at that decision start,
  /// when the deciding wrapper records it.
  static uint64_t lastStartCpuNsOnThisThread();

  /// Decision wall times in microseconds, in decision order.
  const SampleSet &decisionMicros() const { return DecisionUs; }
  uint64_t remSetMax() const { return RemSetMax; }
  void clearSamples() {
    DecisionUs = SampleSet();
    RemSetMax = 0;
  }

private:
  std::unique_ptr<core::BoundaryPolicy> Inner;
  const runtime::Heap *Watched = nullptr;
  bool CpuTime = false;
  /// Written only by the thread that owns the stopped world (or the one
  /// simulator thread), read after the mutators joined.
  SampleSet DecisionUs;
  uint64_t RemSetMax = 0;
};

/// createPolicy + TimedPolicy; fatal on an unknown name.
std::unique_ptr<TimedPolicy> makeTimedPolicy(const std::string &Name,
                                             const core::PolicyConfig &Cfg);

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

/// One complete span ("X" event in the Chrome/Perfetto trace format).
struct Span {
  const char *Name;
  uint32_t Thread;
  uint64_t StartNs;
  uint64_t DurNs;
  /// Collection index for collecting calls (0 = none).
  uint64_t Collection;
};

/// Spans kept in memory and written once at exit. Each thread appends to
/// its own buffer (no locking on the hot path); buffers are bounded so a
/// long run cannot exhaust memory, and the number dropped is reported.
class SpanLog {
public:
  static constexpr size_t MaxSpansPerBuffer = 40'000;

  class Buffer {
  public:
    void add(const char *Name, uint64_t StartNs, uint64_t EndNs,
             uint64_t Collection = 0) {
      if (Spans.size() >= MaxSpansPerBuffer) {
        Dropped += 1;
        return;
      }
      Spans.push_back({Name, Thread, StartNs, EndNs - StartNs, Collection});
    }

  private:
    friend class SpanLog;
    uint32_t Thread = 0;
    std::vector<Span> Spans;
    uint64_t Dropped = 0;
  };

  /// A fresh buffer for thread number \p Thread (stable address).
  Buffer &buffer(uint32_t Thread);

  /// Writes every buffer as {"traceEvents": [...]} to \p Path. Returns
  /// false on I/O failure.
  bool write(const std::string &Path) const;

  uint64_t spans() const;
  uint64_t dropped() const;

private:
  std::mutex Mu;
  std::vector<std::unique_ptr<Buffer>> Buffers;
};

//===----------------------------------------------------------------------===//
// Measurements shared by the runtime workloads
//===----------------------------------------------------------------------===//

/// One pause or stall: when the call ended and how long it took.
struct PauseSample {
  uint64_t EndNs;
  double Micros;
};

/// The quantile helper the report uses everywhere: nearest rank, 0 for an
/// empty set.
double quantileOf(const std::vector<double> &Values, double Q);
double quantileOfPauses(const std::vector<PauseSample> &Pauses, double Q);

/// First-half over second-half ratios of a timed phase, for the
/// steady-state guard.
struct HalfRatios {
  double Alloc = 0.0;
  double PauseP50 = 0.0;
};
HalfRatios halfRatios(uint64_t StartNs, uint64_t MidNs, uint64_t EndNs,
                      double BytesFirst, double BytesSecond,
                      const std::vector<PauseSample> &Pauses);

/// A collecting call, for the wall-vs-model table.
struct CollectingCall {
  double WallMicros;
  uint64_t TracedBytes;
};

/// Collector-layer totals of a timed phase, folded over every heap the
/// phase used.
struct CollectorTotals {
  uint64_t Count = 0;
  uint64_t TracedBytes = 0;
  uint64_t ReclaimedBytes = 0;
  uint64_t MovedObjects = 0;
  uint64_t MemPeakBytes = 0;
  profiling::PhaseProfiler Profile;
  SampleSet DecisionUs;
  uint64_t RemSetMax = 0;
  std::vector<CollectingCall> Calls;

  /// Folds in \p H's history records after \p FirstIndex, its phase
  /// profile, and \p Policy's decision samples.
  void absorb(const runtime::Heap &H, uint64_t FirstIndex,
              const TimedPolicy &Policy);
};

/// What one timed phase of a runtime workload measured.
struct PhaseStats {
  /// Wall seconds the mutators ran (program restarts excluded).
  double Seconds = 0.0;
  uint64_t AllocBytes = 0;
  uint64_t AllocBytesFirstHalf = 0;
  uint64_t Calls = 0;
  /// Mutator threads (gc_share is per mutator thread-second).
  unsigned Threads = 1;
  /// Calls during which the calling thread ran a collection, stamped with
  /// active time since the phase start.
  std::vector<PauseSample> Pauses;
  /// The fastest of those pauses for each collection index (slot
  /// Index - 1 of the heap's history) over every heap of the phase; +inf
  /// for an index the phase never timed. A workload that replays the same
  /// program on each fresh heap repeats every collection once per program.
  std::vector<double> FastestByIndex;
  /// Indexed the same way: the fastest repeat of each collection's segment
  /// (from the end of the previous collecting call, or the program's start,
  /// to the end of this one: mutator time and pause), and the bytes the
  /// program had allocated when the segment ended (the same every repeat).
  std::vector<double> FastestSegmentByIndex;
  std::vector<uint64_t> BytesByIndex;
  /// Programs the phase ran to their end (restarting workloads only).
  uint64_t CompletedPrograms = 0;
  /// Calls that only waited at a safepoint for another thread's collection.
  std::vector<PauseSample> Stalls;
  /// Wall ns of sampled calls that neither collected nor waited (traced).
  std::vector<double> AllocNs;
  CollectorTotals Totals;
};

/// Adds what every runtime workload reports from one phase. Untraced:
/// alloc_mb_per_s, pause_p50_us/pause_p99_us (+ pause.samples),
/// heap_peak_mb and the steady-state guard. alloc_mb_per_s is the whole
/// phase's and the pause quantiles are over every pause; with
/// \p FastestRepeats (a workload that replays one program on fresh heaps),
/// once a program has run to its end, alloc_mb_per_s is the program's
/// bytes over the sum of its segments' fastest repeats
/// (S.FastestSegmentByIndex) and the pause quantiles are over each
/// collection index's fastest repeat (S.FastestByIndex). Traced:
/// \p AllocMetric (ns
/// p50 of non-collecting calls), runtime.collect.*, collect.* (writing the
/// per-collection wall-vs-model CSV to \p CsvPath) and the policy decision
/// p50. Returns alloc MB/s.
double reportRuntimePhase(Report &Rep, const PhaseStats &S, bool Traced,
                          const char *AllocMetric, uint64_t TriggerBytes,
                          bool FastestRepeats, const std::string &CsvPath);

/// Adds collect.phase.<name>_us for every scavenge profiler phase,
/// per collection.
void addPhaseMetrics(Report &Rep, const profiling::PhaseProfiler &Profiler,
                     uint64_t Collections);

/// Drives the timed phase of a single-mutator workload on the direct
/// Heap API. The workload's loop brackets each heap call with before()
/// and after(); one clock read per call is enough untraced, because a
/// call that ran a collection is timed as the gap since the previous
/// call's read. A workload that restarts its program on a fresh heap
/// brackets the restart with beginRestart()/endRestart(), which keeps the
/// restart out of the measured wall time. A workload whose mutator starts
/// no threads passes a \p Rotation, which after() moves along.
class DirectPhase {
public:
  DirectPhase(runtime::Heap &H, TimedPolicy &Policy, double Seconds,
              SpanLog *Spans, CpuRotation *Rotation = nullptr);

  bool traced() const { return Buf != nullptr; }
  uint64_t before() const { return Buf ? nowNs() : 0; }
  /// Classifies the call that started at \p CallStart; returns false once
  /// the phase has run its seconds.
  bool after(uint64_t CallStart);

  void beginRestart();
  void endRestart(runtime::Heap &NewHeap, TimedPolicy &NewPolicy);

  PhaseStats finish();

private:
  void attach(runtime::Heap &NewHeap, TimedPolicy &NewPolicy);
  uint64_t allocated() const { return AllocDone + (H->now() - Clock0); }

  runtime::Heap *H = nullptr;
  TimedPolicy *Policy = nullptr;
  SpanLog::Buffer *Buf = nullptr;
  CpuRotation *Rotation = nullptr;
  uint64_t FirstIndex = 0;
  uint64_t Clock0 = 0;
  uint64_t AllocDone = 0;
  uint64_t Start = 0;
  uint64_t Excluded = 0;
  uint64_t RestartStart = 0;
  /// Wall clock at the end of the program's latest collecting call (its
  /// start before the first).
  uint64_t SegmentStart = 0;
  uint64_t MidNs = 0;
  uint64_t EndNs = 0;
  uint64_t Prev = 0;
  uint64_t Seen = 0;
  bool PastMid = false;
  PhaseStats S;
};

/// Peak resident set size of this process in MB (getrusage).
double rssPeakMb();

/// Size of the trace the simulator leg of a runtime workload replays (the
/// workload's model twin): small, so the leg holds many simulate() calls.
constexpr uint64_t TwinBytes = 5'000'000;

/// The simulator leg of a runtime workload: replays \p T through
/// sim::simulate under \p Policy for about \p Seconds, moving over the
/// CPUs, and returns the trace MB per wall second of the fastest call.
double simLegMbPerSecond(const trace::Trace &T, const std::string &Policy,
                         const core::PolicyConfig &Cfg, uint64_t TriggerBytes,
                         double Seconds);

/// Zero-valued entries for every per-layer metric a workload does not
/// load, so each run reports the whole per-layer set.
void addBypassedLayers(Report &Rep);

//===----------------------------------------------------------------------===//
// Run skeleton
//===----------------------------------------------------------------------===//

/// One workload, as the run skeleton sees it.
class Workload {
public:
  virtual ~Workload() = default;

  /// Builds fresh inputs and state from the seed (discarding any earlier
  /// state); everything the timed phase needs is ready on return.
  virtual void setup() = 0;
  /// True when setup() starts threads (so it may not run under a
  /// CpuRotation).
  virtual bool setupStartsThreads() const { return false; }
  /// Runs the closed loop for \p Seconds. Untraced phases report the
  /// end-to-end metrics plus the steady-state guard; traced phases
  /// (\p Spans non-null) report the per-layer ones. Returns the headline
  /// throughput in MB/s, which the traced run compares to get
  /// trace_overhead_pct.
  virtual double timed(double Seconds, SpanLog *Spans, Report &Rep) = 0;
  /// End-of-run output checks on the state the last timed phase left.
  virtual void check(Report &Rep) = 0;
  /// Measurements taken after the checks (the simulator leg); untraced
  /// runs only.
  virtual void after(double Seconds, Report &Rep) {
    (void)Seconds;
    (void)Rep;
  }
  /// Share of the run's seconds given to after().
  virtual double afterShare() const { return 0.0; }

  /// Self-test hooks: each breaks one thing check() must catch. A
  /// workload without the hook returns false.
  virtual bool corruptOneStamp() { return false; }
  virtual bool skewExpectedCount() { return false; }

  /// Where setup() records its trace-generation spans during a traced
  /// run's set-up (null otherwise).
  SpanLog::Buffer *SetupSpans = nullptr;
  /// Seconds of each set-up the timed phase ran itself (a workload that
  /// restarts its program calls setup() again); setup_s takes them into its
  /// median with the set-ups before the timed phase.
  std::vector<double> RestartSetups;
};

std::unique_ptr<Workload> makeGhost(const Options &Opts);
std::unique_ptr<Workload> makeCache(const Options &Opts);
std::unique_ptr<Workload> makeBigData(const Options &Opts);
std::unique_ptr<Workload> makeSimGrid(const Options &Opts);

/// Timed set-ups per run, after one untimed; setup_s is their median
/// (with any the timed phase ran itself).
constexpr int SetupRepeats = 8;

/// Runs \p W under \p Opts into \p Rep: 1 + SetupRepeats set-ups, then either
/// one untraced timed phase (+ after()), or an untraced and a traced half
/// each with its own set-up.
void runWorkload(Workload &W, const Options &Opts, Report &Rep);

/// The checker self-test: returns 0 when a corrupted stamp and a wrong
/// expected count are both caught.
int runSelfTest();

} // namespace wallbench

#endif // WALLBENCH_COMMON_H
