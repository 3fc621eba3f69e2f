//===- wallbench/src/Common.cpp - Shared benchmark machinery -------------===//
//
// Part of the dtbgc project (Barrett & Zorn DTB reproduction).
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "core/MachineModel.h"
#include "support/Error.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <optional>
#include <sched.h>
#include <sys/resource.h>

namespace wallbench {

//===----------------------------------------------------------------------===//
// CpuRotation
//===----------------------------------------------------------------------===//

namespace {

void runOn(const std::vector<int> &Cpus) {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  for (int C : Cpus)
    CPU_SET(C, &Set);
  if (sched_setaffinity(0, sizeof(Set), &Set) != 0)
    std::perror("wallbench: sched_setaffinity");
}

} // namespace

CpuRotation::CpuRotation() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (sched_getaffinity(0, sizeof(Set), &Set) != 0)
    return;
  for (int C = 0; C != CPU_SETSIZE; ++C)
    if (CPU_ISSET(C, &Set))
      Cpus.push_back(C);
  if (Cpus.size() < 2)
    Cpus.clear();
}

CpuRotation::~CpuRotation() {
  if (!Cpus.empty())
    runOn(Cpus);
}

void CpuRotation::next(uint64_t NowNs) {
  SliceEndNs = NowNs + SliceNs;
  if (Cpus.empty())
    return;
  runOn({Cpus[At]});
  At = (At + 1) % Cpus.size();
}

//===----------------------------------------------------------------------===//
// Report
//===----------------------------------------------------------------------===//

void Report::add(const std::string &Name, double Value,
                 const std::string &Unit) {
  for (Metric &M : Metrics)
    if (M.Name == Name) {
      M.Value = Value;
      M.Unit = Unit;
      return;
    }
  Metrics.push_back({Name, Value, Unit});
}

void Report::fail(const std::string &Why) { Problems.push_back(Why); }

namespace {

std::string jsonEscape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      Out += ' ';
    } else {
      Out += C;
    }
  }
  return Out;
}

/// Shortest round-tripping decimal (every digit as measured); non-finite
/// values become 0 so the JSON stays valid.
std::string jsonNumber(double V) {
  if (!std::isfinite(V))
    return "0";
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

} // namespace

void Report::print(const Options &Opts) const {
  for (const std::string &Line : Notes)
    std::printf("%s\n", Line.c_str());
  std::printf("\n%-40s %16s  %s\n", "metric", "value", "unit");
  for (const Metric &M : Metrics)
    std::printf("%-40s %16.6g  %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str());
  std::printf("\noutput check: %s (%" PRIu64 " attempted, %" PRIu64
              " failed)\n",
              correct() ? "PASS" : "FAIL", Attempted, Failed);
  for (const std::string &P : Problems)
    std::printf("  check failed: %s\n", P.c_str());

  std::printf("{\"workload\": \"%s\", \"trace\": %d, \"correct\": %s, "
              "\"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              jsonEscape(Opts.Workload).c_str(), Opts.Trace ? 1 : 0,
              correct() ? "true" : "false", Attempted, Failed);
  for (size_t I = 0; I != Metrics.size(); ++I)
    std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}", I ? ", " : "",
                jsonEscape(Metrics[I].Name).c_str(),
                jsonNumber(Metrics[I].Value).c_str(),
                jsonEscape(Metrics[I].Unit).c_str());
  std::printf("}}\n");
  std::fflush(stdout);
}

//===----------------------------------------------------------------------===//
// TimedPolicy
//===----------------------------------------------------------------------===//

namespace {
thread_local uint64_t ThreadCollections = 0;
thread_local uint64_t ThreadLastIndex = 0;
thread_local uint64_t ThreadLastStartNs = 0;
thread_local uint64_t ThreadLastStartCpuNs = 0;
} // namespace

uint64_t threadCpuNs() {
  timespec Ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &Ts);
  return static_cast<uint64_t>(Ts.tv_sec) * 1'000'000'000ull +
         static_cast<uint64_t>(Ts.tv_nsec);
}

core::AllocClock TimedPolicy::chooseBoundary(const core::BoundaryRequest &R) {
  if (CpuTime)
    ThreadLastStartCpuNs = threadCpuNs();
  uint64_t Start = nowNs();
  ThreadLastStartNs = Start;
  core::AllocClock Boundary = Inner->chooseBoundary(R);
  DecisionUs.add(static_cast<double>(nowNs() - Start) * 1e-3);
  if (Watched)
    RemSetMax = std::max<uint64_t>(RemSetMax, Watched->rememberedSet().size());
  ThreadCollections += 1;
  ThreadLastIndex = R.Index;
  return Boundary;
}

uint64_t TimedPolicy::collectionsOnThisThread() { return ThreadCollections; }
uint64_t TimedPolicy::lastIndexOnThisThread() { return ThreadLastIndex; }
uint64_t TimedPolicy::lastStartNsOnThisThread() { return ThreadLastStartNs; }
uint64_t TimedPolicy::lastStartCpuNsOnThisThread() {
  return ThreadLastStartCpuNs;
}

std::unique_ptr<TimedPolicy> makeTimedPolicy(const std::string &Name,
                                             const core::PolicyConfig &Cfg) {
  std::unique_ptr<core::BoundaryPolicy> Inner = core::createPolicy(Name, Cfg);
  if (!Inner)
    fatalError("wallbench: unknown policy " + Name);
  return std::make_unique<TimedPolicy>(std::move(Inner));
}

//===----------------------------------------------------------------------===//
// SpanLog
//===----------------------------------------------------------------------===//

SpanLog::Buffer &SpanLog::buffer(uint32_t Thread) {
  std::lock_guard<std::mutex> Lock(Mu);
  Buffers.push_back(std::make_unique<Buffer>());
  Buffers.back()->Thread = Thread;
  Buffers.back()->Spans.reserve(4096);
  return *Buffers.back();
}

uint64_t SpanLog::spans() const {
  uint64_t N = 0;
  for (const auto &B : Buffers)
    N += B->Spans.size();
  return N;
}

uint64_t SpanLog::dropped() const {
  uint64_t N = 0;
  for (const auto &B : Buffers)
    N += B->Dropped;
  return N;
}

bool SpanLog::write(const std::string &Path) const {
  std::error_code Ec;
  std::filesystem::path P(Path);
  if (P.has_parent_path())
    std::filesystem::create_directories(P.parent_path(), Ec);
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  uint64_t Origin = UINT64_MAX;
  for (const auto &B : Buffers)
    for (const Span &S : B->Spans)
      Origin = std::min(Origin, S.StartNs);
  std::fprintf(F, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
  bool First = true;
  for (const auto &B : Buffers)
    for (const Span &S : B->Spans) {
      std::fprintf(F,
                   "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f",
                   First ? "" : ",\n", S.Name, S.Thread,
                   static_cast<double>(S.StartNs - Origin) * 1e-3,
                   static_cast<double>(S.DurNs) * 1e-3);
      if (S.Collection)
        std::fprintf(F, ", \"args\": {\"collection\": %" PRIu64 "}",
                     S.Collection);
      std::fprintf(F, "}");
      First = false;
    }
  std::fprintf(F, "\n]}\n");
  return std::fclose(F) == 0;
}

//===----------------------------------------------------------------------===//
// Measurements
//===----------------------------------------------------------------------===//

double quantileOf(const std::vector<double> &Values, double Q) {
  SampleSet S;
  for (double V : Values)
    S.add(V);
  return S.quantile(Q);
}

double quantileOfPauses(const std::vector<PauseSample> &Pauses, double Q) {
  std::vector<double> Us;
  Us.reserve(Pauses.size());
  for (const PauseSample &P : Pauses)
    Us.push_back(P.Micros);
  return quantileOf(Us, Q);
}

HalfRatios halfRatios(uint64_t StartNs, uint64_t MidNs, uint64_t EndNs,
                      double BytesFirst, double BytesSecond,
                      const std::vector<PauseSample> &Pauses) {
  HalfRatios R;
  double First = BytesFirst / secondsBetween(StartNs, MidNs);
  double Second = BytesSecond / secondsBetween(MidNs, EndNs);
  R.Alloc = Second > 0.0 ? First / Second : 0.0;
  std::vector<double> A, B;
  for (const PauseSample &P : Pauses)
    (P.EndNs < MidNs ? A : B).push_back(P.Micros);
  double PB = quantileOf(B, 0.5);
  R.PauseP50 = PB > 0.0 ? quantileOf(A, 0.5) / PB : 0.0;
  return R;
}

double rssPeakMb() {
  struct rusage Usage {};
  getrusage(RUSAGE_SELF, &Usage);
  return static_cast<double>(Usage.ru_maxrss) * 1024.0 / MB;
}

namespace {

/// Every scavenge phase of the shared taxonomy (the per-lane phase lives in
/// the lane profiler and is not a scavenge phase).
const char *const ReportedPhases[] = {
    profiling::phase::PolicyDecision, profiling::phase::BoundarySearch,
    profiling::phase::RootScan,       profiling::phase::RemSetScan,
    profiling::phase::Trace,          profiling::phase::Promote,
    profiling::phase::WeakRefs,       profiling::phase::Sweep,
    profiling::phase::RemSetRebuild,  profiling::phase::Rendezvous,
    profiling::phase::Publication,    profiling::phase::BarrierFlush,
    profiling::phase::WorldRelease};

double phaseWallNanos(const profiling::PhaseProfiler &Profiler,
                      const char *Name) {
  auto It = Profiler.aggregates().find(Name);
  return It == Profiler.aggregates().end() ? 0.0 : It->second.WallSelfNanos;
}

} // namespace

void addPhaseMetrics(Report &Rep, const profiling::PhaseProfiler &Profiler,
                     uint64_t Collections) {
  for (const char *Name : ReportedPhases)
    Rep.add(std::string("collect.phase.") + Name + "_us",
            Collections ? phaseWallNanos(Profiler, Name) * 1e-3 /
                              static_cast<double>(Collections)
                        : 0.0,
            "us");
}

void CollectorTotals::absorb(const runtime::Heap &H, uint64_t FirstIndex,
                             const TimedPolicy &Policy) {
  for (const core::ScavengeRecord &R : H.history().records()) {
    if (R.Index <= FirstIndex)
      continue;
    Count += 1;
    TracedBytes += R.TracedBytes;
    ReclaimedBytes += R.ReclaimedBytes;
    MemPeakBytes = std::max(MemPeakBytes, R.MemBeforeBytes);
  }
  Profile.mergeFrom(H.profiler());
  for (double V : Policy.decisionMicros().samples())
    DecisionUs.add(V);
  RemSetMax = std::max(RemSetMax, Policy.remSetMax());
}

namespace {

/// collect.* from the totals, and the wall-vs-model comparison: the
/// paper's machine model prices a collection at TracedBytes / 500 KB/s;
/// the measured wall pause is the collecting call's wall time.
void addCollectorMetrics(Report &Rep, const PhaseStats &S,
                         const std::string &CsvPath) {
  const CollectorTotals &T = S.Totals;
  const profiling::PhaseProfiler &Profile = T.Profile;
  double TraceWallNs = phaseWallNanos(Profile, profiling::phase::RootScan) +
                       phaseWallNanos(Profile, profiling::phase::RemSetScan) +
                       phaseWallNanos(Profile, profiling::phase::Trace) +
                       phaseWallNanos(Profile, profiling::phase::Promote);
  double SweepWallNs = phaseWallNanos(Profile, profiling::phase::Sweep);
  double PauseSumUs = 0.0;
  for (const CollectingCall &C : T.Calls)
    PauseSumUs += C.WallMicros;

  Rep.add("collect.count", static_cast<double>(T.Count), "count");
  Rep.add("collect.traced_mb", static_cast<double>(T.TracedBytes) / MB, "MB");
  Rep.add("collect.reclaimed_mb", static_cast<double>(T.ReclaimedBytes) / MB,
          "MB");
  Rep.add("collect.moved_objects", static_cast<double>(T.MovedObjects),
          "count");
  Rep.add("collect.gc_share", PauseSumUs * 1e-6 / (S.Seconds * S.Threads),
          "ratio");
  addPhaseMetrics(Rep, Profile, T.Count);
  Rep.add("collect.trace_mb_per_s",
          TraceWallNs > 0.0
              ? static_cast<double>(T.TracedBytes) / MB / (TraceWallNs * 1e-9)
              : 0.0,
          "MB/s");
  Rep.add("collect.sweep_mb_per_s",
          SweepWallNs > 0.0 ? static_cast<double>(T.ReclaimedBytes) / MB /
                                  (SweepWallNs * 1e-9)
                            : 0.0,
          "MB/s");

  core::MachineModel Model;
  double ModelMs = 0.0, WallMs = 0.0;
  std::FILE *Csv = nullptr;
  if (!CsvPath.empty()) {
    std::error_code Ec;
    std::filesystem::path P(CsvPath);
    if (P.has_parent_path())
      std::filesystem::create_directories(P.parent_path(), Ec);
    Csv = std::fopen(CsvPath.c_str(), "w");
    if (Csv)
      std::fprintf(Csv, "call,traced_bytes,model_ms,wall_ms\n");
  }
  size_t Stride = std::max<size_t>(1, T.Calls.size() / 8);
  std::printf("wall vs model, every %zu-th of %zu collecting calls:\n",
              Stride, T.Calls.size());
  std::printf("  %8s %12s %12s %12s\n", "call", "traced KB", "model ms",
              "wall ms");
  for (size_t I = 0; I != T.Calls.size(); ++I) {
    const CollectingCall &C = T.Calls[I];
    double M = Model.pauseMillisForTracedBytes(C.TracedBytes);
    double W = C.WallMicros * 1e-3;
    ModelMs += M;
    WallMs += W;
    if (Csv)
      std::fprintf(Csv, "%zu,%" PRIu64 ",%.6f,%.6f\n", I, C.TracedBytes, M,
                   W);
    if (I % Stride == 0)
      std::printf("  %8zu %12.1f %12.3f %12.4f\n", I,
                  static_cast<double>(C.TracedBytes) / 1e3, M, W);
  }
  if (Csv)
    std::fclose(Csv);
  Rep.add("collect.model_over_wall", WallMs > 0.0 ? ModelMs / WallMs : 0.0,
          "ratio");
}

} // namespace

double reportRuntimePhase(Report &Rep, const PhaseStats &S, bool Traced,
                          const char *AllocMetric, uint64_t TriggerBytes,
                          bool FastestRepeats, const std::string &CsvPath) {
  const double MbPerS = static_cast<double>(S.AllocBytes) / MB / S.Seconds;
  Rep.Attempted += S.Calls;
  if (!Traced) {
    if (FastestRepeats && S.CompletedPrograms != 0) {
      std::vector<double> Fastest;
      for (double Us : S.FastestByIndex)
        if (std::isfinite(Us))
          Fastest.push_back(Us);
      // A whole program (0.1-1 s) rarely runs in a quiet spell from end to
      // end; its ~250-450 segments, a fraction of a millisecond or a few
      // milliseconds each, do.
      double SegmentUs = 0.0;
      for (double Us : S.FastestSegmentByIndex)
        if (std::isfinite(Us))
          SegmentUs += Us;
      Rep.add("alloc_mb_per_s",
              static_cast<double>(S.BytesByIndex.back()) / SegmentUs, "MB/s");
      Rep.add("pause_p50_us", quantileOf(Fastest, 0.5), "us");
      Rep.add("pause_p99_us", quantileOf(Fastest, 0.99), "us");
      Rep.add("repeat.programs", static_cast<double>(S.CompletedPrograms),
              "count");
      Rep.add("repeat.collections", static_cast<double>(Fastest.size()),
              "count");
    } else {
      Rep.add("alloc_mb_per_s", MbPerS, "MB/s");
      Rep.add("pause_p50_us", quantileOfPauses(S.Pauses, 0.5), "us");
      Rep.add("pause_p99_us", quantileOfPauses(S.Pauses, 0.99), "us");
    }
    Rep.add("pause.samples", static_cast<double>(S.Pauses.size()), "count");
    Rep.add("heap_peak_mb", static_cast<double>(S.Totals.MemPeakBytes) / MB,
            "MB");
    uint64_t Mid = static_cast<uint64_t>(S.Seconds * 0.5e9);
    HalfRatios Halves = halfRatios(
        0, Mid, static_cast<uint64_t>(S.Seconds * 1e9),
        static_cast<double>(S.AllocBytesFirstHalf),
        static_cast<double>(S.AllocBytes - S.AllocBytesFirstHalf), S.Pauses);
    Rep.add("steady.alloc_half_ratio", Halves.Alloc, "ratio");
    Rep.add("steady.pause_half_ratio", Halves.PauseP50, "ratio");
    return MbPerS;
  }
  Rep.add(AllocMetric, quantileOf(S.AllocNs, 0.5), "ns");
  Rep.add("runtime.remset.entries_max",
          static_cast<double>(S.Totals.RemSetMax), "count");
  Rep.add("runtime.collect.per_trigger",
          static_cast<double>(S.Totals.Count) /
              (static_cast<double>(S.AllocBytes) / TriggerBytes),
          "ratio");
  Rep.add("runtime.collect.pause_p50_us",
          quantileOfPauses(S.Pauses, 0.5), "us");
  Rep.add("runtime.collect.pause_p99_us",
          quantileOfPauses(S.Pauses, 0.99), "us");
  addCollectorMetrics(Rep, S, CsvPath);
  Rep.add("policy.decision_us_p50", S.Totals.DecisionUs.median(), "us");
  return MbPerS;
}

//===----------------------------------------------------------------------===//
// DirectPhase
//===----------------------------------------------------------------------===//

DirectPhase::DirectPhase(runtime::Heap &H, TimedPolicy &Policy,
                         double Seconds, SpanLog *Spans,
                         CpuRotation *Rotation)
    : Buf(Spans ? &Spans->buffer(0) : nullptr), Rotation(Rotation) {
  attach(H, Policy);
  Start = Prev = SegmentStart = nowNs();
  EndNs = static_cast<uint64_t>(Seconds * 1e9);
  MidNs = EndNs / 2;
}

void DirectPhase::attach(runtime::Heap &NewHeap, TimedPolicy &NewPolicy) {
  H = &NewHeap;
  Policy = &NewPolicy;
  Policy->clearSamples();
  H->profiler().setEnabled(traced());
  FirstIndex = H->history().size();
  Clock0 = H->now();
  Seen = TimedPolicy::collectionsOnThisThread();
}

bool DirectPhase::after(uint64_t CallStart) {
  uint64_t T = nowNs();
  if (Rotation)
    Rotation->tick(T);
  S.Calls += 1;
  uint64_t Active = T - Start - Excluded;
  uint64_t Now = TimedPolicy::collectionsOnThisThread();
  if (Now != Seen) {
    // This call ran a collection: a pause, timed as the gap since the
    // previous call's clock read.
    Seen = Now;
    double Us = static_cast<double>(T - Prev) * 1e-3;
    S.Pauses.push_back({Active, Us});
    size_t Index = H->history().size();
    if (S.FastestByIndex.size() < Index) {
      S.FastestByIndex.resize(Index, HUGE_VAL);
      S.FastestSegmentByIndex.resize(Index, HUGE_VAL);
      S.BytesByIndex.resize(Index, 0);
    }
    S.FastestByIndex[Index - 1] = std::min(S.FastestByIndex[Index - 1], Us);
    S.FastestSegmentByIndex[Index - 1] =
        std::min(S.FastestSegmentByIndex[Index - 1],
                 static_cast<double>(T - SegmentStart) * 1e-3);
    S.BytesByIndex[Index - 1] = H->now() - Clock0;
    SegmentStart = T;
    S.Totals.Calls.push_back({Us, H->history().last().TracedBytes});
    S.Totals.MovedObjects += H->lastCollectionStats().ObjectsMoved;
    if (Buf)
      Buf->add("allocate+collect", Prev, T, H->history().size());
  } else if (Buf) {
    if ((S.Calls & 15) == 0)
      S.AllocNs.push_back(static_cast<double>(T - CallStart));
    if ((S.Calls & 1023) == 0)
      Buf->add("allocate", CallStart, T);
  }
  Prev = T;
  if (!PastMid && Active >= MidNs) {
    PastMid = true;
    S.AllocBytesFirstHalf = allocated();
  }
  return Active < EndNs;
}

void DirectPhase::beginRestart() {
  RestartStart = nowNs();
  AllocDone = allocated();
  S.CompletedPrograms += 1;
  S.Totals.absorb(*H, FirstIndex, *Policy);
  H->profiler().setEnabled(false);
}

void DirectPhase::endRestart(runtime::Heap &NewHeap, TimedPolicy &NewPolicy) {
  attach(NewHeap, NewPolicy);
  uint64_t T = nowNs();
  Excluded += T - RestartStart;
  Prev = SegmentStart = T;
  if (Buf)
    Buf->add("restart (excluded)", RestartStart, T);
}

PhaseStats DirectPhase::finish() {
  S.Seconds = static_cast<double>(Prev - Start - Excluded) * 1e-9;
  S.AllocBytes = allocated();
  S.Totals.absorb(*H, FirstIndex, *Policy);
  H->profiler().setEnabled(false);
  return std::move(S);
}

double simLegMbPerSecond(const trace::Trace &T, const std::string &Policy,
                         const core::PolicyConfig &Cfg, uint64_t TriggerBytes,
                         double Seconds) {
  std::unique_ptr<core::BoundaryPolicy> P = core::createPolicy(Policy, Cfg);
  sim::SimulatorConfig Config;
  Config.TriggerBytes = TriggerBytes;
  // Every call does the same work, so the fastest one is the simulator's
  // speed on this machine; the host's busy spells slow a call by up to a
  // third (as they slow ghost's pauses), and a leg of a few seconds may
  // hold no quiet second at all, but it holds hundreds of calls.
  CpuRotation Rotation;
  const uint64_t End = nowNs() + static_cast<uint64_t>(Seconds * 1e9);
  double Best = 0.0;
  size_t Calls = 0;
  uint64_t Now = 0;
  do {
    Rotation.tick(nowNs());
    uint64_t Start = nowNs();
    sim::SimulationResult R = sim::simulate(T, *P, Config);
    (void)R;
    Now = nowNs();
    Best = std::max(Best, static_cast<double>(T.totalAllocated()) / MB /
                              secondsBetween(Start, Now));
    Calls += 1;
  } while (Now < End || Calls < 3);
  return Best;
}

void addBypassedLayers(Report &Rep) {
  static const std::pair<const char *, const char *> Layers[] = {
      {"runtime.alloc.ns_p50", "ns"},
      {"runtime.tlab_alloc.ns_p50", "ns"},
      {"runtime.barrier.ns_p50", "ns"},
      {"runtime.barrier.calls", "count"},
      {"runtime.barrier.flushed_entries", "count"},
      {"runtime.remset.entries_max", "count"},
      {"runtime.tlab.refills", "count"},
      {"runtime.tlab.waste_ratio", "ratio"},
      {"runtime.safepoint.rendezvous", "count"},
      {"runtime.safepoint.stall_us_p50", "us"},
      {"runtime.safepoint.stall_us_p99", "us"},
      {"runtime.collect.per_trigger", "ratio"},
      {"runtime.collect.pause_p50_us", "us"},
      {"runtime.collect.pause_p99_us", "us"},
      {"collect.count", "count"},
      {"collect.traced_mb", "MB"},
      {"collect.reclaimed_mb", "MB"},
      {"collect.moved_objects", "count"},
      {"collect.gc_share", "ratio"},
      {"collect.trace_mb_per_s", "MB/s"},
      {"collect.sweep_mb_per_s", "MB/s"},
      {"collect.model_over_wall", "ratio"},
      {"policy.decision_us_p50", "us"},
      {"sim.full.mb_per_s", "MB/s"},
      {"sim.fixed1.mb_per_s", "MB/s"},
      {"sim.fixed4.mb_per_s", "MB/s"},
      {"sim.feedmed.mb_per_s", "MB/s"},
      {"sim.dtbfm.mb_per_s", "MB/s"},
      {"sim.dtbmem.mb_per_s", "MB/s"},
      {"sim.scavenges", "count"},
      {"sim.traced_mb", "MB"},
      {"workload.generate_s", "s"},
  };
  for (const auto &[Name, Unit] : Layers)
    Rep.add(Name, 0.0, Unit);
  profiling::PhaseProfiler None;
  addPhaseMetrics(Rep, None, 0);
}

//===----------------------------------------------------------------------===//
// Run skeleton
//===----------------------------------------------------------------------===//

void runWorkload(Workload &W, const Options &Opts, Report &Rep) {
  if (!Opts.Trace) {
    // One untimed set-up first, so the timed ones find the allocator and
    // the caches warm; a set-up that starts no threads moves to the next
    // CPU each time.
    std::vector<double> Setups;
    {
      std::optional<CpuRotation> Rotation;
      if (!W.setupStartsThreads())
        Rotation.emplace();
      for (int I = 0; I <= SetupRepeats; ++I) {
        if (Rotation)
          Rotation->next(nowNs());
        uint64_t Start = nowNs();
        W.setup();
        if (I != 0)
          Setups.push_back(secondsBetween(Start, nowNs()));
      }
    }
    double Timed = Opts.Seconds * (1.0 - W.afterShare());
    W.timed(Timed, nullptr, Rep);
    Setups.insert(Setups.end(), W.RestartSetups.begin(),
                  W.RestartSetups.end());
    Rep.add("setup_s", quantileOf(Setups, 0.5), "s");
    Rep.add("setup.samples", static_cast<double>(Setups.size()), "count");
    W.check(Rep);
    W.after(Opts.Seconds - Timed, Rep);
    Rep.add("rss_peak_mb", rssPeakMb(), "MB");
    return;
  }

  // Traced run: an untraced half for the baseline headline (and the
  // steady-state guard), then a traced half on fresh state. Per-layer
  // metrics come from the traced half.
  addBypassedLayers(Rep);
  W.setup();
  double Base = W.timed(Opts.Seconds / 2, nullptr, Rep);
  W.check(Rep);
  SpanLog Spans;
  W.SetupSpans = &Spans.buffer(0);
  uint64_t SetupStart = nowNs();
  W.setup();
  W.SetupSpans->add("setup", SetupStart, nowNs());
  W.SetupSpans = nullptr;
  double Traced = W.timed(Opts.Seconds / 2, &Spans, Rep);
  W.check(Rep);
  Rep.add("trace_overhead_pct",
          Base > 0.0 ? (Base - Traced) / Base * 100.0 : 0.0, "%");
  std::string Path = Opts.OutDir + "/wallbench-" + Opts.Workload + "-seed" +
                     std::to_string(Opts.Seed) + ".trace.json";
  if (!Spans.write(Path))
    Rep.fail(std::string("could not write span trace ") + Path);
  char Line[512];
  std::snprintf(Line, sizeof(Line),
                "spans: %" PRIu64 " written to %s (%" PRIu64
                " dropped past the per-thread cap)",
                Spans.spans(), Path.c_str(), Spans.dropped());
  Rep.note(Line);
}

} // namespace wallbench
