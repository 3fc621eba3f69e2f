//===- wallbench/src/Cache.cpp - The `cache-3t` workload -----------------===//
//
// Part of the dtbgc project (Barrett & Zorn DTB reproduction).
//
// The server heap shape: three mutator threads, each with its own
// MutatorContext and its own session cache. A cache is 64 old bucket
// objects of 64 pointer slots each (moderate width: the remembered set's
// per-source insert is a linear find, so one very wide table would measure
// that find instead of the runtime), filled with small entry objects. A
// request allocates 2-5 objects of request garbage, replaces one random
// entry with a young object via allocateRooted -> writeSlot (a
// forward-in-time store, so a remembered-set entry) -> truncateRoots, and
// drops its garbage. DTBMEM with Mem_max about twice the steady live set.
//
// This loads everything `ghost` bypasses: TLAB allocation, the buffered
// barrier, remembered-set insert and scan, and rendezvous/publication.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "runtime/HeapVerifier.h"
#include "runtime/Mutator.h"
#include "serverload/ServerLoad.h"
#include "support/Random.h"

#include <condition_variable>
#include <thread>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace wallbench {
namespace {

/// Keeps memory the heap frees inside the process. With glibc's defaults a
/// freed block at the top of an arena goes back to the kernel and large
/// blocks get fresh mappings, so ~4% of this workload's collections faulted
/// in 20-57 fresh pages each (a 10 s run took ~66k faults; ~16k, mostly
/// first touches, with this). A fault's cost follows the host's memory
/// pressure, and more than 1% of collections is enough to move p99. The
/// other workloads keep the defaults: on `ghost` this setting raised pause
/// p99 from ~60 to ~74 us.
void keepFreedMemory() {
#if defined(__GLIBC__)
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  mallopt(M_MMAP_THRESHOLD, 32 << 20); // glibc's largest on 64-bit
#endif
}

using runtime::MutatorContext;
using runtime::Object;

constexpr unsigned Threads = 3;
constexpr uint32_t Buckets = 64;
constexpr uint32_t Width = 64;
constexpr uint64_t TriggerBytes = 256 * 1024;
/// Steady live bytes: per thread, the buckets (header, slots, 8-byte stamp)
/// plus one entry per slot (header + 16..79 raw bytes, mean 47.5).
constexpr uint64_t LiveBytes =
    Threads * (Buckets * (24 + 8 * Width + 8) +
               static_cast<uint64_t>(Buckets * Width * (24 + 47.5)));
constexpr uint64_t MemMaxBytes = 2 * LiveBytes;
/// Allocation before the timed phase starts (part of set-up).
constexpr uint64_t WarmupBytes = 32'000'000;
/// Requests a thread runs on one warm-up turn (~400 KB).
constexpr unsigned WarmupBatch = 1024;

/// One mutator thread's state. Only its thread touches it while a phase
/// runs; the coordinator reads it after the phase (or at a safepoint).
struct Worker {
  unsigned Index = 0;
  std::unique_ptr<MutatorContext> Ctx;
  Rng R{1};
  std::vector<uint64_t> BucketStamp;
  std::vector<uint64_t> EntryStamp;
  std::vector<uint32_t> EntryBytes;
  uint64_t TempStamp[8] = {};
  uint64_t Serial = 0;
  uint64_t HeldBytes = 0;
  uint64_t StampFailures = 0;

  // Per-phase measurements.
  bool Traced = false;
  SpanLog::Buffer *Buf = nullptr;
  uint64_t Prev = 0;
  uint64_t SeenCollections = 0;
  uint64_t SeenYields = 0;
  uint64_t Calls = 0;
  uint64_t BarrierCalls = 0;
  std::vector<PauseSample> Pauses;
  std::vector<PauseSample> CallPauses;
  std::vector<PauseSample> Stalls;
  /// (collection index, wall us) of each collecting call.
  std::vector<std::pair<uint64_t, double>> Collecting;
  std::vector<double> AllocNs;
  std::vector<double> BarrierNs;

  uint64_t nextStamp(uint64_t Seed) {
    return stampFor(Seed, (static_cast<uint64_t>(Index) << 56) | ++Serial);
  }

  /// Times one heap call and classifies it. A call during which this
  /// thread ran a collection is a collecting call; its pause (the
  /// end-to-end metric) runs from that collection's boundary decision, with
  /// the world already stopped, to the call's return, in this thread's CPU
  /// time: in a busy stretch of the shared host, stolen CPU time pushed the
  /// wall-clock p99 from ~2 ms to 4-13 ms for minutes on end, while the
  /// collection (one trace lane, on this thread) did the same work. The
  /// wall time of the same span feeds gc_share and the wall-vs-model
  /// table. The whole call also
  /// includes any wait behind another thread's collection that the same
  /// trigger started (racing triggers), so how often a pause doubles or
  /// triples depends on how the threads race; that whole-call time is the
  /// per-layer runtime.collect.pause_*. A call during which the context
  /// only yielded at a safepoint for another thread's collection is a
  /// stall, also per-layer.
  template <typename FnT>
  void call(const char *Name, std::vector<double> *Ns, FnT &&Fn) {
    uint64_t T0 = Traced ? nowNs() : 0;
    Fn();
    uint64_t T = nowNs();
    Calls += 1;
    uint64_t C = TimedPolicy::collectionsOnThisThread();
    uint64_t Y = Ctx->stats().SafepointYields;
    if (C != SeenCollections || Y != SeenYields) {
      double Us = static_cast<double>(T - Prev) * 1e-3;
      if (C != SeenCollections) {
        double StoppedUs = static_cast<double>(
                               T - TimedPolicy::lastStartNsOnThisThread()) *
                           1e-3;
        double StoppedCpuUs =
            static_cast<double>(threadCpuNs() -
                                TimedPolicy::lastStartCpuNsOnThisThread()) *
            1e-3;
        Pauses.push_back({T, StoppedCpuUs});
        CallPauses.push_back({T, Us});
        Collecting.push_back({TimedPolicy::lastIndexOnThisThread(), StoppedUs});
      } else {
        Stalls.push_back({T, Us});
      }
      if (Buf)
        Buf->add(C != SeenCollections ? "collect" : "stall", Prev, T,
                 C != SeenCollections ? TimedPolicy::lastIndexOnThisThread()
                                      : 0);
      SeenCollections = C;
      SeenYields = Y;
    } else if (Traced) {
      if (Ns && (Calls & 7) == 0)
        Ns->push_back(static_cast<double>(T - T0));
      if ((Calls & 1023) == 0)
        Buf->add(Name, T0, T);
    }
    Prev = T;
  }

  void prefill(uint64_t Seed) {
    BucketStamp.assign(Buckets, 0);
    EntryStamp.assign(Buckets * Width, 0);
    EntryBytes.assign(Buckets * Width, 0);
    for (uint32_t B = 0; B != Buckets; ++B) {
      size_t Idx = Ctx->allocateRooted(Width, 8);
      BucketStamp[B] = nextStamp(Seed);
      writeStamp(Ctx->root(Idx), BucketStamp[B]);
      HeldBytes += Ctx->root(Idx)->grossBytes();
    }
    for (uint32_t B = 0; B != Buckets; ++B)
      for (uint32_t S = 0; S != Width; ++S) {
        size_t Idx = Ctx->allocateRooted(0, entryRawBytes());
        Object *E = Ctx->root(Idx);
        size_t I = B * Width + S;
        EntryStamp[I] = nextStamp(Seed);
        writeStamp(E, EntryStamp[I]);
        EntryBytes[I] = E->grossBytes();
        HeldBytes += EntryBytes[I];
        Ctx->writeSlot(Ctx->root(B), S, E);
        Ctx->truncateRoots(Buckets);
      }
  }

  uint32_t entryRawBytes() {
    return static_cast<uint32_t>(16 + R.nextBelow(64));
  }

  void request(uint64_t Seed) {
    unsigned Garbage = 2 + static_cast<unsigned>(R.nextBelow(4));
    for (unsigned G = 0; G != Garbage; ++G) {
      auto Raw = static_cast<uint32_t>(16 + R.nextBelow(112));
      size_t Idx = 0;
      call("allocateRooted", &AllocNs,
           [&] { Idx = Ctx->allocateRooted(0, Raw); });
      TempStamp[G] = nextStamp(Seed);
      writeStamp(Ctx->root(Idx), TempStamp[G]);
    }

    auto B = static_cast<uint32_t>(R.nextBelow(Buckets));
    auto S = static_cast<uint32_t>(R.nextBelow(Width));
    size_t I = B * Width + S;
    if (!stampMatches(Ctx->root(B)->slot(S), EntryStamp[I]))
      StampFailures += 1;
    HeldBytes -= EntryBytes[I];
    uint32_t Raw = entryRawBytes();
    size_t Idx = 0;
    call("allocateRooted", &AllocNs,
         [&] { Idx = Ctx->allocateRooted(0, Raw); });
    Object *E = Ctx->root(Idx);
    EntryStamp[I] = nextStamp(Seed);
    writeStamp(E, EntryStamp[I]);
    EntryBytes[I] = E->grossBytes();
    HeldBytes += EntryBytes[I];
    call("writeSlot", &BarrierNs,
         [&] { Ctx->writeSlot(Ctx->root(B), S, Ctx->root(Idx)); });
    BarrierCalls += 1;

    for (unsigned G = 0; G != Garbage; ++G)
      if (!stampMatches(Ctx->root(Buckets + G), TempStamp[G]))
        StampFailures += 1;
    call("truncateRoots", nullptr, [&] { Ctx->truncateRoots(Buckets); });
  }

  /// Counts held objects whose stamp is wrong. World stopped.
  uint64_t badStamps() {
    uint64_t Bad = 0;
    for (uint32_t B = 0; B != Buckets; ++B) {
      Object *Bucket = Ctx->root(B);
      if (!stampMatches(Bucket, BucketStamp[B])) {
        Bad += 1 + Width;
        continue;
      }
      for (uint32_t S = 0; S != Width; ++S)
        if (!stampMatches(Bucket->slot(S), EntryStamp[B * Width + S]))
          Bad += 1;
    }
    return Bad;
  }
};

class Cache final : public Workload {
public:
  explicit Cache(const Options &Opts) : Opts(Opts) { keepFreedMemory(); }
  ~Cache() override { teardown(); }

  void setup() override {
    teardown();
    runtime::HeapConfig Config;
    Config.TriggerBytes = TriggerBytes;
    H = std::make_unique<runtime::Heap>(Config);
    core::PolicyConfig Cfg;
    Cfg.MemMaxBytes = MemMaxBytes;
    std::unique_ptr<TimedPolicy> P = makeTimedPolicy("dtbmem", Cfg);
    Policy = P.get();
    Policy->watch(H.get());
    Policy->recordCpuTime();
    H->setPolicy(std::move(P));

    Quit = false;
    Generation = 0;
    Ready = 0;
    Turn = 0;
    Workers.clear();
    for (unsigned I = 0; I != Threads; ++I) {
      Workers.push_back(std::make_unique<Worker>());
      Workers.back()->Index = I;
      Workers.back()->R = Rng(stampFor(Opts.Seed, 0xCAC4E + I));
    }
    for (unsigned I = 0; I != Threads; ++I)
      Pool.emplace_back([this, I] { workerMain(*Workers[I]); });
    std::unique_lock<std::mutex> Lock(Mu);
    Cv.wait(Lock, [&] { return Ready == Threads; });
  }

  bool setupStartsThreads() const override { return true; }

  double timed(double Seconds, SpanLog *Spans, Report &Rep) override;

  void check(Report &Rep) override {
    uint64_t Dropped = 0;
    for (auto &W : Workers) {
      Dropped += W->StampFailures;
      W->StampFailures = 0;
    }
    if (Dropped) {
      Rep.Failed += Dropped;
      Rep.fail(std::to_string(Dropped) +
               " replaced or dropped objects carried a wrong stamp");
    }
    uint64_t Bad = 0, Held = 0;
    H->runAtSafepoint([&](runtime::Heap &Heap) {
      for (auto &W : Workers) {
        Bad += W->badStamps();
        Held += W->HeldBytes;
        if (W->Ctx->numRoots() != Buckets)
          Rep.fail("worker left request roots behind");
      }
      runtime::VerifyResult V = runtime::verifyHeap(Heap);
      if (!V.Ok)
        Rep.fail("verifyHeap: " + V.Problems.front());
      uint64_t Reachable = runtime::reachableBytes(Heap);
      if (Reachable != Held)
        Rep.fail("reachableBytes " + std::to_string(Reachable) +
                 " != bytes held by the mutators " + std::to_string(Held));
    });
    if (Bad) {
      Rep.Failed += Bad;
      Rep.fail(std::to_string(Bad) + " cached objects lost their stamp");
    }
  }

  double afterShare() const override { return 0.15; }

  void after(double Seconds, Report &Rep) override {
    // The simulator on the request/session-cache demography the serverload
    // catalog models (frontend), at the twin size, under DTBMEM.
    serverload::ServerScenario S = serverload::scaledScenario(
        *serverload::findServerScenario("frontend"), TwinBytes);
    S.Seed = stampFor(Opts.Seed, 0xF407);
    trace::Trace T = serverload::generateServerTrace(S);
    core::PolicyConfig Cfg;
    Cfg.TraceMaxBytes = S.TraceMaxBytes;
    Cfg.MemMaxBytes = S.MemMaxBytes;
    Rep.add("sim_mb_per_s",
            simLegMbPerSecond(T, "dtbmem", Cfg, S.TriggerBytes, Seconds),
            "MB/s");
  }

private:
  /// Runs \p Fn on \p W's turn, then hands the turn to the next worker.
  template <typename FnT> void onTurn(const Worker &W, FnT &&Fn) {
    {
      std::unique_lock<std::mutex> Lock(Mu);
      Cv.wait(Lock, [&] { return Turn == W.Index; });
    }
    Fn();
    {
      std::lock_guard<std::mutex> Lock(Mu);
      Turn = (Turn + 1) % Threads;
    }
    Cv.notify_all();
  }

  void workerMain(Worker &W) {
    W.Ctx = std::make_unique<MutatorContext>(*H);
    // Prefill and warm-up (the policy's boundary settles over the first
    // ~150 collections) take turns, so each trigger runs one collection.
    // Racing triggers run 1-3 collections per trigger, depending on how
    // the threads happen to interleave, and that made set-up take either
    // ~0.2 s or ~0.38 s from one run of the same seed to the next. The
    // timed phase races.
    onTurn(W, [&] { W.prefill(Opts.Seed); });
    W.Prev = nowNs();
    W.SeenCollections = TimedPolicy::collectionsOnThisThread();
    W.SeenYields = W.Ctx->stats().SafepointYields;
    for (bool Warm = false; !Warm;)
      onTurn(W, [&] {
        for (unsigned I = 0;
             I != WarmupBatch && !(Warm = H->now() >= WarmupBytes); ++I)
          W.request(Opts.Seed);
      });
    int Seen = 0;
    {
      std::lock_guard<std::mutex> Lock(Mu);
      Ready += 1;
    }
    Cv.notify_all();
    for (;;) {
      {
        std::unique_lock<std::mutex> Lock(Mu);
        Cv.wait(Lock, [&] { return Quit || Generation != Seen; });
        if (Quit)
          break;
        Seen = Generation;
      }
      runPhase(W);
      {
        std::lock_guard<std::mutex> Lock(Mu);
        Done += 1;
      }
      Cv.notify_all();
    }
    W.Ctx.reset();
  }

  void runPhase(Worker &W) {
    W.Prev = nowNs();
    W.SeenCollections = TimedPolicy::collectionsOnThisThread();
    W.SeenYields = W.Ctx->stats().SafepointYields;
    while (W.Prev < PhaseEnd)
      W.request(Opts.Seed);
  }

  void teardown() {
    {
      std::lock_guard<std::mutex> Lock(Mu);
      Quit = true;
    }
    Cv.notify_all();
    for (std::thread &T : Pool)
      T.join();
    Pool.clear();
    Workers.clear();
    H.reset();
  }

  Options Opts;
  std::unique_ptr<runtime::Heap> H;
  TimedPolicy *Policy = nullptr;
  std::vector<std::unique_ptr<Worker>> Workers;

  std::mutex Mu;
  std::condition_variable Cv;
  bool Quit = false;
  int Generation = 0;
  unsigned Ready = 0;
  unsigned Done = 0;
  /// Index of the worker whose set-up turn it is.
  unsigned Turn = 0;
  /// Phase deadline; written before Generation is bumped under Mu.
  uint64_t PhaseEnd = 0;

  /// Declared last: the threads use everything above.
  std::vector<std::thread> Pool;
};

double Cache::timed(double Seconds, SpanLog *Spans, Report &Rep) {
  const bool Traced = Spans != nullptr;
  H->profiler().setEnabled(Traced);
  Policy->clearSamples();
  for (auto &W : Workers) {
    W->Traced = Traced;
    W->Buf = Traced ? &Spans->buffer(W->Index) : nullptr;
    W->Calls = W->BarrierCalls = 0;
    W->Pauses.clear();
    W->CallPauses.clear();
    W->Stalls.clear();
    W->Collecting.clear();
    W->AllocNs.clear();
    W->BarrierNs.clear();
  }
  const uint64_t FirstIndex = H->history().size();
  const runtime::MutatorRuntimeStats Stats0 = H->mutatorStats();
  const uint64_t Clock0 = H->now();

  const uint64_t Start = nowNs();
  const uint64_t Stop = Start + static_cast<uint64_t>(Seconds * 1e9);
  const uint64_t Mid = Start + (Stop - Start) / 2;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    PhaseEnd = Stop;
    Done = 0;
    Generation += 1;
  }
  Cv.notify_all();
  for (uint64_t T = nowNs(); T < Mid; T = nowNs())
    std::this_thread::sleep_for(std::chrono::nanoseconds(Mid - T));
  const uint64_t ClockMid = H->now();
  {
    std::unique_lock<std::mutex> Lock(Mu);
    Cv.wait(Lock, [&] { return Done == Threads; });
  }

  PhaseStats S;
  S.Threads = Threads;
  uint64_t End = 0;
  uint64_t BarrierCalls = 0;
  std::vector<double> BarrierNs;
  std::vector<PauseSample> CallPauses;
  auto fromStart = [&](std::vector<PauseSample> &Out,
                       const std::vector<PauseSample> &In) {
    for (const PauseSample &P : In)
      Out.push_back({P.EndNs - Start, P.Micros});
  };
  for (auto &W : Workers) {
    End = std::max(End, W->Prev);
    S.Calls += W->Calls;
    BarrierCalls += W->BarrierCalls;
    fromStart(S.Pauses, W->Pauses);
    fromStart(S.Stalls, W->Stalls);
    fromStart(CallPauses, W->CallPauses);
    for (const auto &[Index, Us] : W->Collecting)
      S.Totals.Calls.push_back({Us, H->history().record(Index).TracedBytes});
    S.AllocNs.insert(S.AllocNs.end(), W->AllocNs.begin(), W->AllocNs.end());
    BarrierNs.insert(BarrierNs.end(), W->BarrierNs.begin(),
                     W->BarrierNs.end());
  }
  S.Seconds = secondsBetween(Start, End);
  S.AllocBytes = H->now() - Clock0;
  S.AllocBytesFirstHalf = ClockMid - Clock0;
  S.Totals.absorb(*H, FirstIndex, *Policy);
  H->profiler().setEnabled(false);

  if (Traced) {
    runtime::MutatorRuntimeStats Stats;
    H->runAtSafepoint(
        [&](runtime::Heap &Heap) { Stats = Heap.mutatorStats(); });
    Rep.add("runtime.barrier.ns_p50", quantileOf(BarrierNs, 0.5), "ns");
    Rep.add("runtime.barrier.calls", static_cast<double>(BarrierCalls),
            "count");
    Rep.add("runtime.barrier.flushed_entries",
            static_cast<double>(Stats.BarrierFlushedEntries -
                                Stats0.BarrierFlushedEntries),
            "count");
    Rep.add("runtime.tlab.refills",
            static_cast<double>(Stats.TlabRefills - Stats0.TlabRefills),
            "count");
    uint64_t Carved = Stats.TlabCarvedBytes - Stats0.TlabCarvedBytes;
    Rep.add("runtime.tlab.waste_ratio",
            Carved ? static_cast<double>(Stats.TlabWastedBytes -
                                         Stats0.TlabWastedBytes) /
                         static_cast<double>(Carved)
                   : 0.0,
            "ratio");
    Rep.add("runtime.safepoint.rendezvous",
            static_cast<double>(Stats.SafepointRendezvous -
                                Stats0.SafepointRendezvous),
            "count");
    Rep.add("runtime.safepoint.stall_us_p50", quantileOfPauses(S.Stalls, 0.5),
            "us");
    Rep.add("runtime.safepoint.stall_us_p99",
            quantileOfPauses(S.Stalls, 0.99), "us");
  }
  double MbPerS = reportRuntimePhase(
      Rep, S, Traced, "runtime.tlab_alloc.ns_p50", TriggerBytes,
      /*FastestRepeats=*/false,
      Opts.OutDir + "/wallbench-cache-3t-seed" + std::to_string(Opts.Seed) +
          ".collections.csv");
  if (!Traced) {
    // The tail of three racing threads' pauses moves with short bursts of
    // machine noise, so p99 is taken per 2 s window and the median over
    // the windows is reported (~500 pauses per window).
    std::vector<std::vector<double>> Windows(
        std::max<size_t>(1, static_cast<size_t>(S.Seconds / 2.0)));
    for (const PauseSample &P : S.Pauses)
      Windows[std::min(Windows.size() - 1,
                       static_cast<size_t>(P.EndNs * 1e-9 / 2.0))]
          .push_back(P.Micros);
    std::vector<double> WindowP99;
    for (const std::vector<double> &W : Windows)
      WindowP99.push_back(quantileOf(W, 0.99));
    Rep.add("pause_p99_us", quantileOf(WindowP99, 0.5), "us");
  } else {
    // Whole collecting calls, waits behind racing collections included.
    Rep.add("runtime.collect.pause_p50_us", quantileOfPauses(CallPauses, 0.5),
            "us");
    Rep.add("runtime.collect.pause_p99_us",
            quantileOfPauses(CallPauses, 0.99), "us");
  }
  return MbPerS;
}

} // namespace

std::unique_ptr<Workload> makeCache(const Options &Opts) {
  return std::make_unique<Cache>(Opts);
}

} // namespace wallbench
