//===- wallbench/src/BigData.cpp - The `bigdata-copy` workload -----------===//
//
// Part of the dtbgc project (Barrett & Zorn DTB reproduction).
//
// The serverload `bigdata` scenario (short-lived requests under rotating
// long-lived 8 KB-object batches), scaled to 100 MB, passed through
// conformance::normalizeForReplay and replayed through the direct Heap API
// on the copying collector with three trace lanes. It is survivor-heavy:
// collections trace about three times what the mutator allocates, so
// trace, evacuation and the lanes dominate while the allocation fast path
// is a small share.
//
// Replay: each record is one object of the record's gross size (no
// pointer slots, its raw bytes start with the stamp), rooted in a handle
// slot until the replay clock passes the record's death. The trace is
// replayed pass after pass, each pass on a fresh heap (the policy's
// boundary search grows with the scavenge history, so one endless heap
// would drift); the restarts are not timed. Every pass repeats the same
// collections, ~25 times a run, so as on `ghost` a collection's pause is
// its fastest repeat and alloc_mb_per_s is a pass's bytes over the sum of
// its segments' fastest repeats.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "conformance/Conformance.h"
#include "runtime/HeapVerifier.h"
#include "serverload/ServerLoad.h"

#include <algorithm>
#include <numeric>

namespace wallbench {
namespace {

using runtime::Object;

constexpr uint64_t TraceBytes = 100'000'000;
constexpr unsigned TraceLanes = 3;
constexpr uint32_t HeaderBytes = sizeof(Object);

class BigData final : public Workload {
public:
  explicit BigData(const Options &Opts) : Opts(Opts) {}

  void setup() override {
    Scenario = serverload::scaledScenario(
        *serverload::findServerScenario("bigdata"), TraceBytes);
    Scenario.Seed = stampFor(Opts.Seed, 0xB16D);
    uint64_t GenStart = nowNs();
    trace::Trace Raw = serverload::generateServerTrace(Scenario);
    uint64_t GenEnd = nowNs();
    GenerateSeconds = secondsBetween(GenStart, GenEnd);
    T = conformance::normalizeForReplay(Raw, conformance::LinkMode::Forward);
    if (SetupSpans) {
      SetupSpans->add("generateServerTrace", GenStart, GenEnd);
      SetupSpans->add("normalizeForReplay", GenEnd, nowNs());
    }
    const std::vector<trace::AllocationRecord> &Recs = T.records();
    DeathOrder.resize(Recs.size());
    std::iota(DeathOrder.begin(), DeathOrder.end(), 0u);
    std::stable_sort(DeathOrder.begin(), DeathOrder.end(),
                     [&](uint32_t A, uint32_t B) {
                       return Recs[A].Death < Recs[B].Death;
                     });
    startPass();
  }

  double timed(double Seconds, SpanLog *Spans, Report &Rep) override;

  void check(Report &Rep) override {
    if (StampFailures) {
      Rep.Failed += StampFailures;
      Rep.fail(std::to_string(StampFailures) +
               " dropped objects carried a wrong stamp");
      StampFailures = 0;
    }
    uint64_t Bad = 0;
    for (size_t I = 0; I != Next; ++I)
      if (SlotOf[I] && !stampMatches(*SlotOf[I], stampOf(I)))
        Bad += 1;
    if (Bad) {
      Rep.Failed += Bad;
      Rep.fail(std::to_string(Bad) + " held objects lost their stamp");
    }
    H->runAtSafepoint([&](runtime::Heap &Heap) {
      runtime::VerifyResult V = runtime::verifyHeap(Heap);
      if (!V.Ok)
        Rep.fail("verifyHeap: " + V.Problems.front());
      uint64_t Reachable = runtime::reachableBytes(Heap);
      if (Reachable != HeldBytes)
        Rep.fail("reachableBytes " + std::to_string(Reachable) +
                 " != bytes held by the mutator " +
                 std::to_string(HeldBytes));
    });
  }

  double afterShare() const override { return 0.15; }

  void after(double Seconds, Report &Rep) override {
    // The simulator on the same scenario and policy, at the twin size.
    serverload::ServerScenario S = serverload::scaledScenario(
        *serverload::findServerScenario("bigdata"), TwinBytes);
    S.Seed = Scenario.Seed;
    core::PolicyConfig Cfg;
    Cfg.TraceMaxBytes = S.TraceMaxBytes;
    Cfg.MemMaxBytes = S.MemMaxBytes;
    Rep.add("sim_mb_per_s",
            simLegMbPerSecond(serverload::generateServerTrace(S), "dtbfm",
                              Cfg, S.TriggerBytes, Seconds),
            "MB/s");
  }

private:
  core::PolicyConfig policyConfig() const {
    core::PolicyConfig Cfg;
    Cfg.TraceMaxBytes = Scenario.TraceMaxBytes;
    Cfg.MemMaxBytes = Scenario.MemMaxBytes;
    return Cfg;
  }

  uint64_t stampOf(size_t Record) const {
    return stampFor(Opts.Seed, (Pass << 40) | Record);
  }

  /// A fresh heap for the next pass over the trace.
  void startPass() {
    Scope.reset();
    H.reset();
    runtime::HeapConfig Config;
    Config.TriggerBytes = Scenario.TriggerBytes;
    Config.Collector = runtime::CollectorKind::Copying;
    Config.TraceThreads = TraceLanes;
    H = std::make_unique<runtime::Heap>(Config);
    std::unique_ptr<TimedPolicy> P = makeTimedPolicy("dtbfm", policyConfig());
    Policy = P.get();
    H->setPolicy(std::move(P));
    Scope = std::make_unique<runtime::HandleScope>(*H);
    SlotOf.assign(T.numObjects(), nullptr);
    Free.clear();
    HeldBytes = 0;
    Pass += 1;
    Next = 0;
    NextDeath = 0;
  }

  /// Releases every object whose death the replay clock has reached,
  /// checking its stamp.
  void releaseDead() {
    const std::vector<trace::AllocationRecord> &Recs = T.records();
    uint64_t Clock = H->now();
    while (NextDeath != DeathOrder.size() &&
           Recs[DeathOrder[NextDeath]].Death <= Clock) {
      uint32_t I = DeathOrder[NextDeath++];
      Object **Slot = SlotOf[I];
      if (!stampMatches(*Slot, stampOf(I)))
        StampFailures += 1;
      HeldBytes -= Recs[I].Size;
      *Slot = nullptr;
      SlotOf[I] = nullptr;
      Free.push_back(Slot);
    }
  }

  void adopt(size_t I, Object *O) {
    writeStamp(O, stampOf(I));
    Object **Slot;
    if (!Free.empty()) {
      Slot = Free.back();
      Free.pop_back();
      *Slot = O;
    } else {
      Slot = &Scope->slot(O);
    }
    SlotOf[I] = Slot;
    HeldBytes += T.records()[I].Size;
  }

  Options Opts;
  serverload::ServerScenario Scenario;
  trace::Trace T;
  /// Record indices in death order (immortals last, never reached).
  std::vector<uint32_t> DeathOrder;
  double GenerateSeconds = 0.0;

  std::unique_ptr<runtime::Heap> H;
  std::unique_ptr<runtime::HandleScope> Scope;
  TimedPolicy *Policy = nullptr;
  /// Each allocated record's root slot (null once dropped).
  std::vector<Object **> SlotOf;
  std::vector<Object **> Free;
  uint64_t Pass = 0;
  size_t Next = 0;
  size_t NextDeath = 0;
  uint64_t HeldBytes = 0;
  uint64_t StampFailures = 0;
};

double BigData::timed(double Seconds, SpanLog *Spans, Report &Rep) {
  const std::vector<trace::AllocationRecord> &Recs = T.records();
  DirectPhase Phase(*H, *Policy, Seconds, Spans);
  for (;;) {
    if (Next == Recs.size()) {
      Phase.beginRestart();
      check(Rep);
      startPass();
      Phase.endRestart(*H, *Policy);
    }
    releaseDead();
    size_t I = Next++;
    uint64_t CallStart = Phase.before();
    Object *O = H->allocate(0, Recs[I].Size - HeaderBytes);
    bool More = Phase.after(CallStart);
    adopt(I, O);
    if (!More)
      break;
  }
  if (Spans)
    Rep.add("workload.generate_s", GenerateSeconds, "s");
  return reportRuntimePhase(Rep, Phase.finish(), Spans != nullptr,
                            "runtime.alloc.ns_p50", Scenario.TriggerBytes,
                            /*FastestRepeats=*/true,
                            Opts.OutDir + "/wallbench-bigdata-copy-seed" +
                                std::to_string(Opts.Seed) +
                                ".collections.csv");
}

} // namespace

std::unique_ptr<Workload> makeBigData(const Options &Opts) {
  return std::make_unique<BigData>(Opts);
}

} // namespace wallbench
