//===- wallbench/src/Ghost.cpp - The `ghost` workload --------------------===//
//
// Part of the dtbgc project (Barrett & Zorn DTB reproduction).
//
// One mutator on the direct Heap API with the GHOST-like demography of
// report/GhostMutator.h: 98.4% of objects die with ~4 KB exponential
// lifetimes, 0.4% live 105-340 KB, 1.2% are immortal. Mark-sweep, DTBFM,
// at runtime_end_to_end's scale (trigger 100 KB, Trace_max 12 KB,
// Mem_max 300 KB). No pointer stores, so the barrier, remembered set and
// safepoints are bypassed; the load is allocation, sweep and the policy.
//
// The immortal share is capped: immortals are only born during the first
// 5 MB of a program (runtime_end_to_end's whole run), which set-up covers,
// so the live set is flat through the timed phase. A program is 50 MB;
// the timed phase runs programs back to back, each on a fresh heap. The
// restarts are left out of the mutator's wall time; each restart's
// set-up counts toward setup_s.
//
// Every program is the same allocation sequence (set-up re-seeds the
// generator), so collection k of every program does the same work, ~150
// times a run. The shared host moves between quieter and busier states
// every second or so, and these ~20-30 us pauses are up to half again as
// slow in a busy one, so a run's mix of states set its whole-run median
// (19-31 us over five seeds). A collection's pause is therefore the fastest
// of its repeats, and the pause quantiles are taken over the ~450
// collections of one program; alloc_mb_per_s is one program's bytes over
// the sum of its segments' fastest repeats (a segment runs from the end of
// one collecting call to the end of the next).
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "runtime/HeapVerifier.h"
#include "support/Random.h"
#include "workload/Workload.h"

#include <queue>

namespace wallbench {
namespace {

using runtime::Object;

constexpr uint64_t TriggerBytes = 100'000;
constexpr uint64_t TraceMaxBytes = 12'000;
constexpr uint64_t MemMaxBytes = 300'000;
constexpr uint64_t ImmortalCapClock = 5'000'000;
/// One program: GHOST(1)'s 49 MB, rounded. The boundary search of the
/// pause-constrained policies grows with the scavenge history, so the
/// timed phase runs fresh programs back to back instead of one endless
/// heap whose pauses would keep rising.
constexpr uint64_t ProgramBytes = 50'000'000;

class Ghost final : public Workload {
public:
  explicit Ghost(const Options &Opts) : Opts(Opts) {}

  void setup() override {
    Scope.reset();
    H.reset();
    runtime::HeapConfig Config;
    Config.TriggerBytes = TriggerBytes;
    H = std::make_unique<runtime::Heap>(Config);
    core::PolicyConfig Cfg;
    Cfg.TraceMaxBytes = TraceMaxBytes;
    Cfg.MemMaxBytes = MemMaxBytes;
    std::unique_ptr<TimedPolicy> P = makeTimedPolicy("dtbfm", Cfg);
    Policy = P.get();
    H->setPolicy(std::move(P));
    Scope = std::make_unique<runtime::HandleScope>(*H);
    R = Rng(stampFor(Opts.Seed, 0x6705));
    Slots.clear();
    SlotStamp.clear();
    SlotBytes.clear();
    Free.clear();
    Deaths = {};
    HeldBytes = 0;
    // Warm-up: the capped immortal population and the first (full)
    // collections happen here, not in the timed phase.
    while (H->now() < ImmortalCapClock) {
      releaseDead();
      allocateOne();
    }
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
    for (size_t I = 0; I != Slots.size(); ++I)
      if (*Slots[I] && !stampMatches(*Slots[I], SlotStamp[I]))
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

  bool corruptOneStamp() override {
    for (size_t I = 0; I != Slots.size(); ++I)
      if (*Slots[I]) {
        writeStamp(*Slots[I], ~SlotStamp[I]);
        return true;
      }
    return false;
  }

  /// Expects one byte more than the mutator holds.
  bool skewExpectedCount() override {
    HeldBytes += 1;
    return true;
  }

  void after(double Seconds, Report &Rep) override {
    // The simulator on the same demography (the workload's model twin).
    workload::WorkloadSpec Spec;
    Spec.Name = "ghost-twin";
    Spec.TotalAllocationBytes = TwinBytes;
    Spec.Seed = stampFor(Opts.Seed, 0x7717);
    Spec.Sizes = {4.38, 0.25, 48, 111};
    workload::Phase Phase;
    Phase.AllocFraction = 1.0;
    Phase.Classes = {{0.984, workload::LifetimeKind::Exponential, 4000.0, 0},
                     {0.004, workload::LifetimeKind::Uniform, 105'000.0,
                      340'000.0},
                     {0.012, workload::LifetimeKind::Immortal, 0, 0}};
    Spec.Phases = {Phase};
    trace::Trace T = workload::generateTrace(Spec);
    core::PolicyConfig Cfg;
    Cfg.TraceMaxBytes = TraceMaxBytes;
    Cfg.MemMaxBytes = MemMaxBytes;
    Rep.add("sim_mb_per_s",
            simLegMbPerSecond(T, "dtbfm", Cfg, TriggerBytes, Seconds),
            "MB/s");
  }

private:
  struct Death {
    core::AllocClock Clock;
    size_t Slot;
    bool operator<(const Death &Other) const { return Clock > Other.Clock; }
  };

  size_t acquireSlot(Object *O, uint64_t Stamp) {
    size_t I;
    if (!Free.empty()) {
      I = Free.back();
      Free.pop_back();
      *Slots[I] = O;
    } else {
      I = Slots.size();
      Slots.push_back(&Scope->slot(O));
      SlotStamp.push_back(0);
      SlotBytes.push_back(0);
    }
    SlotStamp[I] = Stamp;
    SlotBytes[I] = O->grossBytes();
    HeldBytes += O->grossBytes();
    return I;
  }

  void releaseDead() {
    while (!Deaths.empty() && Deaths.top().Clock <= H->now()) {
      size_t I = Deaths.top().Slot;
      Deaths.pop();
      if (!stampMatches(*Slots[I], SlotStamp[I]))
        StampFailures += 1;
      HeldBytes -= SlotBytes[I];
      *Slots[I] = nullptr;
      Free.push_back(I);
    }
  }

  /// Places a freshly allocated object in the demography.
  void adopt(Object *O) {
    uint64_t Stamp = stampFor(Opts.Seed, ++Serial);
    writeStamp(O, Stamp);
    double Class = R.nextDouble();
    if (Class < 0.012 && H->now() < ImmortalCapClock) {
      acquireSlot(O, Stamp);
      return;
    }
    double Lifetime = Class >= 0.012 && Class < 0.016
                          ? 105'000.0 + R.nextDouble() * 235'000.0
                          : R.nextExponential(4'000.0);
    size_t I = acquireSlot(O, Stamp);
    Deaths.push({H->now() + static_cast<core::AllocClock>(Lifetime), I});
  }

  uint32_t nextRawBytes() {
    return static_cast<uint32_t>(16 + R.nextBelow(64));
  }

  void allocateOne() { adopt(H->allocate(1, nextRawBytes())); }

  Options Opts;
  std::unique_ptr<runtime::Heap> H;
  std::unique_ptr<runtime::HandleScope> Scope;
  TimedPolicy *Policy = nullptr;
  Rng R{1};
  std::vector<Object **> Slots;
  std::vector<uint64_t> SlotStamp;
  std::vector<uint32_t> SlotBytes;
  std::vector<size_t> Free;
  std::priority_queue<Death> Deaths;
  uint64_t Serial = 0;
  uint64_t HeldBytes = 0;
  uint64_t StampFailures = 0;
};

double Ghost::timed(double Seconds, SpanLog *Spans, Report &Rep) {
  CpuRotation Rotation;
  DirectPhase Phase(*H, *Policy, Seconds, Spans, &Rotation);
  for (;;) {
    if (H->now() >= ProgramBytes) {
      // One GHOST-sized program is done: check it and start the next on a
      // fresh heap, outside the measured wall time.
      Phase.beginRestart();
      check(Rep);
      uint64_t SetupStart = nowNs();
      setup();
      if (!Spans)
        RestartSetups.push_back(secondsBetween(SetupStart, nowNs()));
      Phase.endRestart(*H, *Policy);
    }
    releaseDead();
    uint32_t Raw = nextRawBytes();
    uint64_t CallStart = Phase.before();
    Object *O = H->allocate(1, Raw);
    bool More = Phase.after(CallStart);
    adopt(O);
    if (!More)
      break;
  }
  return reportRuntimePhase(Rep, Phase.finish(), Spans != nullptr,
                            "runtime.alloc.ns_p50", TriggerBytes,
                            /*FastestRepeats=*/true,
                            Opts.OutDir + "/wallbench-ghost-seed" +
                                std::to_string(Opts.Seed) +
                                ".collections.csv");
}

} // namespace

std::unique_ptr<Workload> makeGhost(const Options &Opts) {
  return std::make_unique<Ghost>(Opts);
}

} // namespace wallbench
