//===- bench/runtime_micro.cpp - Runtime microbenchmarks -----------------===//
//
// Part of the dtbgc project (Barrett & Zorn DTB reproduction).
//
// google-benchmark microbenchmarks for the managed runtime's hot paths:
// allocation, the write barrier (backward stores, forward stores, and
// duplicate forward stores), remembered-set maintenance, and scavenges as
// a function of boundary position — the real-machine counterpart of the
// paper's "pause times are proportional to storage traced" assumption.
//
// The allocation-path benchmarks, among them the ones CI's overhead gates
// compare, also report a `_min` aggregate (the fastest repetition: host
// noise only ever adds time); google-benchmark 1.7 reports mean, median,
// stddev and cv only.
//
//===----------------------------------------------------------------------===//

#include "runtime/Heap.h"
#include "runtime/Mutator.h"

#include "core/Policies.h"
#include "support/Random.h"
#include "telemetry/Telemetry.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <vector>

using namespace dtb;
using namespace dtb::runtime;

namespace {

HeapConfig manualConfig() {
  HeapConfig Config;
  Config.TriggerBytes = 0;
  return Config;
}

double minimumOf(const std::vector<double> &Values) {
  return *std::min_element(Values.begin(), Values.end());
}

void BM_Allocate(benchmark::State &State) {
  // Re-created per iteration batch to keep the heap from growing without
  // bound; allocation cost includes the list append and clock update.
  auto H = std::make_unique<Heap>(manualConfig());
  size_t Created = 0;
  for (auto _ : State) {
    benchmark::DoNotOptimize(H->allocate(2, 16));
    if (++Created == 100'000) { // Reset before the heap gets huge.
      State.PauseTiming();
      H = std::make_unique<Heap>(manualConfig());
      Created = 0;
      State.ResumeTiming();
    }
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_Allocate)->ComputeStatistics("min", minimumOf);

void BM_AllocateTLAB(benchmark::State &State) {
  // The mutator-context fast path: bump the thread-local buffer, stamp
  // the birth with one relaxed fetch_add, count the op in and out. The
  // comparison against BM_Allocate is the per-thread allocation tax the
  // multi-mutator runtime adds over the direct path.
  auto H = std::make_unique<Heap>(manualConfig());
  auto Ctx = std::make_unique<MutatorContext>(*H);
  size_t Created = 0;
  for (auto _ : State) {
    benchmark::DoNotOptimize(Ctx->allocate(2, 16));
    if (++Created == 100'000) { // Reset before the heap gets huge.
      State.PauseTiming();
      Ctx.reset();
      H = std::make_unique<Heap>(manualConfig());
      Ctx = std::make_unique<MutatorContext>(*H);
      Created = 0;
      State.ResumeTiming();
    }
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_AllocateTLAB)->ComputeStatistics("min", minimumOf);

void BM_AllocateTLABCounters(benchmark::State &State) {
  // BM_AllocateTLAB with the telemetry recorder live: the difference is
  // the whole observability tax on the context allocation path. The
  // allocation and refill paths write no telemetry (the heap folds the
  // runtime.alloc.* and runtime.tlab.* counters in at each collection and
  // at teardown), so what this isolates is the recorder-gated work left
  // at safepoints and collections, here only at the untimed teardown.
  // CI diffs this against BM_AllocateTLAB and fails above ~1%.
  telemetry::recorder().enable();
  auto H = std::make_unique<Heap>(manualConfig());
  auto Ctx = std::make_unique<MutatorContext>(*H);
  size_t Created = 0;
  for (auto _ : State) {
    benchmark::DoNotOptimize(Ctx->allocate(2, 16));
    if (++Created == 100'000) { // Reset before the heap gets huge.
      State.PauseTiming();
      Ctx.reset();
      H = std::make_unique<Heap>(manualConfig());
      Ctx = std::make_unique<MutatorContext>(*H);
      Created = 0;
      State.ResumeTiming();
    }
  }
  telemetry::recorder().disable();
  telemetry::recorder().buffer().clear();
  State.SetItemsProcessed(State.iterations());
  State.SetLabel("counters-live");
}
BENCHMARK(BM_AllocateTLABCounters)->ComputeStatistics("min", minimumOf);

/// BM_AllocateContended's shared heap and its contexts, one per benchmark
/// thread, made by the once-per-run Setup before any thread starts.
std::unique_ptr<Heap> ContendedHeap;
std::vector<std::unique_ptr<MutatorContext>> ContendedContexts;

void setUpContendedHeap(const benchmark::State &State) {
  // Nothing is rooted, so a FULL collection every 8 MB keeps the heap
  // bounded; its sweep of pure garbage is amortized into the allocations.
  HeapConfig Config;
  Config.TriggerBytes = 8 << 20;
  ContendedHeap = std::make_unique<Heap>(Config);
  ContendedHeap->setPolicy(core::createPolicy("full", core::PolicyConfig()));
  for (int I = 0; I != State.threads(); ++I)
    ContendedContexts.push_back(
        std::make_unique<MutatorContext>(*ContendedHeap));
}

void tearDownContendedHeap(const benchmark::State &) {
  ContendedContexts.clear();
  ContendedHeap.reset();
}

void BM_AllocateContended(benchmark::State &State) {
  // BM_AllocateTLAB from 1, 2 and 3 threads, each with its own context on
  // one heap. Real time per iteration is wall time over every thread's
  // allocations, so perfect scaling would halve it from 1 to 2 threads.
  MutatorContext &Ctx = *ContendedContexts[State.thread_index()];
  for (auto _ : State)
    benchmark::DoNotOptimize(Ctx.allocate(2, 16));
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_AllocateContended)
    ->Setup(setUpContendedHeap)
    ->Teardown(tearDownContendedHeap)
    ->Threads(1)
    ->Threads(2)
    ->Threads(3)
    ->UseRealTime()
    ->ComputeStatistics("min", minimumOf);

void BM_SafepointRendezvous(benchmark::State &State) {
  // A full stop-the-world round trip with Arg(0) registered contexts and
  // nothing to publish: the handshake, arrival scan, TTSP attribution,
  // rendezvous-record assembly, flight-recorder stamp, and world release.
  // This is the fixed cost every collection pays before tracing a byte.
  const auto NumContexts = static_cast<size_t>(State.range(0));
  Heap H(manualConfig());
  std::vector<std::unique_ptr<MutatorContext>> Ctxs;
  for (size_t I = 0; I != NumContexts; ++I)
    Ctxs.push_back(std::make_unique<MutatorContext>(H));
  for (auto _ : State)
    H.runAtSafepoint([](Heap &) {});
  State.SetItemsProcessed(State.iterations());
  State.SetLabel(std::to_string(NumContexts) + " contexts");
}
BENCHMARK(BM_SafepointRendezvous)
    ->Arg(0)
    ->Arg(1)
    ->Arg(4)
    ->ComputeStatistics("min", minimumOf);

void BM_AllocateTelemetryEnabled(benchmark::State &State) {
  // Same loop with the recorder live: the difference from BM_Allocate is
  // the full telemetry cost on the allocation path, which writes none (the
  // allocation counters fold in at collections and teardown); it should
  // read as noise. BM_Allocate itself is the disabled-recorder number.
  telemetry::recorder().enable();
  auto H = std::make_unique<Heap>(manualConfig());
  size_t Created = 0;
  for (auto _ : State) {
    benchmark::DoNotOptimize(H->allocate(2, 16));
    if (++Created == 100'000) {
      State.PauseTiming();
      H = std::make_unique<Heap>(manualConfig());
      Created = 0;
      State.ResumeTiming();
    }
  }
  telemetry::recorder().disable();
  telemetry::recorder().buffer().clear();
  State.SetItemsProcessed(State.iterations());
  State.SetLabel("telemetry-enabled");
}
BENCHMARK(BM_AllocateTelemetryEnabled)->ComputeStatistics("min", minimumOf);

void BM_AllocateProfilerArmed(benchmark::State &State) {
  // BM_AllocateTelemetryEnabled with the heap's phase profiler forced on
  // as well. Neither instruments allocation (the profiler covers collector
  // phases, and the recorder's counters fold in at collections), so arming
  // it must not move this number: CI diffs the two benchmarks and fails if
  // the profiler adds more than noise (~1%) to the allocation path.
  telemetry::recorder().enable();
  auto H = std::make_unique<Heap>(manualConfig());
  H->profiler().setEnabled(true);
  size_t Created = 0;
  for (auto _ : State) {
    benchmark::DoNotOptimize(H->allocate(2, 16));
    if (++Created == 100'000) {
      State.PauseTiming();
      H = std::make_unique<Heap>(manualConfig());
      H->profiler().setEnabled(true);
      Created = 0;
      State.ResumeTiming();
    }
  }
  telemetry::recorder().disable();
  telemetry::recorder().buffer().clear();
  State.SetItemsProcessed(State.iterations());
  State.SetLabel("profiler-armed");
}
BENCHMARK(BM_AllocateProfilerArmed)->ComputeStatistics("min", minimumOf);

void BM_WriteBarrierBackward(benchmark::State &State) {
  Heap H(manualConfig());
  Object *Old = H.allocate(1);
  Object *Young = H.allocate(1);
  // Young -> old: the barrier's fast path (no remembered-set insert).
  for (auto _ : State)
    H.writeSlot(Young, 0, Old);
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_WriteBarrierBackward);

void BM_WriteBarrierForwardDuplicate(benchmark::State &State) {
  Heap H(manualConfig());
  Object *Old = H.allocate(1);
  Object *Young = H.allocate(0);
  // Old -> young, same slot every time: insert hits the dedup path.
  for (auto _ : State)
    H.writeSlot(Old, 0, Young);
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_WriteBarrierForwardDuplicate);

void BM_WriteBarrierForwardFresh(benchmark::State &State) {
  // Fresh (source, slot) pairs: every store inserts a new entry.
  Heap H(manualConfig());
  Object *Young = H.allocate(0);
  std::vector<Object *> Sources;
  constexpr size_t NumSources = 4096;
  for (size_t I = 0; I != NumSources; ++I)
    Sources.push_back(H.allocate(8));
  Object *Target = H.allocate(0); // Younger than all sources.
  (void)Young;
  size_t I = 0;
  for (auto _ : State) {
    Object *Source = Sources[(I / 8) % NumSources];
    H.writeSlot(Source, static_cast<uint32_t>(I % 8), Target);
    ++I;
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_WriteBarrierForwardFresh);

/// Builds a heap of Count live list nodes rooted in a handle scope, plus
/// an equal amount of garbage.
void buildMixedHeap(Heap &H, HandleScope &Scope, size_t Count) {
  Object *&Head = Scope.slot(nullptr);
  for (size_t I = 0; I != Count; ++I) {
    Object *Node = H.allocate(1, 16);
    H.writeSlot(Node, 0, Head);
    Head = Node;
    H.allocate(0, 16); // Garbage sibling.
  }
}

/// Scavenge cost per strategy at a full boundary: mark-sweep frees dead
/// objects individually; copying clones survivors and releases the region.
/// The heap of the previous iteration is torn down with timing paused, so
/// only the collection is timed.
void BM_ScavengeStrategy(benchmark::State &State) {
  const size_t Nodes = 20'000;
  const bool Copying = State.range(0) != 0;
  HeapConfig Config = manualConfig();
  Config.Collector =
      Copying ? CollectorKind::Copying : CollectorKind::MarkSweep;
  std::unique_ptr<Heap> H;
  std::unique_ptr<HandleScope> Scope;
  for (auto _ : State) {
    State.PauseTiming();
    Scope.reset();
    H = std::make_unique<Heap>(Config);
    Scope = std::make_unique<HandleScope>(*H);
    buildMixedHeap(*H, *Scope, Nodes);
    State.ResumeTiming();
    benchmark::DoNotOptimize(H->collectAtBoundary(0));
  }
  Scope.reset();
  State.SetLabel(Copying ? "copying" : "mark-sweep");
}

void BM_ScavengeByBoundary(benchmark::State &State) {
  // Scavenge cost as the boundary moves back: Arg(0) is the threatened
  // fraction of the heap in percent. Pause ~ threatened live bytes. As in
  // BM_ScavengeStrategy, teardown runs with timing paused.
  const size_t Nodes = 20'000;
  const int ThreatenedPercent = static_cast<int>(State.range(0));
  std::unique_ptr<Heap> H;
  std::unique_ptr<HandleScope> Scope;
  for (auto _ : State) {
    State.PauseTiming();
    Scope.reset();
    H = std::make_unique<Heap>(manualConfig());
    Scope = std::make_unique<HandleScope>(*H);
    buildMixedHeap(*H, *Scope, Nodes);
    core::AllocClock Boundary =
        H->now() - H->now() * static_cast<uint64_t>(ThreatenedPercent) / 100;
    State.ResumeTiming();
    benchmark::DoNotOptimize(H->collectAtBoundary(Boundary));
  }
  Scope.reset();
  State.SetLabel(std::to_string(ThreatenedPercent) + "% threatened");
}
// Each iteration also builds and tears down its heap untimed (~5 ms), which
// google-benchmark's timed-time target does not count; a fixed iteration
// count bounds the wall time.
BENCHMARK(BM_ScavengeByBoundary)
    ->Arg(10)
    ->Arg(25)
    ->Arg(50)
    ->Arg(100)
    ->Iterations(100);
BENCHMARK(BM_ScavengeStrategy)->Arg(0)->Arg(1)->Iterations(100);

/// One mark-sweep collection in `cache-3t`'s shape: three contexts each
/// hold 64 old buckets of 64 slots whose slots point, through the barrier,
/// at younger leaf entries, and allocate as much leaf garbage in between.
/// The boundary lies between the buckets and the entries, so the
/// remembered set roots every entry (12,288), the trace marks leaves only,
/// and the sweep frees the garbage.
void BM_ScavengeRememberedSet(benchmark::State &State) {
  constexpr unsigned Contexts = 3;
  constexpr uint32_t Buckets = 64, Width = 64;
  std::unique_ptr<Heap> H;
  std::vector<std::unique_ptr<MutatorContext>> Ctxs;
  for (auto _ : State) {
    State.PauseTiming();
    Ctxs.clear();
    H = std::make_unique<Heap>(manualConfig());
    for (unsigned C = 0; C != Contexts; ++C)
      Ctxs.push_back(std::make_unique<MutatorContext>(*H));
    for (auto &Ctx : Ctxs)
      for (uint32_t B = 0; B != Buckets; ++B)
        Ctx->allocateRooted(Width, 8);
    const core::AllocClock Boundary = H->now();
    Rng R(7);
    auto Raw = [&R](uint32_t Spread) {
      return 16 + static_cast<uint32_t>(R.nextBelow(Spread));
    };
    for (uint32_t B = 0; B != Buckets; ++B)
      for (uint32_t S = 0; S != Width; ++S)
        for (auto &Ctx : Ctxs) {
          Ctx->writeSlot(Ctx->root(B), S, Ctx->allocate(0, Raw(64)));
          Ctx->allocate(0, Raw(112)); // Request garbage.
        }
    State.ResumeTiming();
    benchmark::DoNotOptimize(H->collectAtBoundary(Boundary));
  }
  Ctxs.clear();
}
BENCHMARK(BM_ScavengeRememberedSet);

/// One copying collection in `bigdata-copy`'s root shape: 13,000
/// handle-rooted leaves of ~200 bytes whose handle order is shuffled
/// against birth, as that workload's reuse of freed handle slots leaves
/// it, so each root names a header far from the last one. The boundary
/// lies at the middle birth: the root scan evacuates half the leaves and
/// skips the rest, and the region release frees the originals.
void BM_ScavengeRootEvacuation(benchmark::State &State) {
  constexpr size_t Leaves = 13'000;
  HeapConfig Config = manualConfig();
  Config.Collector = CollectorKind::Copying;
  std::unique_ptr<Heap> H;
  std::unique_ptr<HandleScope> Scope;
  for (auto _ : State) {
    State.PauseTiming();
    Scope.reset();
    H = std::make_unique<Heap>(Config);
    Scope = std::make_unique<HandleScope>(*H);
    Rng R(13);
    std::vector<Object *> Born;
    core::AllocClock Boundary = 0;
    for (size_t I = 0; I != Leaves; ++I) {
      if (I == Leaves / 2)
        Boundary = H->now();
      Born.push_back(
          H->allocate(0, 176 + static_cast<uint32_t>(R.nextBelow(48))));
    }
    for (size_t I = Born.size() - 1; I != 0; --I)
      std::swap(Born[I], Born[R.nextBelow(I + 1)]);
    for (Object *O : Born)
      Scope->slot(O);
    State.ResumeTiming();
    benchmark::DoNotOptimize(H->collectAtBoundary(Boundary));
  }
  Scope.reset();
}
BENCHMARK(BM_ScavengeRootEvacuation)
    ->Iterations(200)
    ->ComputeStatistics("min", minimumOf);

void BM_RepeatedScavengeSteadyState(benchmark::State &State) {
  // A steady mutator with an installed policy: measures the whole
  // trigger-collect cycle amortized per allocation.
  HeapConfig Config;
  Config.TriggerBytes = 64 * 1024;
  Heap H(Config);
  core::PolicyConfig PolicyConfig;
  PolicyConfig.TraceMaxBytes = 16 * 1024;
  H.setPolicy(core::createPolicy("dtbfm", PolicyConfig));
  HandleScope Scope(H);
  Object *&Head = Scope.slot(nullptr);
  Rng R(42);
  for (auto _ : State) {
    Object *Node = H.allocate(1, 24);
    if (R.nextBool(0.05)) { // 5% of nodes join the live list.
      H.writeSlot(Node, 0, Head);
      Head = Node;
    }
    if (R.nextBool(0.001))
      Head = nullptr; // Periodically drop the list.
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_RepeatedScavengeSteadyState);

void BM_HandleScopeChurn(benchmark::State &State) {
  Heap H(manualConfig());
  Object *O = H.allocate(0);
  for (auto _ : State) {
    HandleScope Scope(H);
    benchmark::DoNotOptimize(&Scope.slot(O));
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_HandleScopeChurn);

} // namespace

BENCHMARK_MAIN();
