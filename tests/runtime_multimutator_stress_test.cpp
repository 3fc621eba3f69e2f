//===- tests/runtime_multimutator_stress_test.cpp -------------------------==//
//
// N real mutator threads against one heap: seeded per-thread op streams
// (allocate, link own objects, publish through cross-thread mailboxes,
// drop roots, poll safepoints) drive repeated trigger-scavenges while the
// main thread runs the full verifier battery at safepoints, paced by the
// allocation clock, and steps one incremental cycle through the concurrent
// mutation. A chaos variant re-runs the mill under per-thread fault
// injectors. Mark-sweep only: raw Object* values shared through mailboxes
// rely on objects not moving.
//
// Replay a failure with DTB_TEST_SEED=<seed> (see tests/TestSeeds.h).
//
//===----------------------------------------------------------------------===//

#include "runtime/Heap.h"
#include "runtime/HeapVerifier.h"
#include "runtime/Mutator.h"

#include "core/Policies.h"
#include "support/FaultInjector.h"
#include "support/Random.h"

#include "TestSeeds.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

using namespace dtb;
using namespace dtb::runtime;

namespace {

constexpr unsigned NumThreads = 4;

struct StressOptions {
  uint64_t Seed = 0;
  uint64_t OpsPerThread = 2'500;
  bool Chaos = false;
  bool DriveIncrementalCycle = true;
};

/// One worker thread's mill: every heap touch goes through its own
/// MutatorContext, all object references are re-read from root slots (no
/// raw pointer outlives the op that fetched it, except mailbox objects,
/// which are immortal), and allocation+rooting is one counted-in op so a
/// concurrent trigger collection can never reclaim a newborn. Between ops
/// the worker waits while the allocation clock is at or past \p Gate, the
/// main thread's pacing mark.
void workerMill(Heap &H, unsigned Index, const StressOptions &Options,
                std::array<std::atomic<Object *>, NumThreads> &Mailboxes,
                std::atomic<unsigned> &MailboxesReady,
                std::atomic<unsigned> &Finished,
                const std::atomic<core::AllocClock> &Gate) {
  std::unique_ptr<FaultInjector> Injector;
  std::unique_ptr<FaultInjectionScope> Faults;
  if (Options.Chaos) {
    // Injectors are thread-local by design; each worker runs its own
    // deterministic schedule.
    Injector = std::make_unique<FaultInjector>(Options.Seed * 31 + Index);
    Injector->setProbability(FaultSite::BarrierSink, 0.01);
    Injector->setProbability(FaultSite::Allocation, 0.002);
    Faults = std::make_unique<FaultInjectionScope>(*Injector);
  }

  MutatorContext Ctx(H);
  Rng Random(Options.Seed + Index);

  // The mailbox object is rooted forever, so its address is stable and
  // other threads may link into it at any time. Slot j of every mailbox
  // is written only by thread j — cross-thread stores race on the
  // barrier, never on a slot.
  size_t MailboxRoot = Ctx.allocateRooted(NumThreads, 0);
  Mailboxes[Index].store(Ctx.root(MailboxRoot), std::memory_order_release);
  MailboxesReady.fetch_add(1, std::memory_order_acq_rel);
  while (MailboxesReady.load(std::memory_order_acquire) != NumThreads)
    std::this_thread::yield();
  const size_t FirstChurnRoot = Ctx.numRoots();

  for (uint64_t Op = 0; Op != Options.OpsPerThread; ++Op) {
    uint32_t Slots = static_cast<uint32_t>(Random.nextBelow(3));
    uint32_t Raw = static_cast<uint32_t>(Random.nextBelow(64));
    size_t NewIdx = Ctx.allocateRooted(Slots, Raw);

    // Link two of our own rooted objects (forward or backward in time —
    // the barrier sorts it out).
    if (Ctx.numRoots() > FirstChurnRoot + 2 && Random.nextBelow(2) == 0) {
      size_t A = FirstChurnRoot + Random.nextBelow(Ctx.numRoots() -
                                                   FirstChurnRoot);
      Object *Source = Ctx.root(A);
      if (Source->numSlots() != 0)
        Ctx.writeSlot(Source,
                      static_cast<uint32_t>(
                          Random.nextBelow(Source->numSlots())),
                      Ctx.root(NewIdx));
    }

    // Publish our newborn into another thread's mailbox: a genuinely
    // cross-thread edge the barrier must remember.
    if (Op % 8 == Index) {
      Object *Mailbox =
          Mailboxes[Random.nextBelow(NumThreads)].load(
              std::memory_order_acquire);
      Ctx.writeSlot(Mailbox, Index, Ctx.root(NewIdx));
    }

    // Drop the churn tail now and then; whatever is still referenced from
    // a retained slot or a mailbox survives, the rest is garbage for the
    // next scavenge.
    if (Ctx.numRoots() > FirstChurnRoot + 48)
      Ctx.truncateRoots(FirstChurnRoot + 16);

    Ctx.safepoint();
    while (H.now() >= Gate.load(std::memory_order_acquire))
      std::this_thread::sleep_for(std::chrono::microseconds(20));
  }

  // Hold the context (and therefore the mailbox root) alive until every
  // mill is done: a finished worker's context destruction would drop the
  // root that keeps its mailbox reachable while slower workers still
  // store into it. Spinning between ops counts as AtSafepoint, so the
  // collector never waits on a parked finisher.
  Finished.fetch_add(1, std::memory_order_acq_rel);
  while (Finished.load(std::memory_order_acquire) != NumThreads)
    std::this_thread::yield();
}

/// Runs the whole mill and returns the heap's scavenge count.
void runStress(const StressOptions &Options) {
  HeapConfig Config;
  Config.TriggerBytes = 96 * 1024;
  Config.Collector = CollectorKind::MarkSweep;
  Config.TraceThreads = 2;
  Config.ScavengeBudgetBytes = 8 * 1024;
  Heap H(Config);
  core::PolicyConfig PolicyConfig;
  PolicyConfig.TraceMaxBytes = 48 * 1024;
  PolicyConfig.MemMaxBytes = 512 * 1024;
  H.setPolicy(core::createPolicy("fixed4", PolicyConfig));

  // The collector side of the chaos schedule: handshake faults fire on
  // the thread that stops the world (this one).
  std::unique_ptr<FaultInjector> Injector;
  std::unique_ptr<FaultInjectionScope> Faults;
  if (Options.Chaos) {
    Injector = std::make_unique<FaultInjector>(Options.Seed * 17 + 1);
    Injector->setProbability(FaultSite::SafepointHandshake, 0.02);
    Faults = std::make_unique<FaultInjectionScope>(*Injector);
  }

  std::array<std::atomic<Object *>, NumThreads> Mailboxes{};
  std::atomic<unsigned> MailboxesReady{0};
  std::atomic<unsigned> Finished{0};
  // Mid-run batteries come every BatteryBytes of allocation. The workers
  // hold at Gate until the main thread moves it, so the mill cannot run
  // past a battery however late that thread is scheduled.
  const uint64_t BatteryBytes = Config.TriggerBytes / 4;
  std::atomic<core::AllocClock> Gate{BatteryBytes};
  std::vector<std::thread> Workers;
  for (unsigned I = 0; I != NumThreads; ++I)
    Workers.emplace_back(workerMill, std::ref(H), I, std::cref(Options),
                         std::ref(Mailboxes), std::ref(MailboxesReady),
                         std::ref(Finished), std::cref(Gate));

  // Runs the verifier at a safepoint; returns the scavenges recorded so far.
  auto verifyBattery = [&](const char *Where) {
    size_t Scavenges = 0;
    H.runAtSafepoint([&](Heap &Stopped) {
      VerifyResult Verified = verifyHeap(Stopped);
      EXPECT_TRUE(Verified.Ok)
          << Where << ": "
          << (Verified.Problems.empty() ? "" : Verified.Problems.front());
      Scavenges = Stopped.history().size();
    });
    return Scavenges;
  };

  auto millFinished = [&] {
    return Finished.load(std::memory_order_acquire) == NumThreads;
  };
  while (MailboxesReady.load(std::memory_order_acquire) != NumThreads)
    std::this_thread::yield();

  // Verifier battery against live mutation, until the mill has driven two
  // trigger scavenges: each crossing runs exactly one collection, and the
  // open incremental cycle below suspends the trigger, so opening it early
  // on a slow (sanitized) run could leave the mill without any. A battery
  // holds every worker at count-in, so between batteries the mill runs
  // free up to the gate: back-to-back stops would let it advance barely
  // an op per stop.
  size_t Scavenges = 0;
  for (int Round = 0; Round < 8 || (Scavenges < 2 && !millFinished());
       ++Round) {
    while (H.now() < Gate.load(std::memory_order_acquire) && !millFinished())
      std::this_thread::yield();
    Gate.store(H.now() + BatteryBytes, std::memory_order_release);
    Scavenges = verifyBattery("mid-run safepoint");
  }
  Gate.store(std::numeric_limits<core::AllocClock>::max(),
             std::memory_order_release);

  // One incremental cycle stepped through the concurrent mutation: every
  // quantum stops the world, drains the contexts' grey buffers, and
  // resumes. Workers terminate, so the grey backlog drains eventually.
  // In the chaos variant a worker's injected allocation fault may walk the
  // mid-cycle pressure rungs, whose accelerate rung can complete the cycle
  // between two steps; the next step returns Completed all the same.
  CycleStatus Cycle = CycleStatus::Running;
  if (Options.DriveIncrementalCycle) {
    H.beginIncrementalScavenge(H.now() / 2);
    while ((Cycle = H.incrementalScavengeStep()) == CycleStatus::Running)
      verifyBattery("between incremental quanta");
    verifyBattery("after incremental cycle");
  }

  for (std::thread &Worker : Workers)
    Worker.join();

  // The scavenge floor: the mill must have driven at least two full
  // trigger-scavenges, and the incremental cycle appended its record.
  EXPECT_GE(H.history().records().size(), 2u)
      << "mill too small to exercise repeated scavenges";
  if (Options.DriveIncrementalCycle) {
    EXPECT_EQ(Cycle, CycleStatus::Completed);
  }

  // With the contexts gone nothing roots the mill's objects: one full
  // collection must reclaim every object and return every TLAB byte.
  H.collectAtBoundary(0);
  VerifyResult Final = verifyHeap(H);
  EXPECT_TRUE(Final.Ok)
      << (Final.Problems.empty() ? "" : Final.Problems.front());
  EXPECT_EQ(H.residentObjects(), 0u);
  EXPECT_EQ(H.tlabBlockRanges().size(), 0u) << "TLAB bytes lost";
}

} // namespace

TEST(MultiMutatorStressTest, SeededMillSurvivesScavengesAndOneCycle) {
  StressOptions Options;
  Options.Seed = test::effectiveSeed(0xD7B);
  DTB_SCOPED_SEED_TRACE(Options.Seed);
  runStress(Options);
}

TEST(MultiMutatorStressTest, SecondSeedInterleavesDifferently) {
  StressOptions Options;
  Options.Seed = test::effectiveSeed(0xA110C);
  Options.OpsPerThread = 1'500;
  DTB_SCOPED_SEED_TRACE(Options.Seed);
  runStress(Options);
}

TEST(MultiMutatorChaosTest, FaultStormUnderConcurrentMutation) {
  StressOptions Options;
  Options.Seed = test::effectiveSeed(0xFA417);
  Options.OpsPerThread = 1'500;
  Options.Chaos = true;
  DTB_SCOPED_SEED_TRACE(Options.Seed);
  runStress(Options);
}
