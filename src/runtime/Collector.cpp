//===- runtime/Collector.cpp - Scavenging over the threatened set --------===//
//
// Part of the dtbgc project (Barrett & Zorn DTB reproduction).
//
// The scavenger: given a threatening boundary TB, the threatened set is
// every object born after TB; immune objects are not traced. Roots are the
// handle-scope slots, global root locations, pinned objects, and every
// remembered-set entry whose (immune) source currently holds a pointer
// across the boundary. Unreachable threatened objects are reclaimed;
// immune garbage stays resident until some later scavenge moves the
// boundary behind it — the paper's tenured garbage and untenuring.
//
// Two strategies implement the same contract (HeapConfig::Collector):
// non-moving mark-sweep (this file) and an evacuating copying collector
// (CopyingCollector.cpp) that relocates survivors, exercising the paper's
// note that "the actual implementation may maintain object locations in
// any order".
//
//===----------------------------------------------------------------------===//

#include "runtime/Heap.h"

#include "core/MachineModel.h"
#include "core/ScavengeReport.h"
#include "runtime/Mutator.h"
#include "runtime/TraceLanes.h"
#include "support/Error.h"
#include "telemetry/Telemetry.h"

#include <cassert>
#include <vector>

using namespace dtb;
using namespace dtb::runtime;
using core::AllocClock;

core::ScavengeRecord Heap::collectAtBoundary(AllocClock Boundary) {
  // Rendezvous with every registered mutator context (publishing pending
  // allocations and flushing barrier buffers) before anything reads heap
  // state; reentrant when collect() or the pressure ladder already owns
  // the stopped world.
  WorldPause Pause(*this);
  // A full collection subsumes any incremental cycle in flight; finish it
  // first so its record lands in the history before this one.
  if (incrementalScavengeActive())
    finishIncrementalScavenge();
  bool RebuildRemSet = false;
  Boundary = openCollection(Boundary, RebuildRemSet);

  ScavengeWork Work = Config.Collector == CollectorKind::MarkSweep
                          ? runMarkSweep(Boundary)
                          : runCopying(Boundary);

  return completeCollection(Boundary, Work, RebuildRemSet);
}

AllocClock Heap::openCollection(AllocClock Boundary, bool &RebuildRemSet) {
  if (Boundary > Clock)
    fatalError("threatening boundary lies in the future");
  if (InCollection)
    fatalError("re-entrant collection");
  // A lost remembered set means crossing pointers may be unrecorded; the
  // only sound boundary until the set is rebuilt is 0 (trace everything).
  RebuildRemSet = RemSetPessimized;
  if (RebuildRemSet && Boundary != 0) {
    recordDegradation({DegradationKind::BoundaryPessimized, Clock, 0, 0,
                       residentBytes(),
                       "remembered set lost; boundary " +
                           std::to_string(Boundary) + " forced to 0"});
    Boundary = 0;
  }
  InCollection = true;
  LastStats = CollectionStats();
  WatchdogConsecutive = 0;
  WatchdogSerial = false;
  EffectiveBudgetBytes = 0;
  return Boundary;
}

core::ScavengeRecord Heap::completeCollection(AllocClock Boundary,
                                              const ScavengeWork &Work,
                                              bool RebuildRemSet) {
  // The trace is done; everything from here is post-trace bookkeeping.
  Phase.store(GcPhase::Restoring, std::memory_order_relaxed);
  core::ScavengeRecord Record;
  Record.Index = History.size() + 1;
  Record.Time = Clock;
  Record.Boundary = Boundary;
  Record.MemBeforeBytes = residentBytes();

  ReclaimedTotal.fetch_add(Work.ReclaimedBytes, std::memory_order_release);
  Record.TracedBytes = Work.TracedBytes;
  Record.ReclaimedBytes = Work.ReclaimedBytes;
  Record.SurvivedBytes = residentBytes();
  History.append(Record);

  Demographics.endScavenge(Clock);
  CollectionEndClock.store(Clock, std::memory_order_release);

  // The full trace just visited every survivor; restore write-barrier
  // completeness by re-deriving the set from the live heap.
  if (RebuildRemSet) {
    profiling::ProfilePhase Phase(&Profiler,
                                  profiling::phase::RemSetRebuild);
    rebuildRememberedSet();
    Phase.addCost(RemSet.size());
  }

  // The pending world release: resumeWorld runs after this tree closes,
  // so the epilogue accounts it here (cost = contexts to wake).
  if (!Mutators.empty()) {
    profiling::ProfilePhase Release(&Profiler,
                                    profiling::phase::WorldRelease);
    Release.addCost(Mutators.size());
  }

  // Close this scavenge's phase tree (the policy-decision phase recorded
  // by collect() is part of it) before telemetry walks it.
  Profiler.finishScavenge();
  if (telemetry::enabled())
    emitScavengeTelemetry(History.last());
  foldAllocationCounters(LastStats.ObjectsReclaimed);
  PendingRule.clear();
  PendingDecision = core::BoundaryDecision();
  InCollection = false;

  FlightRec.record(FlightEventKind::ScavengeComplete, Record.Time,
                   Record.Index, Record.TracedBytes, Record.ReclaimedBytes);

  if (Config.LogStream) {
    const core::ScavengeRecord &Last = History.last();
    std::fprintf(Config.LogStream,
                 "[gc %llu] t=%llu tb=%llu (window %llu) %s: traced %llu "
                 "reclaimed %llu survived %llu objects %zu remset %zu\n",
                 static_cast<unsigned long long>(Last.Index),
                 static_cast<unsigned long long>(Last.Time),
                 static_cast<unsigned long long>(Last.Boundary),
                 static_cast<unsigned long long>(Last.Time - Last.Boundary),
                 Config.Collector == CollectorKind::MarkSweep ? "mark-sweep"
                                                              : "copying",
                 static_cast<unsigned long long>(Last.TracedBytes),
                 static_cast<unsigned long long>(Last.ReclaimedBytes),
                 static_cast<unsigned long long>(Last.SurvivedBytes),
                 Objects.size(), RemSet.size());
    // With registered contexts, the collection's rendezvous gets its own
    // log line (context-free heaps skip it — their stop is a no-op).
    if (!Mutators.empty()) {
      const SafepointRendezvousRecord &R = LastRendezvous;
      std::fprintf(Config.LogStream,
                   "[gc %llu] safepoint: ttsp %.3f ms, %llu arrival%s, "
                   "published %llu objects (%llu bytes), flushed %llu, "
                   "straggler ctx %llu (%s)\n",
                   static_cast<unsigned long long>(Last.Index),
                   R.TtspMillis,
                   static_cast<unsigned long long>(R.Contexts),
                   R.Contexts == 1 ? "" : "s",
                   static_cast<unsigned long long>(R.PendingAllocObjects),
                   static_cast<unsigned long long>(R.PendingAllocBytes),
                   static_cast<unsigned long long>(R.FlushedBarrierEntries),
                   static_cast<unsigned long long>(R.StragglerContext),
                   stragglerKindName(R.Straggler));
    }
  }
  return History.last();
}

void Heap::emitScavengeTelemetry(const core::ScavengeRecord &Record) {
  namespace tm = dtb::telemetry;
  // The machine model converts traced bytes to milliseconds, as the
  // simulator does, so runtime and sim pauses are comparable.
  double PauseMs =
      core::MachineModel().pauseMillisForTracedBytes(Record.TracedBytes);
  core::emitScavengeReport(
      TelemetryTrack, Record, PauseMs,
      PendingRule.empty() ? std::string("explicit") : PendingRule,
      PendingDecision,
      {tm::arg("objects_traced", LastStats.ObjectsTraced),
       tm::arg("objects_reclaimed", LastStats.ObjectsReclaimed),
       tm::arg("objects_moved", LastStats.ObjectsMoved),
       tm::arg("remset_roots", LastStats.RememberedSetRoots),
       tm::arg("remset_pruned", LastStats.RememberedSetPruned),
       tm::arg("remset_size", static_cast<uint64_t>(RemSet.size()))});

  // Phase spans: the scavenge's cost-attribution tree as nested spans.
  // Timestamps are synthesized by laying children out inside their parent
  // in recorded order (cost units double as span length), so a trace
  // viewer renders the nesting even though the real clock never advances
  // during a stop-the-world pause.
  const auto &Nodes = Profiler.lastTree();
  if (!Nodes.empty()) {
    std::vector<uint64_t> StartOffset(Nodes.size(), 0);
    std::vector<uint64_t> Consumed(Nodes.size(), 0);
    uint64_t RootConsumed = 0;
    for (size_t I = 0; I != Nodes.size(); ++I) {
      const profiling::PhaseTreeNode &Node = Nodes[I];
      if (Node.Parent < 0) {
        StartOffset[I] = RootConsumed;
        RootConsumed += Node.TotalCost;
      } else {
        size_t P = static_cast<size_t>(Node.Parent);
        StartOffset[I] = StartOffset[P] + Consumed[P];
        Consumed[P] += Node.TotalCost;
      }
      tm::Event PhaseSpan;
      PhaseSpan.Phase = tm::EventPhase::Span;
      PhaseSpan.Track = TelemetryTrack;
      PhaseSpan.Name = std::string("phase.") + Node.Name;
      PhaseSpan.ScavengeIndex = Record.Index;
      PhaseSpan.TsClock = Record.Time + StartOffset[I];
      PhaseSpan.DurMillis = static_cast<double>(Node.TotalCost) / 1000.0;
      PhaseSpan.Args = {tm::arg("self_cost", Node.SelfCost),
                        tm::arg("total_cost", Node.TotalCost)};
      tm::recorder().emit(std::move(PhaseSpan));
    }
  }

  // Residency counter series (Fig. 2's y-axis, post-scavenge points).
  tm::Event Resident;
  Resident.Phase = tm::EventPhase::Counter;
  Resident.Track = TelemetryTrack;
  Resident.Name = "resident_bytes";
  Resident.ScavengeIndex = Record.Index;
  Resident.TsClock = Record.Time;
  Resident.Args = {tm::arg("resident_bytes", residentBytes())};
  tm::recorder().emit(std::move(Resident));

  tm::MetricsRegistry &Registry = tm::MetricsRegistry::global();
  Registry.counter("runtime.scavenge.count").add(1);
  Registry.counter("runtime.scavenge.traced_bytes").add(Record.TracedBytes);
  Registry.counter("runtime.scavenge.reclaimed_bytes")
      .add(Record.ReclaimedBytes);
  Registry.histogram("runtime.scavenge.pause_ms").record(PauseMs);
}

void Heap::foldAllocationCounters(uint64_t ReclaimedObjects) {
  // With the world stopped every allocation is published, so the objects
  // allocated since the last fold are the list's growth plus what this
  // collection reclaimed, and their bytes are the clock's advance.
  AllocationTally Now{Objects.size(), now(), MutStats.TlabRefills};
  if (telemetry::enabled()) {
    // Only nonzero deltas touch the registry, so a heap that never
    // allocated registers no counter.
    auto Add = [](const char *Name, uint64_t Delta) {
      if (Delta != 0)
        telemetry::MetricsRegistry::global().counter(Name).add(Delta);
    };
    uint64_t Refills = Now.TlabRefills - Folded.TlabRefills;
    Add("runtime.alloc.count", Now.Objects + ReclaimedObjects - Folded.Objects);
    Add("runtime.alloc.bytes", Now.Clock - Folded.Clock);
    Add("runtime.tlab.refills", Refills);
    Add("runtime.tlab.carved_bytes", Refills * BlockBytes);
  }
  Folded = Now;
}

bool Heap::markThreatened(Object *O, AllocClock Boundary,
                          AllocClock BlackClock, std::vector<Object *> &Gray,
                          ScavengeWork &Work) {
  // Objects born after BlackClock arrived mid-incremental-cycle and are
  // black by construction (the sweep keeps them); for a monolithic
  // scavenge BlackClock == Clock, so the test never fires.
  if (!O || O->birth() <= Boundary || O->birth() > BlackClock ||
      O->isMarked())
    return false;
  assert(O->isAlive() && "tracing through a reclaimed object");
  O->setMarked();
  Work.TracedBytes += O->grossBytes();
  LastStats.ObjectsTraced += 1;
  Gray.push_back(O);
  return true;
}

void Heap::seedMarkSweepRoots(AllocClock Boundary, AllocClock BlackClock,
                              std::vector<Object *> &Gray,
                              ScavengeWork &Work) {
  // Each marking phase's cost is the bytes it discovered (the delta of
  // Work.TracedBytes): root objects bill to root_scan, boundary-crossing
  // targets to remset_scan, everything transitively reached to trace.
  {
    profiling::ProfilePhase Phase(&Profiler, profiling::phase::RootScan);
    uint64_t Before = Work.TracedBytes;
    // Pinned objects survive unconditionally: threatened ones are marked
    // (and traced) here; immune ones are untouchable anyway, and their
    // forward-in-time pointers are covered by the remembered set like any
    // other immune object's.
    forEachRoot([&](Object *Root) {
      markThreatened(Root, Boundary, BlackClock, Gray, Work);
    });
    Phase.addCost(Work.TracedBytes - Before);
  }

  // Remembered-set roots: entries whose source is immune and whose current
  // value crosses the boundary.
  {
    profiling::ProfilePhase Phase(&Profiler, profiling::phase::RemSetScan);
    uint64_t Before = Work.TracedBytes;
    forEachCrossing(Boundary, [&](Object *, uint32_t, Object *Target) {
      markThreatened(Target, Boundary, BlackClock, Gray, Work);
    });
    Phase.addCost(Work.TracedBytes - Before);
  }
}

void Heap::scanMarkSweepObject(Object *O, AllocClock Boundary,
                               AllocClock BlackClock, TraceLane &Lane) {
  // Trace only within the threatened set: pointers to immune objects need
  // no action (immune objects are assumed live), and pointers out of
  // immune objects were handled through the remembered set. The mark bit
  // doubles as the claim: the fetch_or admits exactly one lane per child.
  for (uint32_t I = 0, E = O->numSlots(); I != E; ++I) {
    Object *Child = O->slot(I);
    if (!Child || Child->birth() <= Boundary || Child->birth() > BlackClock)
      continue;
    if (!Child->tryAcquireFlag(Object::FlagMarked))
      continue;
    assert(Child->isAlive() && "tracing through a reclaimed object");
    Lane.TracedBytes += Child->grossBytes();
    Lane.ObjectsTraced += 1;
    Lane.addChild(Child);
  }
}

void Heap::drainTraceLanes(TraceLaneSet &Lanes, std::vector<Object *> &Gray,
                           ScavengeWork &Work) {
  for (unsigned I = 0; I != Lanes.numLanes(); ++I) {
    TraceLane &Lane = Lanes.lane(I);
    Work.TracedBytes += Lane.TracedBytes;
    LastStats.ObjectsTraced += Lane.ObjectsTraced;
    LastStats.ObjectsMoved += Lane.ObjectsMoved;
    LastStats.LaneOverflowEvents += Lane.OverflowEvents;
    Gray.insert(Gray.end(), Lane.Children.begin(), Lane.Children.end());
    Lane.TracedBytes = 0;
    Lane.ObjectsTraced = 0;
    Lane.ObjectsMoved = 0;
    Lane.OverflowEvents = 0;
    Lane.Children.clear();
  }
  std::vector<Object *> &Overflow = Lanes.overflow();
  Gray.insert(Gray.end(), Overflow.begin(), Overflow.end());
  Overflow.clear();
}

void Heap::watchQuantum(uint64_t Scanned, uint64_t BudgetBytes,
                        std::optional<double> WallMs) {
  LastStats.TraceQuanta += 1;
  if (Scanned > LastStats.MaxQuantumTracedBytes)
    LastStats.MaxQuantumTracedBytes = Scanned;

  // Wall time is quarantined observability (like every `wall.` metric):
  // it never feeds the deterministic violation decision below.
  if (WallMs) {
    telemetry::MetricsRegistry &Registry =
        telemetry::MetricsRegistry::global();
    Registry.histogram("wall.runtime.quantum_pause_ms").record(*WallMs);
    if (Config.QuantumDeadlineMillis > 0 &&
        *WallMs > Config.QuantumDeadlineMillis)
      Registry.counter("wall.runtime.watchdog.deadline_overruns").add(1);
  }

  // --- Pause-deadline watchdog ------------------------------------------
  // Deterministic: the quantum's pause is its machine-model cost (same
  // conversion the simulator and telemetry use), so a violation — and the
  // backoff it drives — replays identically on every platform. An
  // injected fault counts as a violation even with no deadline set.
  bool Violated = faultRequestedAt(FaultSite::WatchdogDeadline);
  const char *Cause = "injected watchdog-deadline fault";
  double CostMs = core::MachineModel().pauseMillisForTracedBytes(Scanned);
  if (Config.QuantumDeadlineMillis > 0 && CostMs > Config.QuantumDeadlineMillis) {
    Violated = true;
    Cause = "quantum over deadline";
  }
  if (!Violated) {
    WatchdogConsecutive = 0;
    return;
  }

  LastStats.WatchdogViolations += 1;
  WatchdogConsecutive += 1;
  // Retry-halving backoff: each violation halves the budget the next
  // quantum runs under (an unbounded budget starts from what this quantum
  // actually scanned), with a floor of one byte — a quantum always makes
  // progress.
  uint64_t Halved = (BudgetBytes != 0 ? BudgetBytes : Scanned) / 2;
  EffectiveBudgetBytes = Halved != 0 ? Halved : 1;

  std::string Detail = std::string(Cause) + ": scanned " +
                       std::to_string(Scanned) + " bytes (model cost " +
                       std::to_string(CostMs) + " ms, deadline " +
                       std::to_string(Config.QuantumDeadlineMillis) +
                       " ms); budget halved to " +
                       std::to_string(EffectiveBudgetBytes);
  // K consecutive violations: the parallel fan-out itself is suspect
  // (steal storms, cache pressure); degrade to a single shared cursor
  // for the rest of the collection. Results are bit-identical — only
  // scheduling changes — so this is safe to do deterministically.
  constexpr unsigned WatchdogMaxConsecutive = 3;
  if (!WatchdogSerial && WatchdogConsecutive >= WatchdogMaxConsecutive) {
    WatchdogSerial = true;
    Detail += "; degrading to serial shared-cursor tracing";
  }
  recordDegradation({DegradationKind::WatchdogDeadline, Clock, 0,
                     BudgetBytes, residentBytes(), std::move(Detail)});
}

void Heap::finishMarkSweepCycle(AllocClock Boundary, AllocClock BlackClock,
                                ScavengeWork &Work) {
  // --- Weak-reference processing ----------------------------------------
  // A weak reference whose target is threatened and unmarked is about to
  // dangle: clear it. Weak references to immune objects (including immune
  // garbage) are untouched — clearing waits for the boundary to reach the
  // target — and mid-cycle allocations (born after BlackClock) are black,
  // hence live.
  {
    profiling::ProfilePhase Phase(&Profiler, profiling::phase::WeakRefs);
    Phase.addCost(WeakRefs.size());
    for (WeakRef *Weak : WeakRefs) {
      Object *Target = Weak->get();
      if (Target && Target->birth() > Boundary &&
          Target->birth() <= BlackClock && !Target->isMarked())
        Weak->set(nullptr);
    }
  }

  // --- Sweep phase ------------------------------------------------------
  // Compact the threatened suffix of the birth-ordered allocation list in
  // place; the immune prefix is untouched. The birth-ordered walk also
  // feeds the survivor table (allocate-black objects are not survivors).
  // Only an object with slots can be a remembered-set source (every insert
  // names a slot), so dead leaves skip the set's lookup.
  {
    profiling::ProfilePhase Phase(&Profiler, profiling::phase::Sweep);
    size_t Begin = firstBornAfter(Boundary);
    size_t Out = Begin;
    Demographics.beginScavenge(Boundary);
    for (size_t I = Begin, E = Objects.size(); I != E; ++I) {
      if (I + ScanPrefetchDistance < E)
        prefetchHeader(Objects[I + ScanPrefetchDistance]);
      Object *O = Objects[I];
      if (O->birth() > BlackClock) {
        // Allocate-black: born during the incremental cycle.
        Objects[Out++] = O;
        continue;
      }
      if (O->isMarked()) {
        O->clearMarked();
        Demographics.recordSurvivor(O->birth(), O->grossBytes());
        Objects[Out++] = O;
        continue;
      }
      Work.ReclaimedBytes += O->grossBytes();
      LastStats.ObjectsReclaimed += 1;
      if (O->numSlots() != 0)
        RemSet.removeSource(O);
      releaseStorage(O);
    }
    Objects.resize(Out);
    Phase.addCost(Work.ReclaimedBytes);
  }
}

Heap::ScavengeWork Heap::runMarkSweep(AllocClock Boundary) {
  ScavengeWork Work;
  std::vector<Object *> Gray;
  const AllocClock BlackClock = Clock;
  seedMarkSweepRoots(Boundary, BlackClock, Gray, Work);

  {
    profiling::ProfilePhase Phase(&Profiler, profiling::phase::Trace);
    uint64_t Before = Work.TracedBytes;
    TraceLaneSet Lanes(tracePool());
    auto Scan = [&](Object *O, TraceLane &Lane) {
      scanMarkSweepObject(O, Boundary, BlackClock, Lane);
    };
    while (!Gray.empty())
      traceQuantum(Lanes, Gray, Scan, Work);
    Phase.addCost(Work.TracedBytes - Before);
  }

  finishMarkSweepCycle(Boundary, BlackClock, Work);
  return Work;
}

void Heap::beginIncrementalScavenge(AllocClock Boundary) {
  WorldPause Pause(*this);
  if (Config.Collector != CollectorKind::MarkSweep)
    fatalError("incremental scavenging requires the mark-sweep collector");
  if (incrementalScavengeActive())
    fatalError("incremental scavenge already active");
  // Rollback state for abortIncrementalScavenge: the pre-cycle stats. The
  // survivor table needs none — only the sweep touches it.
  Inc = IncrementalState();
  Inc.PrevStats = LastStats;
  Inc.Boundary = openCollection(Boundary, Inc.RebuildRemSet);
  Inc.Status = CycleStatus::Running;
  Inc.BlackClock = Clock;
  syncIncMirror();
  FlightRec.record(FlightEventKind::CycleBegin, Clock, Inc.Boundary);
  seedMarkSweepRoots(Inc.Boundary, Inc.BlackClock, Inc.Gray, Inc.Work);
  InCollection = false;
}

CycleStatus Heap::incrementalScavengeStep() {
  // Every quantum is its own stop-the-world window: contexts publish and
  // flush at its rendezvous, then run free again between quanta.
  WorldPause Pause(*this);
  if (!Inc.Status)
    fatalError("no incremental scavenge is active");
  if (*Inc.Status != CycleStatus::Running)
    return *Inc.Status;
  if (InCollection)
    fatalError("re-entrant collection");
  if (faultRequestedAt(FaultSite::IncrementalStep)) {
    // The embedder's quantum "failed" before it ran (cancelled time
    // slice, preempted helper). The always-safe recovery is to cancel
    // the whole cycle; a later collection redoes the work.
    return abortIncrementalCycle("injected incremental-step fault");
  }
  InCollection = true;

  // Re-grey what the barrier caught since the last step, then rescan the
  // root locations: globals, handles, and pins are raw slots with no
  // write barrier, so every step treats them as freshly discovered.
  {
    profiling::ProfilePhase Phase(&Profiler, profiling::phase::RootScan);
    uint64_t Before = Inc.Work.TracedBytes;
    for (Object *O : Inc.PendingGray)
      markThreatened(O, Inc.Boundary, Inc.BlackClock, Inc.Gray, Inc.Work);
    Inc.PendingGray.clear();
    forEachRoot([&](Object *Root) {
      markThreatened(Root, Inc.Boundary, Inc.BlackClock, Inc.Gray, Inc.Work);
    });
    Phase.addCost(Inc.Work.TracedBytes - Before);
  }

  if (Inc.Gray.empty()) {
    // Marking converged: no gray work survived the rescan, so every
    // reachable threatened object born before BlackClock is marked and
    // the cycle can close.
    finishMarkSweepCycle(Inc.Boundary, Inc.BlackClock, Inc.Work);
    completeCollection(Inc.Boundary, Inc.Work, Inc.RebuildRemSet);
    return closeIncrementalCycle(CycleStatus::Completed);
  }

  {
    profiling::ProfilePhase Phase(&Profiler, profiling::phase::Trace);
    uint64_t Before = Inc.Work.TracedBytes;
    TraceLaneSet Lanes(tracePool());
    traceQuantum(
        Lanes, Inc.Gray,
        [&](Object *O, TraceLane &Lane) {
          scanMarkSweepObject(O, Inc.Boundary, Inc.BlackClock, Lane);
        },
        Inc.Work);
    Phase.addCost(Inc.Work.TracedBytes - Before);
  }
  InCollection = false;
  return CycleStatus::Running;
}

CycleStatus Heap::finishIncrementalScavenge() {
  // One stopped world for the whole drain: no context runs between its
  // quanta.
  WorldPause Pause(*this);
  CycleStatus Status;
  do
    Status = incrementalScavengeStep();
  while (Status == CycleStatus::Running);
  return Status;
}

CycleStatus Heap::abortIncrementalScavenge() {
  WorldPause Pause(*this);
  if (!Inc.Status)
    fatalError("no incremental scavenge is active");
  if (*Inc.Status != CycleStatus::Running)
    return *Inc.Status;
  if (InCollection)
    fatalError("re-entrant collection");
  return abortIncrementalCycle("explicit abort");
}

CycleStatus Heap::abortIncrementalCycle(const char *Why) {
  InCollection = true;
  const AllocClock Boundary = Inc.Boundary;
  const AllocClock BlackClock = Inc.BlackClock;
  const size_t GrayObjects = Inc.Gray.size() + Inc.PendingGray.size();
  const uint64_t TracedBytes = Inc.Work.TracedBytes;
  const uint64_t Quanta = LastStats.TraceQuanta;

  // Clear every mark this cycle set. Only threatened objects born at or
  // before BlackClock were ever marked (mark-sweep never sets the claim
  // flag separately), and the allocation list is birth-ordered, so the
  // walk covers exactly the threatened non-black window.
  for (size_t I = firstBornAfter(Boundary), E = Objects.size(); I != E; ++I) {
    Object *O = Objects[I];
    if (O->birth() > BlackClock)
      break;
    O->clearTraceFlags();
  }

  // Roll back the per-collection stats; the survivor table and history
  // change only in the sweep and completeCollection, never reached here.
  // The watchdog state is left for the next collection's prologue to
  // reset; nothing reads it before then.
  LastStats = Inc.PrevStats;
  closeIncrementalCycle(CycleStatus::Aborted);

  // Close the partial phase tree (no frames stay open between incremental
  // calls); the aggregates keep the already-attributed cost, which is
  // diagnostic only.
  Profiler.finishScavenge();
  InCollection = false;

  // The rollback above is itself a fault site: a failure mid-rollback
  // could leave barrier bookkeeping half-unwound, so an injected fault
  // here answers with the same always-safe response as a remembered-set
  // loss — the next collection is forced full.
  bool RollbackFaulted = faultRequestedAt(FaultSite::CycleAbort);

  recordDegradation(
      {DegradationKind::CycleAborted, Clock, 0, 0, residentBytes(),
       std::string(Why) + "; tb=" + std::to_string(Boundary) +
           " discarded " + std::to_string(GrayObjects) + " gray after " +
           std::to_string(Quanta) + " quanta (" +
           std::to_string(TracedBytes) + " bytes traced)"});

  if (RollbackFaulted)
    pessimizeNextCollection("injected cycle-abort fault; rollback "
                            "distrusted, next collection forced full");
  return CycleStatus::Aborted;
}

IncrementalCycleInfo Heap::incrementalCycleInfo() const {
  IncrementalCycleInfo Info;
  if (!incrementalScavengeActive())
    return Info;
  Info.Active = true;
  Info.Boundary = Inc.Boundary;
  Info.BlackClock = Inc.BlackClock;
  Info.GrayObjects = Inc.Gray.size();
  for (const Object *O : Inc.Gray)
    Info.GrayBytes += O->grossBytes();
  Info.PendingGrayObjects = Inc.PendingGray.size();
  Info.TracedBytes = Inc.Work.TracedBytes;
  Info.Quanta = LastStats.TraceQuanta;
  Info.BudgetBytes = EffectiveBudgetBytes != 0 ? EffectiveBudgetBytes
                                               : Config.ScavengeBudgetBytes;
  Info.RebuildRemSet = Inc.RebuildRemSet;
  Info.SerialDegraded = WatchdogSerial;
  Info.WatchdogViolations = LastStats.WatchdogViolations;
  return Info;
}
