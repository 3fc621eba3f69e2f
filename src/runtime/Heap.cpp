//===- runtime/Heap.cpp - Allocation, barrier, roots ----------------------==//

#include "runtime/Heap.h"

#include "support/Error.h"
#include "support/FaultInjector.h"
#include "support/ThreadPool.h"
#include "telemetry/Telemetry.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdlib>
#include <cstring>
#include <new>

using namespace dtb;
using namespace dtb::runtime;
using core::AllocClock;

Heap::Heap(HeapConfig Config) : Config(Config) {
  static std::atomic<unsigned> NextHeapId{1};
  TelemetryTrack =
      "heap#" + std::to_string(NextHeapId.fetch_add(1,
                                                    std::memory_order_relaxed));
}

Heap::~Heap() {
  DTB_CHECK(Mutators.empty(),
            "destroying a heap with registered mutator contexts; destroy "
            "every MutatorContext first");
  // TLAB-interior objects share their block's storage; only dedicated
  // allocations are released individually.
  for (Object *O : Objects)
    if (O->storageKind() == Object::StorageOwn)
      ::operator delete(static_cast<void *>(O));
  for (Object *O : Quarantine)
    if (O->storageKind() == Object::StorageOwn)
      ::operator delete(static_cast<void *>(O));
  for (auto &Block : TlabBlocks)
    ::operator delete(Block->Begin);
}

ThreadPool *Heap::tracePoolFor(bool *PoolIsPrivate) {
  *PoolIsPrivate = false;
  if (Config.TraceThreads == 1)
    return nullptr;
  if (Config.TraceThreads == 0)
    return defaultThreadPool();
  // N > 1: a heap-private pool of N - 1 workers (the collecting thread is
  // the N-th lane), created once and reused so collections do not respawn
  // threads.
  if (!TracePool)
    TracePool = std::make_unique<ThreadPool>(Config.TraceThreads - 1);
  *PoolIsPrivate = true;
  return TracePool.get();
}

void Heap::setPolicy(std::unique_ptr<core::BoundaryPolicy> NewPolicy) {
  if (!NewPolicy)
    fatalError("heap policy must be non-null");
  Policy = std::move(NewPolicy);
  Policy->reset();
}

Object *Heap::allocate(uint32_t NumSlots, uint32_t RawBytes) {
  Object *O = tryAllocate(NumSlots, RawBytes);
  if (!O)
    fatalError("heap limit cannot be satisfied even after an emergency "
               "full collection; use tryAllocate for a recoverable OOM");
  return O;
}

void Heap::recordDegradation(DegradationEvent Event) {
  DegradationTotal += 1;
  DegradationKindTotals[static_cast<unsigned>(Event.Kind)] += 1;
  // The black box sees every rung (ladder entry, watchdog, pessimization)
  // and the first few trigger a postmortem dump of the retained tail —
  // the flight recorder works even with telemetry compiled out.
  FlightRec.record(FlightEventKind::Degradation, Event.Time,
                   static_cast<uint64_t>(Event.Kind), Event.ResidentBytes);
  FlightRec.autoDump(flightDumpStream(), degradationKindName(Event.Kind));
  if (telemetry::enabled()) {
    // One consistent story with HeapDump: every ladder rung is also a
    // telemetry instant plus a per-kind counter.
    telemetry::MetricsRegistry::global()
        .counter(std::string("runtime.degradation.") +
                 degradationKindName(Event.Kind))
        .add(1);
    telemetry::Event E;
    E.Phase = telemetry::EventPhase::Instant;
    E.Track = TelemetryTrack;
    E.Name = "degradation";
    E.ScavengeIndex = History.size();
    E.TsClock = Event.Time;
    E.Args.push_back(telemetry::arg("kind", std::string(degradationKindName(
                                                Event.Kind))));
    E.Args.push_back(telemetry::arg("detail", Event.Detail));
    E.Args.push_back(telemetry::arg("resident_bytes", Event.ResidentBytes));
    telemetry::recorder().emit(std::move(E));
  }
  DegradationLog.push_back(std::move(Event));
  while (Config.DegradationLogLimit != 0 &&
         DegradationLog.size() > Config.DegradationLogLimit)
    DegradationLog.pop_front();
}

bool Heap::ensureHeadroom(uint64_t Gross) {
  bool Injected = faultRequestedAt(FaultSite::Allocation);
  auto overLimit = [&] {
    return Config.HeapLimitBytes != 0 &&
           ResidentBytes + Gross > Config.HeapLimitBytes;
  };
  if (!Injected && !overLimit())
    return true;
  const char *Why = overLimit() ? "heap limit reached"
                                : "injected allocation fault";
  return runPressureLadder(Gross, Why);
}

bool Heap::runPressureLadder(uint64_t Gross, const char *Why) {
  auto overLimit = [&] {
    return Config.HeapLimitBytes != 0 &&
           ResidentBytes + Gross > Config.HeapLimitBytes;
  };

  // Mid-cycle rungs: while an incremental cycle is open, automatic
  // triggering is suspended, so pressure must be relieved through the
  // cycle itself before the ordinary ladder below can run.
  if (Inc.Active && !InCollection) {
    // Rung i1: accelerate — run extra quanta on the open cycle right now.
    // The cheapest response: the cycle may be a few quanta from sweeping
    // the garbage that relieves the pressure. Then complete-now/abort.
    constexpr unsigned PressureAccelerateQuanta = 4;
    size_t RecordsBefore = History.size();
    unsigned Extra = 0;
    while (Extra != PressureAccelerateQuanta && Inc.Active) {
      ++Extra;
      if (incrementalScavengeStep())
        break;
    }
    bool Completed = History.size() != RecordsBefore;
    recordDegradation({DegradationKind::CycleAccelerated, Clock, Gross,
                       Config.HeapLimitBytes, ResidentBytes,
                       std::string(Why) + "; ran " + std::to_string(Extra) +
                           " pressure " + (Extra == 1 ? "quantum" : "quanta") +
                           (Completed ? " (cycle completed)" : "")});
    if (!overLimit())
      return true;

    // Rung i2: complete-now — drain the cycle when its remaining gray
    // work is bounded (a few budgets' worth), trading one oversized pause
    // for the cycle's full reclamation.
    if (Inc.Active) {
      uint64_t GrayBytes = 0;
      for (const Object *O : Inc.Gray)
        GrayBytes += O->grossBytes();
      uint64_t Budget = Config.ScavengeBudgetBytes;
      if (Budget == 0 || GrayBytes <= 4 * Budget) {
        finishIncrementalScavenge();
        recordDegradation({DegradationKind::CycleCompletedEarly, Clock, Gross,
                           Config.HeapLimitBytes, ResidentBytes, Why});
        if (!overLimit())
          return true;
      }
    }

    // Rung i3: abort — the cycle itself is now the obstacle (it holds the
    // trigger suspended and its marking is stale against the pressure);
    // cancel it so the full-strength rungs below can run. Aborting is
    // always safe: the heap is restored as if the cycle never started.
    if (Inc.Active)
      abortIncrementalCycle("mid-cycle allocation pressure");
  }

  // Rung 1: an out-of-schedule scavenge at the policy's boundary — the
  // cheap recovery, reclaiming whatever the policy already threatens.
  if (!InCollection && Policy) {
    collect();
    recordDegradation({DegradationKind::EmergencyScavenge, Clock, Gross,
                       Config.HeapLimitBytes, ResidentBytes, Why});
    if (!overLimit())
      return true;
  }

  // Rung 2: an emergency FULL collection at TB = 0, the paper's always-
  // admissible boundary — reclaims every dead byte, tenured garbage
  // included.
  if (!InCollection) {
    collectAtBoundary(0);
    recordDegradation({DegradationKind::EmergencyFullCollection, Clock,
                       Gross, Config.HeapLimitBytes, ResidentBytes, Why});
  }

  // Rung 3 (the AllocationFailure event) is recorded by the caller.
  return !overLimit();
}

Object *Heap::tryAllocate(uint32_t NumSlots, uint32_t RawBytes) {
  // Bound payloads so gross size arithmetic stays within uint32_t. This is
  // a usage error, not memory pressure, so it stays fatal even here.
  constexpr uint32_t MaxSlots = 1u << 24;
  constexpr uint32_t MaxRaw = 1u << 28;
  if (NumSlots > MaxSlots || RawBytes > MaxRaw)
    fatalError("allocation exceeds object size limits");

  // Collect before satisfying the request so the new object cannot be
  // reclaimed before the mutator has had a chance to root it.
  if (triggerDue())
    collectOnTrigger();

  uint64_t Gross = sizeof(Object) +
                   static_cast<uint64_t>(NumSlots) * sizeof(Object *) +
                   RawBytes;
  if (!ensureHeadroom(Gross)) {
    recordDegradation({DegradationKind::AllocationFailure, Clock, Gross,
                       Config.HeapLimitBytes, ResidentBytes,
                       "degradation ladder exhausted"});
    return nullptr;
  }
  void *Memory = ::operator new(Gross);
  std::memset(Memory, 0, Gross);

  Object *O = new (Memory) Object();
  O->Magic = Object::MagicAlive;
  O->NumSlots = NumSlots;
  O->RawBytes = RawBytes;
  O->GrossBytes = static_cast<uint32_t>(Gross);

  Clock += Gross;
  O->Birth = Clock;

  Objects.push_back(O);
  ResidentBytes += Gross;
  BytesSinceCollect += Gross;
  Demographics.setBytesSinceLastScavenge(BytesSinceCollect);
  if (telemetry::enabled()) {
    // Registry references are stable for the process lifetime, so the
    // lookup cost is paid once; the disabled path is one relaxed load.
    static telemetry::Counter &AllocCount =
        telemetry::MetricsRegistry::global().counter("runtime.alloc.count");
    static telemetry::Counter &AllocBytes =
        telemetry::MetricsRegistry::global().counter("runtime.alloc.bytes");
    AllocCount.add(1);
    AllocBytes.add(Gross);
  }
  return O;
}

void Heap::writeSlot(Object *Source, uint32_t SlotIndex, Object *Value) {
  DTB_CHECK(Source && Source->isAlive(), "store into a dead object");
  DTB_CHECK(!Value || Value->isAlive(), "storing a dead object reference");
  DTB_CHECK(SlotIndex < Source->numSlots(), "slot index out of range");
  Source->setSlotRaw(SlotIndex, Value);
  // Dijkstra-style incremental greying: between incremental quanta a
  // store can hide an unmarked threatened object behind an already-
  // scanned (black) source, so the barrier re-greys the stored value; the
  // next step marks it. Objects born after the cycle's clock snapshot are
  // black by construction and need no greying.
  if (Inc.Active && Value && Value->birth() > Inc.Boundary &&
      Value->birth() <= Inc.BlackClock && !Value->isMarked())
    Inc.PendingGray.push_back(Value);
  // Write barrier: record forward-in-time pointers (older -> younger).
  // Backward-in-time pointers never need recording: if the source is
  // threatened it is traced anyway, and an immune source pointing at an
  // even older target cannot cross any boundary.
  if (Value && Value->birth() > Source->birth()) {
    if (faultRequestedAt(FaultSite::RemSetInsert)) {
      // The set's internal storage "failed": this entry cannot be
      // recorded, so precision is lost wholesale — same response as a
      // genuine overflow.
      handleRemSetOverflow("injected remembered-set insert fault");
      return;
    }
    RemSet.insert(Source, SlotIndex);
    if (Config.RemSetMaxEntries != 0 &&
        RemSet.size() > Config.RemSetMaxEntries) {
      handleRemSetOverflow("remembered-set entry bound exceeded");
    } else if (faultRequestedAt(FaultSite::WriteBarrier) &&
               !RemSetPessimized) {
      // The barrier's buffering "failed" after the entry was stored:
      // degrade conservatively by pessimizing the next boundary so
      // nothing can be missed.
      RemSetPessimized = true;
      recordDegradation({DegradationKind::BoundaryPessimized, Clock, 0, 0,
                         ResidentBytes, "injected write-barrier fault"});
    }
  }
}

void Heap::handleRemSetOverflow(const char *Why) {
  // Record only the transition into the pessimized state; repeated
  // overflows before the rebuilding collection add no information.
  if (!RemSetPessimized) {
    RemSetPessimized = true;
    recordDegradation({DegradationKind::RemSetOverflow, Clock, 0,
                       Config.RemSetMaxEntries, ResidentBytes, Why});
  }
  RemSet.clear();
}

void Heap::rebuildRememberedSet() {
  // After a full trace every resident object is known; re-derive the set
  // exactly. Runs inside the collection pause — O(live pointers), which a
  // full trace already paid.
  RemSet.clear();
  for (Object *O : Objects)
    for (uint32_t I = 0, E = O->numSlots(); I != E; ++I) {
      Object *Target = O->slot(I);
      if (Target && Target->birth() > O->birth())
        RemSet.insert(O, I);
    }
  RemSetPessimized = false;
  if (Config.RemSetMaxEntries != 0 && RemSet.size() > Config.RemSetMaxEntries)
    handleRemSetOverflow("rebuilt remembered set still exceeds its bound");
}

void Heap::dangerouslyWriteSlotWithoutBarrier(Object *Source,
                                              uint32_t SlotIndex,
                                              Object *Value) {
  Source->setSlotRaw(SlotIndex, Value);
}

void Heap::pinObject(Object *O) {
  DTB_CHECK(O && O->isAlive(), "pinning a dead object");
  if (!isPinned(O))
    Pinned.push_back(O);
}

void Heap::unpinObject(Object *O) {
  auto It = std::find(Pinned.begin(), Pinned.end(), O);
  if (It == Pinned.end())
    fatalError("unpinning an object that was never pinned");
  Pinned.erase(It);
}

bool Heap::isPinned(const Object *O) const {
  return std::find(Pinned.begin(), Pinned.end(), O) != Pinned.end();
}

void Heap::addGlobalRoot(Object **Location) {
  assert(Location && "null root location");
  GlobalRoots.push_back(Location);
}

void Heap::removeGlobalRoot(Object **Location) {
  auto It = std::find(GlobalRoots.begin(), GlobalRoots.end(), Location);
  if (It == GlobalRoots.end())
    fatalError("removing a root location that was never added");
  GlobalRoots.erase(It);
}

size_t Heap::firstBornAfter(AllocClock Boundary) const {
  auto It = std::upper_bound(
      Objects.begin(), Objects.end(), Boundary,
      [](AllocClock B, const Object *O) { return B < O->birth(); });
  return static_cast<size_t>(It - Objects.begin());
}

bool Heap::collectOnTrigger() {
  // The re-check under the world lock makes a crossing that several
  // threads observed run one collection.
  if (!stopWorld(/*ForTrigger=*/true))
    return false;
  collect();
  resumeWorld();
  return true;
}

core::ScavengeRecord Heap::collect() {
  if (!Policy)
    fatalError("collect() without a policy; use collectAtBoundary()");
  // Own the stopped world for the whole decision + collection so the
  // policy's inputs (clock, residency, demographics) are a consistent
  // snapshot even with mutator contexts running.
  WorldPause Pause(*this);
  // Close out any incremental cycle first so the policy decides against a
  // history that includes it.
  if (Inc.Active)
    finishIncrementalScavenge();

  core::BoundaryRequest Request;
  Request.Index = History.size() + 1;
  Request.Now = Clock;
  Request.MemBytes = ResidentBytes;
  Request.History = &History;
  Request.Demo = DemoOverride ? DemoOverride : &Demographics;
  std::string Note;
  Request.DegradationNote = &Note;
  std::string Rule = "unspecified";
  Request.RuleFired = &Rule;
  Request.Profiler = &Profiler;
  core::BoundaryDecision Decision;
  // The decision explanation drives the telemetry "tb" instant; fill it
  // only when that instant will be emitted (the extra demographic queries
  // it costs are value-pure, so this cannot change the boundary).
  if (telemetry::enabled())
    Request.Decision = &Decision;

  // The FIXED1 boundary t_{n-1}: threatens only the newest interval, needs
  // no demographics, and is always admissible — the standing fallback when
  // the policy cannot be trusted.
  AllocClock Fallback =
      History.timeOf(static_cast<int64_t>(Request.Index) - 1);

  AllocClock Boundary;
  if (faultRequestedAt(FaultSite::PolicyEvaluation)) {
    Boundary = Fallback;
    Rule = "degraded";
    recordDegradation({DegradationKind::PolicyFallback, Clock, 0, 0,
                       ResidentBytes,
                       "injected policy-evaluation fault; FIXED1 fallback"});
  } else {
    {
      // Decision latency is wall time: it goes to the "wall." metrics,
      // never the deterministic event stream.
      telemetry::TelemetrySpan Span("runtime.policy_decision");
      profiling::ProfilePhase Phase(&Profiler,
                                    profiling::phase::PolicyDecision);
      Boundary = Policy->chooseBoundary(Request);
    }
    if (!Note.empty())
      recordDegradation({DegradationKind::PolicyFallback, Clock, 0, 0,
                         ResidentBytes, Note});
    if (Boundary > Clock) {
      // A buggy policy answered in the future. Every boundary in
      // [0, now] is admissible, so degrade to FIXED1 instead of aborting.
      Boundary = Fallback;
      Rule = "degraded";
      recordDegradation({DegradationKind::PolicyFallback, Clock, 0, 0,
                         ResidentBytes,
                         "policy chose a boundary in the future; FIXED1 "
                         "fallback"});
    }
  }
  if (telemetry::enabled())
    telemetry::MetricsRegistry::global()
        .counter("policy." + Policy->name() + ".rule." + Rule)
        .add(1);
  LastRule = Rule;
  LastNote = Note;
  PendingRule = std::move(Rule);
  LastDecision = Decision;
  LastDecisionValid = Request.Decision != nullptr;
  PendingDecisionValid = LastDecisionValid;
  core::ScavengeRecord Record = collectAtBoundary(Boundary);
  PendingRule.clear();
  PendingDecisionValid = false;
  return Record;
}

void Heap::reclaimObject(Object *O) {
  RemSet.removeSource(O);
  // releaseStorage (CopyingCollector.cpp) poisons the payload in
  // quarantine mode so any use-after-free is glaring, while keeping the
  // storage so stale pointers can be detected via the canary.
  releaseStorage(O);
}

void Heap::registerWeakRef(WeakRef *Ref) { WeakRefs.push_back(Ref); }

void Heap::unregisterWeakRef(WeakRef *Ref) {
  auto It = std::find(WeakRefs.begin(), WeakRefs.end(), Ref);
  DTB_CHECK(It != WeakRefs.end(),
            "unregistering a weak reference that was never registered");
  *It = WeakRefs.back();
  WeakRefs.pop_back();
}

WeakRef::WeakRef(Heap &H, Object *Target) : H(H), Target(Target) {
  H.registerWeakRef(this);
}

WeakRef::~WeakRef() { H.unregisterWeakRef(this); }

HandleScope::~HandleScope() {
  DTB_CHECK(H.HandleSlots.size() >= Base,
            "handle scopes popped out of order");
  H.HandleSlots.resize(Base);
}

Object *&HandleScope::slot(Object *Initial) {
  H.HandleSlots.push_back(Initial);
  return H.HandleSlots.back();
}
