//===- runtime/Heap.cpp - Allocation, barrier, roots ----------------------==//

#include "runtime/Heap.h"

#include "runtime/Mutator.h"
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
  DTB_CHECK(Config.TraceThreads >= 1, "HeapConfig::TraceThreads must be at "
                                      "least 1 (1 = serial trace)");
  static std::atomic<unsigned> NextHeapId{1};
  TelemetryTrack =
      "heap#" + std::to_string(NextHeapId.fetch_add(1,
                                                    std::memory_order_relaxed));
}

Heap::~Heap() {
  DTB_CHECK(Mutators.empty(),
            "destroying a heap with registered mutator contexts; destroy "
            "every MutatorContext first");
  foldAllocationCounters(/*ReclaimedObjects=*/0);
  // Block-interior objects share their block's storage; only dedicated
  // allocations are released individually.
  for (Object *O : Objects)
    if (O->storageKind() == Object::StorageOwn)
      ::operator delete(static_cast<void *>(O));
  for (Object *O : Quarantine)
    if (O->storageKind() == Object::StorageOwn)
      ::operator delete(static_cast<void *>(O));
  for (auto &Block : BlockSlots)
    ::operator delete(Block->Begin);
}

ThreadPool *Heap::tracePool() {
  if (Config.TraceThreads == 1)
    return nullptr;
  // N > 1: a heap-private pool of N - 1 workers (the collecting thread is
  // the N-th lane), created once and reused so collections do not respawn
  // threads.
  if (!TracePool)
    TracePool = std::make_unique<ThreadPool>(Config.TraceThreads - 1);
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
    fatalOutOfMemory();
  return O;
}

void Heap::fatalOutOfMemory() {
  fatalError("heap limit cannot be satisfied even after an emergency "
             "full collection; use tryAllocate for a recoverable OOM");
}

void Heap::recordDegradation(DegradationEvent Event) {
  DegradationKindTotals[static_cast<unsigned>(Event.Kind)] += 1;
  // The black box sees every rung (ladder entry, watchdog, pessimization)
  // and the first few trigger a postmortem dump of the retained tail —
  // the flight recorder records whether or not telemetry is enabled.
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
  // The log keeps the newest events; the totals above count every one.
  constexpr size_t DegradationLogLimit = 1024;
  DegradationLog.push_back(std::move(Event));
  if (DegradationLog.size() > DegradationLogLimit)
    DegradationLog.pop_front();
}

bool Heap::runPressureLadder(uint64_t Gross, const char *Why) {
  // Mid-cycle rungs: while an incremental cycle is open, automatic
  // triggering is suspended, so pressure must be relieved through the
  // cycle itself before the ordinary ladder below can run.
  if (incrementalScavengeActive() && !InCollection) {
    // Rung i1: accelerate — run extra quanta on the open cycle right now.
    // The cheapest response: the cycle may be a few quanta from sweeping
    // the garbage that relieves the pressure. Then complete-now/abort.
    constexpr unsigned PressureAccelerateQuanta = 4;
    CycleStatus Status = CycleStatus::Running;
    unsigned Extra = 0;
    while (Extra != PressureAccelerateQuanta &&
           Status == CycleStatus::Running) {
      ++Extra;
      Status = incrementalScavengeStep();
    }
    recordDegradation({DegradationKind::CycleAccelerated, Clock, Gross,
                       Config.HeapLimitBytes, residentBytes(),
                       std::string(Why) + "; ran " + std::to_string(Extra) +
                           " pressure " + (Extra == 1 ? "quantum" : "quanta") +
                           (Status == CycleStatus::Completed
                                ? " (cycle completed)"
                                : "")});
    if (!overLimit(Gross))
      return true;

    // Rung i2: complete-now — drain the cycle when its remaining gray
    // work is bounded (a few budgets' worth), trading one oversized pause
    // for the cycle's full reclamation. A drain an injected fault aborted
    // completed nothing, so only a completed one is recorded.
    if (Status == CycleStatus::Running) {
      uint64_t GrayBytes = 0;
      for (const Object *O : Inc.Gray)
        GrayBytes += O->grossBytes();
      uint64_t Budget = Config.ScavengeBudgetBytes;
      if (Budget == 0 || GrayBytes <= 4 * Budget) {
        Status = finishIncrementalScavenge();
        if (Status == CycleStatus::Completed) {
          recordDegradation({DegradationKind::CycleCompletedEarly, Clock,
                             Gross, Config.HeapLimitBytes, residentBytes(),
                             Why});
          if (!overLimit(Gross))
            return true;
        }
      }
    }

    // Rung i3: abort — the cycle itself is now the obstacle (it holds the
    // trigger suspended and its marking is stale against the pressure);
    // cancel it so the full-strength rungs below can run. Aborting is
    // always safe: the heap is restored as if the cycle never started.
    if (Status == CycleStatus::Running)
      abortIncrementalCycle("mid-cycle allocation pressure");
  }

  // Rung 1: an out-of-schedule scavenge at the policy's boundary — the
  // cheap recovery, reclaiming whatever the policy already threatens.
  if (!InCollection && Policy) {
    collect();
    recordDegradation({DegradationKind::EmergencyScavenge, Clock, Gross,
                       Config.HeapLimitBytes, residentBytes(), Why});
    if (!overLimit(Gross))
      return true;
  }

  // Rung 2: an emergency FULL collection at TB = 0, the paper's always-
  // admissible boundary — reclaims every dead byte, tenured garbage
  // included.
  if (!InCollection) {
    collectAtBoundary(0);
    recordDegradation({DegradationKind::EmergencyFullCollection, Clock,
                       Gross, Config.HeapLimitBytes, residentBytes(), Why});
  }

  if (!overLimit(Gross))
    return true;
  // Rung 3: give up; tryAllocate returns null and allocate aborts.
  recordDegradation({DegradationKind::AllocationFailure, Clock, Gross,
                     Config.HeapLimitBytes, residentBytes(),
                     "degradation ladder exhausted"});
  return false;
}

Object *Heap::tryAllocate(uint32_t NumSlots, uint32_t RawBytes) {
  uint64_t Gross = Object::grossBytesFor(NumSlots, RawBytes);
  // Collect before satisfying the request so the new object cannot be
  // reclaimed before the mutator has had a chance to root it.
  if (triggerDue())
    collectOnTrigger();
  if (const char *Why = allocationPressure(Gross))
    if (!runPressureLadder(Gross, Why))
      return nullptr;
  // A copying heap bump-allocates into its own block, which evacuation
  // empties and frees whole. A mark-sweep heap would empty a block only
  // when the block's last object died, so it keeps dedicated storage.
  Object *O = newObject(
      Config.Collector == CollectorKind::Copying ? &DirectBlock : nullptr,
      /*Owner=*/nullptr, NumSlots, RawBytes, Gross);
  chargeAllocation(O, Gross);
  // A direct allocation is in objects() as soon as this returns; context
  // allocations wait for publication at the next safepoint.
  Objects.push_back(O);
  Demographics.setBytesSinceLastScavenge(bytesSinceCollect());
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
  if (incrementalScavengeActive() && Value && Value->birth() > Inc.Boundary &&
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
    // An injected WriteBarrier fault means the barrier's buffering
    // "failed" after the entry was stored: degrade conservatively by
    // pessimizing the next boundary, so nothing can be missed.
    if (!enforceRemSetBound() && faultRequestedAt(FaultSite::WriteBarrier))
      pessimizeNextCollection("injected write-barrier fault");
  }
}

void Heap::handleRemSetOverflow(const char *Why) {
  // Record only the transition into the pessimized state; repeated
  // overflows before the rebuilding collection add no information.
  if (!RemSetPessimized) {
    RemSetPessimized = true;
    recordDegradation({DegradationKind::RemSetOverflow, Clock, 0,
                       Config.RemSetMaxEntries, residentBytes(), Why});
  }
  RemSet.clear();
}

void Heap::pessimizeNextCollection(const char *Why) {
  if (RemSetPessimized)
    return;
  RemSetPessimized = true;
  recordDegradation({DegradationKind::BoundaryPessimized, Clock, 0, 0,
                     residentBytes(), Why});
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
  enforceRemSetBound("rebuilt remembered set still exceeds its bound");
}

void Heap::dangerouslyWriteSlotWithoutBarrier(Object *Source,
                                              uint32_t SlotIndex,
                                              Object *Value) {
  Source->setSlotRaw(SlotIndex, Value);
}

void Heap::pinObject(Object *O) {
  DTB_CHECK(O && O->isAlive(), "pinning a dead object");
  if (O->isPinned())
    return;
  O->Flags |= Object::FlagPinned;
  Pinned.push_back(O);
}

void Heap::unpinObject(Object *O) {
  auto It = std::find(Pinned.begin(), Pinned.end(), O);
  if (It == Pinned.end())
    fatalError("unpinning an object that was never pinned");
  Pinned.erase(It);
  O->Flags &= static_cast<uint8_t>(~Object::FlagPinned);
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
  if (incrementalScavengeActive())
    finishIncrementalScavenge();

  core::BoundaryRequest Request;
  Request.Index = History.size() + 1;
  Request.Now = Clock;
  Request.MemBytes = residentBytes();
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
                       residentBytes(),
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
                         residentBytes(), Note});
    if (Boundary > Clock) {
      // A buggy policy answered in the future. Every boundary in
      // [0, now] is admissible, so degrade to FIXED1 instead of aborting.
      Boundary = Fallback;
      Rule = "degraded";
      recordDegradation({DegradationKind::PolicyFallback, Clock, 0, 0,
                         residentBytes(),
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
  PendingDecision = Decision;
  return collectAtBoundary(Boundary);
}

//===----------------------------------------------------------------------===//
// Bump blocks and object storage
//===----------------------------------------------------------------------===//

Object *Heap::newObject(TlabBlock **Block, MutatorContext *Owner,
                        uint32_t NumSlots, uint32_t RawBytes, uint64_t Gross) {
  uint64_t Need = blockFootprint(Gross);
  bool InBlock = Block && fitsBlock(Need);
  void *Memory =
      InBlock ? bumpBlock(*Block, Need, Owner) : ::operator new(Gross);
  std::memset(Memory, 0, static_cast<size_t>(InBlock ? Need : Gross));
  Object *O = new (Memory) Object();
  O->Storage = InBlock ? Object::StorageTlab : Object::StorageOwn;
  O->Block = InBlock ? (*Block)->Slot : 0;
  O->Shape = NumSlots | static_cast<uint64_t>(RawBytes) << 32;
  return O;
}

void Heap::refillBlock(TlabBlock *&Block, MutatorContext *Owner) {
  std::lock_guard<std::mutex> Lock(RefillMu);
  if (Owner)
    Owner->refillTlab(Block);
  if (Block)
    retireTlab(Block);
  Block = carveTlab(/*HeapOwned=*/Owner == nullptr);
}

Heap::TlabBlock *Heap::carveTlab(bool HeapOwned) {
  if (FreeBlockSlots.empty()) {
    FreeBlockSlots.push_back(static_cast<uint32_t>(BlockSlots.size()));
    BlockSlots.push_back(std::make_unique<TlabBlock>());
  }
  const uint32_t Slot = FreeBlockSlots.back();
  FreeBlockSlots.pop_back();
  char *Begin = static_cast<char *>(::operator new(BlockBytes));
  TlabBlock &Block = *BlockSlots[Slot];
  Block = {.Begin = Begin, .End = Begin + BlockBytes, .Cursor = Begin,
           .Slot = Slot, .HeapOwned = HeapOwned};
  return &Block;
}

void Heap::retireTlab(TlabBlock *Block) {
  Block->Retired = true;
  if (!Block->HeapOwned)
    MutStats.TlabWastedBytes +=
        static_cast<uint64_t>(Block->End - Block->Cursor);
  Block->Cursor = Block->End;
  // A block whose objects all died or were evacuated before it retired
  // is returned right away; any other goes when its last object does.
  if (Block->LiveObjects == 0)
    freeTlabBlock(Block);
}

void Heap::freeTlabBlock(TlabBlock *Block) {
  DTB_CHECK(Block->Begin && Block->Slot < BlockSlots.size() &&
                BlockSlots[Block->Slot].get() == Block,
            "freeing a bump block not in the block table");
  if (!Block->HeapOwned)
    MutStats.TlabBlocksFreed += 1;
  ::operator delete(Block->Begin);
  Block->Begin = Block->End = Block->Cursor = nullptr;
  FreeBlockSlots.push_back(Block->Slot);
}

void Heap::releaseStorage(Object *O) {
  O->Magic = Object::MagicDead;
  if (Config.QuarantineFreedObjects) {
    // Block-interior objects quarantine like any other (their block then
    // simply never drains to zero, so it stays resident — quarantine mode
    // is monotonic either way).
    std::memset(O->rawData(), 0xDB, O->rawBytes());
    for (uint32_t I = 0; I != O->numSlots(); ++I)
      O->setSlotRaw(I, nullptr);
    Quarantine.push_back(O);
    return;
  }
  if (O->storageKind() == Object::StorageTlab) {
    // The object shares the storage of the block its header names: the
    // block is freed only when its last object dies after it was retired.
    // Sweeps run world-stopped, so the block table is stable here.
    DTB_CHECK(O->blockSlot() < BlockSlots.size(),
              "block-interior object names no block");
    TlabBlock *Block = BlockSlots[O->blockSlot()].get();
    const char *P = reinterpret_cast<const char *>(O);
    DTB_CHECK(P >= Block->Begin && P < Block->End,
              "block-interior object outside the block its header names");
    DTB_CHECK(Block->LiveObjects != 0, "bump block live-count underflow");
    Block->LiveObjects -= 1;
    if (Block->Retired && Block->LiveObjects == 0)
      freeTlabBlock(Block);
    return;
  }
  ::operator delete(static_cast<void *>(O));
}

MutatorRuntimeStats Heap::mutatorStats() const {
  MutatorRuntimeStats Out = MutStats;
  Out.TlabCarvedBytes = Out.TlabRefills * BlockBytes;
  Out.TlabBlocksResident =
      BlockSlots.size() - FreeBlockSlots.size() - heapBlocksResident();
  return Out;
}

uint64_t Heap::heapBlocksResident() const {
  return static_cast<uint64_t>(
      std::count_if(BlockSlots.begin(), BlockSlots.end(),
                    [](const std::unique_ptr<TlabBlock> &Block) {
                      return Block->Begin && Block->HeapOwned;
                    }));
}

std::vector<std::pair<const void *, const void *>>
Heap::tlabBlockRanges() const {
  std::vector<std::pair<const void *, const void *>> Ranges;
  for (const auto &Block : BlockSlots)
    if (Block->Begin)
      Ranges.emplace_back(Block->Begin, Block->End);
  std::sort(Ranges.begin(), Ranges.end());
  return Ranges;
}

std::vector<Heap::BlockInfo> Heap::blockTable() const {
  std::vector<BlockInfo> Table;
  Table.reserve(BlockSlots.size());
  for (const auto &Block : BlockSlots)
    Table.push_back({Block->Begin, Block->End, Block->LiveObjects});
  return Table;
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
