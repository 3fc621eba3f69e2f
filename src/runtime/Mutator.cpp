//===- runtime/Mutator.cpp - TLABs, safepoints, buffered barriers --------===//
//
// Part of the dtbgc project (Barrett & Zorn DTB reproduction).
//
// The multi-threaded mutator runtime. Two protocols live here:
//
//  * The safepoint rendezvous (Dekker handshake). A context entering an
//    op stores State = Mutating (seq_cst) and then loads the heap's
//    SafepointRequested flag (seq_cst); the collector stores
//    SafepointRequested = true (seq_cst) and then loads every context's
//    State. Sequential consistency guarantees at least one side sees the
//    other, so a context either blocks before touching the heap or the
//    collector waits for its op to finish — an op can never run while the
//    world is stopped.
//
//  * TLAB carving. Blocks are carved from one refill lock; allocation
//    inside a block is owner-exclusive bumping, and births come from one
//    relaxed fetch_add on the shared clock — each allocation claims the
//    disjoint interval (Birth - Gross, Birth], so births stay unique and
//    the clock's final value is the same however threads interleave.
//    With contexts driven round-robin from one thread, the sequence of
//    births is exactly the direct path's (no clock ranges are reserved
//    per block), which is what keeps --mutators conformance replay
//    byte-identical to the simulator oracle.
//
//===----------------------------------------------------------------------===//

#include "runtime/Mutator.h"

#include "core/MachineModel.h"
#include "profiling/Profiler.h"
#include "runtime/Heap.h"
#include "support/Error.h"
#include "support/FaultInjector.h"
#include "telemetry/Telemetry.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <new>

using namespace dtb;
using namespace dtb::runtime;
using core::AllocClock;

//===----------------------------------------------------------------------===//
// Heap: world control
//===----------------------------------------------------------------------===//

bool Heap::stopWorld(bool ForTrigger) {
  if (worldOwnedByThisThread()) {
    StopDepth += 1;
    // A safepoint callback may have allocated through a context; a
    // collection it starts must find those objects in the heap.
    if (std::any_of(Mutators.begin(), Mutators.end(),
                    [](const MutatorContext *Ctx) {
                      return !Ctx->Pending.empty();
                    }))
      publishMutatorState();
    return true;
  }
  WorldMu.lock();
  // Served by the collection of another thread that saw the same crossing.
  if (ForTrigger && !triggerDue()) {
    WorldMu.unlock();
    return false;
  }
  WorldOwner.store(std::this_thread::get_id(), std::memory_order_relaxed);
  StopDepth = 1;
  if (!Mutators.empty()) {
    // Wall time of the rendezvous (how long mutators kept us waiting) is
    // a quarantined side channel, like every other wall measurement. The
    // deterministic pause anatomy rides the profiler: the rendezvous
    // phase covers the whole stop (cost = contexts arrived), with the
    // publication and barrier-flush phases nested inside it.
    telemetry::TelemetrySpan Span("runtime.safepoint_rendezvous");
    profiling::ProfilePhase RendezvousPhase(&Profiler,
                                            profiling::phase::Rendezvous);
    SafepointRequested.store(true, std::memory_order_seq_cst);

    // Rendezvous sweep: scan the registration list until every context is
    // counted out, recording each context's arrival and how it was first
    // observed (Mutating = mid-op, Parked, AtSafepoint = polling). The
    // seq_cst loads pair with the contexts' count-in stores (see the file
    // comment); AtSafepoint/Parked both mean "counted out". The straggler
    // is the last context to arrive; several arriving in one sweep
    // resolve to the highest registration index, which keeps the
    // attribution deterministic under single-threaded driving (every
    // context arrives on sweep 0, straggler = last registered).
    size_t N = Mutators.size();
    std::vector<MutatorState> FirstSeen(N, MutatorState::AtSafepoint);
    std::vector<bool> Arrived(N, false);
    std::vector<uint64_t> ArrivalOrder;
    ArrivalOrder.reserve(N);
    size_t LastArriver = 0;
    for (size_t Remaining = N, Sweep = 0; Remaining != 0; ++Sweep) {
      for (size_t I = 0; I != N; ++I) {
        if (Arrived[I])
          continue;
        MutatorState St = Mutators[I]->State.load(std::memory_order_seq_cst);
        if (Sweep == 0)
          FirstSeen[I] = St;
        if (St != MutatorState::Mutating) {
          Arrived[I] = true;
          ArrivalOrder.push_back(Mutators[I]->Id);
          LastArriver = I;
          Remaining -= 1;
        }
      }
      if (Remaining != 0)
        std::this_thread::yield();
    }

    // The handshake fault site fires per context per rendezvous, in
    // registration order: that context's count-out acknowledgment is
    // distrusted.
    bool HandshakeDistrusted = false;
    for (size_t I = 0; I != N; ++I)
      if (faultRequestedAt(FaultSite::SafepointHandshake))
        HandshakeDistrusted = true;

    MutStats.SafepointRendezvous += 1;
    PublicationSummary Pub = publishMutatorState();
    RendezvousPhase.addCost(N);

    // The rendezvous record: deterministic TTSP is the machine-model cost
    // of the pending allocation bytes the stop drained (see
    // runtime/Safepoint.h) — wall latency stays in the span above.
    SafepointRendezvousRecord R;
    R.Serial = MutStats.SafepointRendezvous;
    R.Time = Clock.load(std::memory_order_relaxed);
    R.Contexts = N;
    R.PendingAllocObjects = Pub.Objects;
    R.PendingAllocBytes = Pub.Bytes;
    R.FlushedBarrierEntries = Pub.FlushedBarrierEntries;
    R.TtspMillis = core::MachineModel().pauseMillisForTracedBytes(Pub.Bytes);
    R.StragglerContext = Mutators[LastArriver]->Id;
    R.Straggler = FirstSeen[LastArriver] == MutatorState::Mutating
                      ? StragglerKind::MidOp
                  : FirstSeen[LastArriver] == MutatorState::Parked
                      ? StragglerKind::Parked
                      : StragglerKind::Polling;
    LastRendezvous = R;
    FlightRec.record(FlightEventKind::SafepointRendezvous, R.Time, N,
                     Pub.Bytes, R.StragglerContext);
#if DTB_TELEMETRY
    TtspStats.TtspMillis.add(R.TtspMillis);
    TtspStats.PendingBytes.add(static_cast<double>(Pub.Bytes));
    switch (R.Straggler) {
    case StragglerKind::MidOp:
      TtspStats.StragglerMidOp += 1;
      break;
    case StragglerKind::Parked:
      TtspStats.StragglerParked += 1;
      break;
    case StragglerKind::Polling:
      TtspStats.StragglerPolling += 1;
      break;
    case StragglerKind::None:
      break;
    }
#endif
    if (telemetry::enabled()) {
      telemetry::MetricsRegistry &Registry =
          telemetry::MetricsRegistry::global();
      Registry.counter("runtime.safepoint.rendezvous").add(1);
      Registry.histogram("runtime.safepoint.ttsp_ms").record(R.TtspMillis);
      Registry.histogram("runtime.safepoint.pending_alloc_bytes")
          .record(static_cast<double>(Pub.Bytes));
      std::string Arrivals;
      for (uint64_t Ctx : ArrivalOrder) {
        if (!Arrivals.empty())
          Arrivals += ",";
        Arrivals += std::to_string(Ctx);
      }
      telemetry::Event E;
      E.Phase = telemetry::EventPhase::Instant;
      E.Track = TelemetryTrack;
      E.Name = "safepoint_rendezvous";
      E.ScavengeIndex = History.size();
      E.TsClock = R.Time;
      E.Args.push_back(telemetry::arg("contexts", static_cast<uint64_t>(N)));
      E.Args.push_back(telemetry::arg("pending_alloc_bytes", Pub.Bytes));
      E.Args.push_back(telemetry::arg("flushed_barrier_entries",
                                      Pub.FlushedBarrierEntries));
      E.Args.push_back(telemetry::arg("ttsp_ms", R.TtspMillis));
      E.Args.push_back(
          telemetry::arg("straggler_context", R.StragglerContext));
      E.Args.push_back(telemetry::arg(
          "straggler", std::string(stragglerKindName(R.Straggler))));
      E.Args.push_back(telemetry::arg("arrival_order", std::move(Arrivals)));
      telemetry::recorder().emit(std::move(E));
    }
    if (HandshakeDistrusted && !RemSetPessimized) {
      // A distrusted handshake means the flushed barrier state may be
      // incomplete; pessimizing the next collection to a full trace makes
      // any missed entry irrelevant (same recovery as a barrier fault).
      RemSetPessimized = true;
      recordDegradation({DegradationKind::BoundaryPessimized, Clock, 0, 0,
                         ResidentBytes,
                         "injected safepoint-handshake fault; mutator "
                         "count-in distrusted, next collection pessimized"});
    }
  }
  Phase.store(GcPhase::Collecting, std::memory_order_relaxed);
  return true;
}

void Heap::resumeWorld() {
  assert(worldOwnedByThisThread() && "resumeWorld without owning the world");
  if (StopDepth > 1) {
    StopDepth -= 1;
    return;
  }
  Phase.store(GcPhase::NotCollecting, std::memory_order_release);
  StopDepth = 0;
  WorldOwner.store(std::thread::id(), std::memory_order_relaxed);
  {
    // The lock orders the clear against waiters' predicate checks, so no
    // count-in can miss the wakeup.
    std::lock_guard<std::mutex> Lock(SafepointMu);
    SafepointRequested.store(false, std::memory_order_seq_cst);
  }
  SafepointCv.notify_all();
  WorldMu.unlock();
}

Heap::PublicationSummary Heap::publishMutatorState() {
  PublicationSummary Sum;
  size_t Old = Objects.size();
  {
    profiling::ProfilePhase Publication(&Profiler,
                                        profiling::phase::Publication);
    for (MutatorContext *Ctx : Mutators) {
      uint64_t Added = Ctx->Pending.size();
      Sum.Objects += Added;
      for (const Object *O : Ctx->Pending)
        Sum.Bytes += O->grossBytes();
#if DTB_TELEMETRY
      Ctx->S.Obs.PublishedObjects += Added;
#endif
      Objects.insert(Objects.end(), Ctx->Pending.begin(), Ctx->Pending.end());
      Ctx->Pending.clear();
    }
    if (Sum.Objects != 0) {
      // Each context's pending run is already birth-ordered (ops on a
      // context are sequential); sorting the combined tail and merging
      // restores the global birth order in O(new log new + resident).
      auto ByBirth = [](const Object *A, const Object *B) {
        return A->birth() < B->birth();
      };
      std::sort(Objects.begin() + static_cast<ptrdiff_t>(Old), Objects.end(),
                ByBirth);
      std::inplace_merge(Objects.begin(),
                         Objects.begin() + static_cast<ptrdiff_t>(Old),
                         Objects.end(), ByBirth);
      MutStats.PublishedObjects += Sum.Objects;
    }
    Publication.addCost(Sum.Bytes);
  }
  {
    profiling::ProfilePhase Flush(&Profiler, profiling::phase::BarrierFlush);
    for (MutatorContext *Ctx : Mutators)
      Sum.FlushedBarrierEntries +=
          Ctx->flushBarrierBuffer(/*WorldStopped=*/true);
    Flush.addCost(Sum.FlushedBarrierEntries);
  }
  for (MutatorContext *Ctx : Mutators) {
    if (Inc.Active)
      Inc.PendingGray.insert(Inc.PendingGray.end(), Ctx->GreyBuffer.begin(),
                             Ctx->GreyBuffer.end());
    Ctx->GreyBuffer.clear();
  }
  if (telemetry::enabled()) {
    // One counter sample per context per safepoint, on a per-mutator
    // track ("heap#0/mutator#2"): the Chrome-trace view of each
    // context's allocation and barrier behavior over logical time.
    uint64_t Now = Clock.load(std::memory_order_relaxed);
    for (MutatorContext *Ctx : Mutators) {
      telemetry::Event E;
      E.Phase = telemetry::EventPhase::Counter;
      E.Track = TelemetryTrack + "/mutator#" + std::to_string(Ctx->Id);
      E.Name = "mutator";
      E.ScavengeIndex = History.size();
      E.TsClock = Now;
      E.Args.push_back(telemetry::arg("alloc_bytes", Ctx->S.AllocatedBytes));
      E.Args.push_back(telemetry::arg("allocations", Ctx->S.Allocations));
      E.Args.push_back(
          telemetry::arg("barrier_flushes", Ctx->S.BarrierFlushes));
#if DTB_TELEMETRY
      E.Args.push_back(telemetry::arg("barrier_high_water",
                                      Ctx->S.Obs.BarrierHighWater));
      E.Args.push_back(
          telemetry::arg("tlab_waste_bytes", Ctx->S.Obs.TlabWastedBytes));
#endif
      telemetry::recorder().emit(std::move(E));
    }
  }
  // The demographics' allocation counter is maintained per-allocation on
  // the direct path; context allocations defer it to publication (it only
  // feeds policy decisions, which run world-stopped after this).
  Demographics.setBytesSinceLastScavenge(BytesSinceCollect);
  return Sum;
}

void Heap::runAtSafepoint(const std::function<void(Heap &)> &AtCollect,
                          const std::function<void(Heap &)> &AtRestore) {
  stopWorld();
  if (AtCollect)
    AtCollect(*this);
  Phase.store(GcPhase::Restoring, std::memory_order_relaxed);
  if (AtRestore)
    AtRestore(*this);
  resumeWorld();
}

//===----------------------------------------------------------------------===//
// Heap: TLAB block management
//===----------------------------------------------------------------------===//

Heap::TlabBlock *Heap::carveTlab(uint64_t Bytes) {
  auto Block = std::make_unique<TlabBlock>();
  Block->Begin = static_cast<char *>(::operator new(Bytes));
  Block->End = Block->Begin + Bytes;
  Block->Cursor = Block->Begin;
  TlabBlock *Raw = Block.get();
  // Keep the table sorted by Begin so tlabBlockFor can binary-search.
  auto It = std::lower_bound(
      TlabBlocks.begin(), TlabBlocks.end(), Block->Begin,
      [](const std::unique_ptr<TlabBlock> &B, const char *Begin) {
        return B->Begin < Begin;
      });
  TlabBlocks.insert(It, std::move(Block));
  MutStats.TlabRefills += 1;
  MutStats.TlabCarvedBytes += Bytes;
  if (telemetry::enabled()) {
    static telemetry::Counter &Refills =
        telemetry::MetricsRegistry::global().counter("runtime.tlab.refills");
    static telemetry::Counter &Carved =
        telemetry::MetricsRegistry::global().counter(
            "runtime.tlab.carved_bytes");
    Refills.add(1);
    Carved.add(Bytes);
  }
  return Raw;
}

void Heap::retireTlab(TlabBlock *Block) {
  Block->Retired = true;
  MutStats.TlabWastedBytes +=
      static_cast<uint64_t>(Block->End - Block->Cursor);
  Block->Cursor = Block->End;
  // A retired block that never received a surviving object (e.g. retired
  // because an oversized request forced a refill immediately) is returned
  // right away... but only once no object inside it is resident, which is
  // exactly LiveObjects == 0.
  if (Block->LiveObjects == 0)
    freeTlabBlock(Block);
}

Heap::TlabBlock *Heap::tlabBlockFor(const Object *O) {
  const char *P = reinterpret_cast<const char *>(O);
  auto It = std::upper_bound(
      TlabBlocks.begin(), TlabBlocks.end(), P,
      [](const char *Ptr, const std::unique_ptr<TlabBlock> &B) {
        return Ptr < B->Begin;
      });
  if (It == TlabBlocks.begin())
    return nullptr;
  TlabBlock *Block = std::prev(It)->get();
  return P < Block->End ? Block : nullptr;
}

void Heap::freeTlabBlock(TlabBlock *Block) {
  auto It = std::lower_bound(
      TlabBlocks.begin(), TlabBlocks.end(), Block->Begin,
      [](const std::unique_ptr<TlabBlock> &B, const char *Begin) {
        return B->Begin < Begin;
      });
  DTB_CHECK(It != TlabBlocks.end() && It->get() == Block,
            "freeing a TLAB block not in the block table");
  ::operator delete(Block->Begin);
  TlabBlocks.erase(It);
  MutStats.TlabBlocksFreed += 1;
}

MutatorRuntimeStats Heap::mutatorStats() const {
  MutatorRuntimeStats Out = MutStats;
  Out.TlabBlocksResident = TlabBlocks.size();
  return Out;
}

std::vector<std::pair<const void *, const void *>>
Heap::tlabBlockRanges() const {
  std::vector<std::pair<const void *, const void *>> Ranges;
  Ranges.reserve(TlabBlocks.size());
  for (const auto &Block : TlabBlocks)
    Ranges.emplace_back(Block->Begin, Block->End);
  return Ranges;
}

void Heap::barrierSinkFailed(bool Locked) {
  if (Locked) {
    handleRemSetOverflow("injected barrier-sink fault; flush distrusted");
    return;
  }
  std::lock_guard<std::mutex> Lock(SinkMu);
  handleRemSetOverflow("injected barrier-sink fault; flush distrusted");
}

//===----------------------------------------------------------------------===//
// MutatorContext: registration and the count-in/count-out protocol
//===----------------------------------------------------------------------===//

MutatorContext::MutatorContext(Heap &H) : H(H) {
  // Registration synchronizes with any in-flight collection by briefly
  // owning the stopped world.
  H.stopWorld();
  Id = ++H.NextMutatorId;
  H.Mutators.push_back(this);
  H.resumeWorld();
}

MutatorContext::~MutatorContext() {
  // The terminal safepoint publishes our pending allocations and flushes
  // the barrier buffer (stopWorld does both); the TLAB is retired so its
  // storage can be reclaimed once its objects die.
  H.stopWorld();
  if (Tlab) {
    H.retireTlab(Tlab);
    Tlab = nullptr;
  }
  auto It = std::find(H.Mutators.begin(), H.Mutators.end(), this);
  DTB_CHECK(It != H.Mutators.end(), "destroying an unregistered context");
  H.Mutators.erase(It);
  H.resumeWorld();
}

void MutatorContext::countIn() {
  for (;;) {
    State.store(MutatorState::Mutating, std::memory_order_seq_cst);
    if (!H.SafepointRequested.load(std::memory_order_seq_cst))
      return;
    if (H.worldOwnedByThisThread())
      return; // A safepoint callback is driving this context.
    // A rendezvous is open: step back out and wait for the release, then
    // retry (another rendezvous may open before we re-enter).
    State.store(MutatorState::AtSafepoint, std::memory_order_seq_cst);
    yieldAtSafepoint();
  }
}

void MutatorContext::countOut() {
  State.store(MutatorState::AtSafepoint, std::memory_order_release);
}

void MutatorContext::yieldAtSafepoint() {
  S.SafepointYields += 1;
  std::unique_lock<std::mutex> Lock(H.SafepointMu);
  H.SafepointCv.wait(Lock, [&] {
    return !H.SafepointRequested.load(std::memory_order_relaxed);
  });
}

void MutatorContext::safepoint() {
#if DTB_TELEMETRY
  S.Obs.SafepointPolls += 1;
#endif
  if (H.SafepointRequested.load(std::memory_order_seq_cst) &&
      !H.worldOwnedByThisThread())
    yieldAtSafepoint();
}

void MutatorContext::park() {
#if DTB_TELEMETRY
  S.Obs.Parks += 1;
#endif
  State.store(MutatorState::Parked, std::memory_order_release);
}

void MutatorContext::unpark() {
#if DTB_TELEMETRY
  S.Obs.Unparks += 1;
#endif
  // If a rendezvous is open, honor the park contract — do not flip to
  // AtSafepoint until the world is released (both states are equally
  // invisible to the collector, but the caller's next op would block at
  // count-in anyway; waiting here keeps unpark's "blocks while stopped"
  // documentation honest).
  if (H.SafepointRequested.load(std::memory_order_seq_cst) &&
      !H.worldOwnedByThisThread())
    yieldAtSafepoint();
  State.store(MutatorState::AtSafepoint, std::memory_order_release);
}

size_t MutatorContext::addRoot(Object *Initial) {
  // Registering a root is a heap op: it must not race the collector's
  // root scan.
  countIn();
  Roots.push_back(Initial);
  size_t Index = Roots.size() - 1;
  countOut();
  return Index;
}

void MutatorContext::truncateRoots(size_t Count) {
  countIn();
  DTB_CHECK(Count <= Roots.size(), "truncating roots beyond the root count");
  Roots.resize(Count);
  countOut();
}

//===----------------------------------------------------------------------===//
// MutatorContext: allocation
//===----------------------------------------------------------------------===//

Object *MutatorContext::allocate(uint32_t NumSlots, uint32_t RawBytes) {
  Object *O = tryAllocate(NumSlots, RawBytes);
  if (!O)
    fatalError("heap limit cannot be satisfied even after an emergency "
               "full collection; use tryAllocate for a recoverable OOM");
  return O;
}

Object *MutatorContext::tryAllocate(uint32_t NumSlots, uint32_t RawBytes) {
  countIn();
  Object *O = allocateInOp(NumSlots, RawBytes);
  countOut();
  return O;
}

size_t MutatorContext::allocateRooted(uint32_t NumSlots, uint32_t RawBytes) {
  countIn();
  Object *O = allocateInOp(NumSlots, RawBytes);
  if (!O)
    fatalError("heap limit cannot be satisfied even after an emergency "
               "full collection; use tryAllocate for a recoverable OOM");
  Roots.push_back(O);
  size_t Index = Roots.size() - 1;
  countOut();
  return Index;
}

Object *MutatorContext::allocateInOp(uint32_t NumSlots, uint32_t RawBytes) {
  constexpr uint32_t MaxSlots = 1u << 24;
  constexpr uint32_t MaxRaw = 1u << 28;
  if (NumSlots > MaxSlots || RawBytes > MaxRaw)
    fatalError("allocation exceeds object size limits");

  // Collect before satisfying the request so the new object cannot be
  // reclaimed before the mutator roots it; counted out, since waiting on
  // the world lock while Mutating would deadlock its holder's rendezvous.
  // A safepoint callback driving this context defers to the first
  // allocation after the release: the callback owns the stopped world for
  // its own work and collects explicitly when it means to.
  if (H.triggerDue() && !H.worldOwnedByThisThread()) {
    countOut();
    if (H.collectOnTrigger())
      S.TriggeredCollections += 1;
    countIn();
  }

  uint64_t Gross = sizeof(Object) +
                   static_cast<uint64_t>(NumSlots) * sizeof(Object *) +
                   RawBytes;

  // Headroom: the fast path pre-checks pressure lock-free; only genuine
  // pressure (or an injected Allocation fault) stops the world and walks
  // the shared degradation ladder.
  bool Injected = faultRequestedAt(FaultSite::Allocation);
  auto overLimit = [&] {
    return H.Config.HeapLimitBytes != 0 &&
           H.ResidentBytes.load(std::memory_order_relaxed) + Gross >
               H.Config.HeapLimitBytes;
  };
  if (Injected || overLimit()) {
    const char *Why =
        overLimit() ? "heap limit reached" : "injected allocation fault";
    countOut();
    H.stopWorld();
    bool Ok = H.runPressureLadder(Gross, Why);
    if (!Ok)
      H.recordDegradation({DegradationKind::AllocationFailure, H.Clock,
                           Gross, H.Config.HeapLimitBytes, H.ResidentBytes,
                           "degradation ladder exhausted"});
    H.resumeWorld();
    countIn();
    if (!Ok)
      return nullptr;
  }

  // Aligned footprint inside a TLAB block (headers need 8-byte alignment;
  // dedicated storage gets it from operator new).
  uint64_t Need = (Gross + 7) & ~uint64_t(7);
  Object *O;
  if (Need * 4 > TlabBytes) {
    O = allocateHumongous(Gross, NumSlots, RawBytes);
  } else {
    if (!Tlab || static_cast<uint64_t>(Tlab->End - Tlab->Cursor) < Need)
      refillTlab(Need);
    char *Memory = Tlab->Cursor;
    Tlab->Cursor += Need;
    Tlab->LiveObjects += 1;
    std::memset(Memory, 0, static_cast<size_t>(Need));
    O = new (Memory) Object();
    O->Magic = Object::MagicAlive;
    O->Storage = Object::StorageTlab;
    O->NumSlots = NumSlots;
    O->RawBytes = RawBytes;
    O->GrossBytes = static_cast<uint32_t>(Gross);
  }
  // One relaxed fetch_add claims this allocation's disjoint clock
  // interval; births stay unique and monotone per context however threads
  // interleave, and single-threaded driving reproduces the direct path's
  // clock sequence exactly.
  O->Birth = H.Clock.fetch_add(Gross, std::memory_order_relaxed) + Gross;
  Pending.push_back(O);
  H.ResidentBytes.fetch_add(Gross, std::memory_order_relaxed);
  H.BytesSinceCollect.fetch_add(Gross, std::memory_order_relaxed);
  S.Allocations += 1;
  S.AllocatedBytes += Gross;
  if (telemetry::enabled()) {
    static telemetry::Counter &AllocCount =
        telemetry::MetricsRegistry::global().counter("runtime.alloc.count");
    static telemetry::Counter &AllocBytes =
        telemetry::MetricsRegistry::global().counter("runtime.alloc.bytes");
    AllocCount.add(1);
    AllocBytes.add(Gross);
  }
  return O;
}

Object *MutatorContext::allocateHumongous(uint64_t Gross, uint32_t NumSlots,
                                          uint32_t RawBytes) {
  void *Memory = ::operator new(Gross);
  std::memset(Memory, 0, Gross);
  Object *O = new (Memory) Object();
  O->Magic = Object::MagicAlive;
  O->Storage = Object::StorageOwn;
  O->NumSlots = NumSlots;
  O->RawBytes = RawBytes;
  O->GrossBytes = static_cast<uint32_t>(Gross);
  S.HumongousAllocations += 1;
  return O;
}

void MutatorContext::refillTlab(uint64_t Need) {
  std::lock_guard<std::mutex> Lock(H.RefillMu);
  if (Tlab) {
#if DTB_TELEMETRY
    // The tail the heap-level retire accounting calls waste, attributed
    // to the context that abandoned it.
    S.Obs.TlabWastedBytes += static_cast<uint64_t>(Tlab->End - Tlab->Cursor);
#endif
    H.retireTlab(Tlab);
  }
  uint64_t Bytes = std::max<uint64_t>(TlabBytes, Need);
  Tlab = H.carveTlab(Bytes);
  S.TlabRefills += 1;
#if DTB_TELEMETRY
  S.Obs.TlabCarvedBytes += Bytes;
#endif
}

//===----------------------------------------------------------------------===//
// MutatorContext: the phase-dependent write barrier
//===----------------------------------------------------------------------===//

void MutatorContext::writeSlot(Object *Source, uint32_t SlotIndex,
                               Object *Value) {
  countIn();
  DTB_CHECK(Source && Source->isAlive(), "store into a dead object");
  DTB_CHECK(!Value || Value->isAlive(), "storing a dead object reference");
  DTB_CHECK(SlotIndex < Source->numSlots(), "slot index out of range");
  Source->setSlotRaw(SlotIndex, Value);
  // Incremental greying between quanta, buffered per context and drained
  // into the cycle's pending-gray set at the next safepoint (the next
  // step re-greys from there before tracing). The atomic mirrors let this
  // run without stopping the world; Inc.* itself is world-stopped state.
  if (Value && H.IncActiveFlag.load(std::memory_order_relaxed)) {
    AllocClock Boundary = H.IncBoundaryAtomic.load(std::memory_order_relaxed);
    AllocClock BlackClock =
        H.IncBlackClockAtomic.load(std::memory_order_relaxed);
    if (Value->birth() > Boundary && Value->birth() <= BlackClock &&
        !Value->isMarked())
      GreyBuffer.push_back(Value);
  }
  if (Value && Value->birth() > Source->birth()) {
    S.BarrierBufferedEntries += 1;
    if (H.Phase.load(std::memory_order_relaxed) == GcPhase::NotCollecting) {
      // Free-running phase: buffer locally, flush at capacity. The flush
      // is the only store-path step that takes a lock.
      BarrierBuffer.emplace_back(Source, SlotIndex);
#if DTB_TELEMETRY
      if (BarrierBuffer.size() > S.Obs.BarrierHighWater)
        S.Obs.BarrierHighWater = BarrierBuffer.size();
#endif
      if (BarrierBuffer.size() >= BarrierFlushThreshold)
        flushBarrierBuffer(/*WorldStopped=*/false);
    } else {
      // COLLECTING/RESTORING: the world is stopped and this store comes
      // from a safepoint callback driving the context — the collector
      // consumes the set in these phases, so the entry lands immediately.
      if (faultRequestedAt(FaultSite::BarrierSink)) {
        H.barrierSinkFailed(/*Locked=*/true);
      } else {
        H.RemSet.insert(Source, SlotIndex);
        if (H.Config.RemSetMaxEntries != 0 &&
            H.RemSet.size() > H.Config.RemSetMaxEntries)
          H.handleRemSetOverflow("remembered-set entry bound exceeded");
      }
    }
  }
  countOut();
}

uint64_t MutatorContext::flushBarrierBuffer(bool WorldStopped) {
  if (BarrierBuffer.empty())
    return 0;
  uint64_t Count = BarrierBuffer.size();
  S.BarrierFlushes += 1;
  if (faultRequestedAt(FaultSite::BarrierSink)) {
    // The flush "failed": these entries cannot be trusted to have landed.
    // Dropping them is safe because the response pessimizes the next
    // collection to a full trace (handleRemSetOverflow), which cannot
    // miss a crossing pointer.
    BarrierBuffer.clear();
    H.barrierSinkFailed(/*Locked=*/WorldStopped);
    return 0;
  }
  auto Deliver = [&] {
    for (const auto &Entry : BarrierBuffer)
      H.RemSet.insert(Entry.first, Entry.second);
    if (H.Config.RemSetMaxEntries != 0 &&
        H.RemSet.size() > H.Config.RemSetMaxEntries)
      H.handleRemSetOverflow("remembered-set entry bound exceeded");
    H.MutStats.BarrierFlushes += 1;
    H.MutStats.BarrierFlushedEntries += Count;
  };
  if (WorldStopped) {
    Deliver();
  } else {
    std::lock_guard<std::mutex> Lock(H.SinkMu);
    Deliver();
  }
  BarrierBuffer.clear();
  return Count;
}

void MutatorContext::flushWriteBarrier() {
  countIn();
  flushBarrierBuffer(H.worldOwnedByThisThread());
  countOut();
}
