//===- runtime/Heap.h - The managed heap -----------------------*- C++ -*-===//
//
// Part of the dtbgc project (Barrett & Zorn DTB reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The managed runtime the paper's §4.2 sketches: a heap whose collector
/// threatens exactly the objects born after a dynamically chosen
/// threatening boundary.
///
///  * Objects carry exact birth times (runtime/Object.h).
///  * Pointer stores go through Heap::writeSlot, whose write barrier
///    records every forward-in-time pointer in a single unified
///    remembered set (runtime/RememberedSet.h).
///  * Roots are handle scopes (stack-like) plus registered global slots.
///  * Collection is non-moving mark-sweep over the threatened suffix of
///    the birth-ordered allocation list: any boundary is admissible, so
///    tenured garbage is reclaimed as soon as a policy moves the boundary
///    back past it (the paper's demotion/untenuring).
///  * A core::BoundaryPolicy chooses the boundary; survivor-table
///    demographics (runtime/EpochDemographics.h) stand in for the
///    simulator's oracle.
///
/// Typical use:
/// \code
///   runtime::HeapConfig Config;
///   Config.TriggerBytes = 256 * 1024;
///   runtime::Heap Heap(Config);
///   Heap.setPolicy(core::createPolicy("dtbmem", {.MemMaxBytes = 1 << 20}));
///
///   runtime::HandleScope Scope(Heap);
///   runtime::Object *&List = Scope.slot(nullptr);
///   List = Heap.allocate(/*NumSlots=*/2, /*RawBytes=*/8);
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef DTB_RUNTIME_HEAP_H
#define DTB_RUNTIME_HEAP_H

#include "core/BoundaryPolicy.h"
#include "core/ScavengeHistory.h"
#include "profiling/Profiler.h"
#include "runtime/Degradation.h"
#include "runtime/EpochDemographics.h"
#include "runtime/FlightRecorder.h"
#include "runtime/Object.h"
#include "runtime/RememberedSet.h"
#include "runtime/Safepoint.h"
#include "runtime/WeakRef.h"

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace dtb {

class ThreadPool;

namespace runtime {

class MutatorContext;
struct TraceLane;
class TraceLaneSet;

/// Which scavenging strategy the heap uses. Both implement the same
/// threatened-set contract; see Collector.cpp / CopyingCollector.cpp.
enum class CollectorKind {
  /// Non-moving: unreachable threatened objects are freed in place.
  /// Object addresses are stable for the heap's lifetime.
  MarkSweep,
  /// Evacuating: surviving threatened objects are copied to fresh
  /// storage and the originals released en masse ("reclaiming all the
  /// storage at once in the case of a copying collector" — paper §3).
  /// Object addresses are NOT stable across collections: the mutator
  /// must reach objects through handles or global roots, which the
  /// collector updates. Pinned objects never move.
  Copying,
};

/// Static heap configuration.
struct HeapConfig {
  /// Bytes of allocation between automatic collections (0 disables
  /// automatic triggering; collections then happen only via collect()).
  uint64_t TriggerBytes = 1'000'000;
  /// When true, reclaimed objects are kept (poisoned, header marked dead)
  /// instead of being freed, so tests can detect use-after-free through
  /// the Object canary. With the copying collector, the *originals* of
  /// moved objects are also quarantined, so stale raw pointers across a
  /// collection are detected too. Memory grows monotonically in this
  /// mode.
  bool QuarantineFreedObjects = false;
  /// Scavenging strategy.
  CollectorKind Collector = CollectorKind::MarkSweep;
  /// Hard memory limit in resident bytes (0 = unlimited). When an
  /// allocation would exceed it, tryAllocate walks the degradation ladder
  /// (scavenge, emergency full collection, OOM) instead of growing past
  /// the limit; allocate() aborts only after the whole ladder failed.
  uint64_t HeapLimitBytes = 0;
  /// Bound on remembered-set entries (0 = unbounded). On overflow the set
  /// is dropped, the next collection is pessimized to a full one, and the
  /// set is rebuilt exactly during that full trace — the classic
  /// generational response to card-table/buffer exhaustion.
  size_t RemSetMaxEntries = 0;
  /// Bound on retained DegradationEvent records (oldest are dropped
  /// first; totalDegradationEvents() keeps the true count).
  size_t DegradationLogLimit = 1024;
  /// When non-null, one human-readable line is written here per
  /// collection (a classic GC log). Not owned.
  std::FILE *LogStream = nullptr;
  /// Trace lanes for the transitive mark/evacuation phase: 1 = serial
  /// (default), N > 1 = a heap-private pool of N - 1 workers plus the
  /// collecting thread, 0 = borrow the process-wide default pool
  /// (--threads). Results are bit-identical for every setting; only wall
  /// time changes.
  unsigned TraceThreads = 1;
  /// Bounds the gross bytes of gray objects scanned per trace quantum
  /// (0 = unbounded, the whole trace runs as one quantum). A quantum may
  /// overshoot by at most one object, so the worst-case per-quantum pause
  /// is bounded by ScavengeBudgetBytes + the largest object's gross size
  /// regardless of survivor volume. Budgeted and unbudgeted scavenges
  /// produce bit-identical results; see also the incremental API
  /// (beginIncrementalScavenge), which returns to the mutator between
  /// quanta.
  uint64_t ScavengeBudgetBytes = 0;
  /// Per-quantum pause deadline in deterministic machine-model
  /// milliseconds (core::MachineModel cost of the bytes a quantum
  /// scanned; 0 disables the watchdog). A quantum whose model cost
  /// exceeds the deadline is a violation: the effective scavenge budget
  /// is halved (retry-halving backoff, floor 1 byte) and a
  /// WatchdogDeadline degradation event is recorded. Wall time is
  /// observed only as quarantined `wall.` telemetry — violations and
  /// their responses are fully deterministic.
  double QuantumDeadlineMillis = 0.0;
};

/// Counters describing one runtime collection beyond the policy-visible
/// ScavengeRecord.
struct CollectionStats {
  uint64_t ObjectsReclaimed = 0;
  uint64_t ObjectsTraced = 0;
  /// Objects relocated (copying collector only).
  uint64_t ObjectsMoved = 0;
  uint64_t RememberedSetRoots = 0;
  uint64_t RememberedSetPruned = 0;
  /// Trace quanta the collection ran (1 for an unbudgeted trace with any
  /// gray work, 0 when nothing was threatened or reachable).
  uint64_t TraceQuanta = 0;
  /// Largest gross bytes scanned by any single quantum — the max-pause
  /// proxy a ScavengeBudgetBytes bound is judged against. At most
  /// ScavengeBudgetBytes + max object gross when budgeted.
  uint64_t MaxQuantumTracedBytes = 0;
  /// Times a lane's private child buffer overflowed to the shared list
  /// (diagnostic; deterministic under fault injection, where every child
  /// detours).
  uint64_t LaneOverflowEvents = 0;
  /// Pause-deadline watchdog violations during this collection (machine-
  /// model cost over HeapConfig::QuantumDeadlineMillis, or injected
  /// watchdog faults). Each one halved the effective scavenge budget.
  uint64_t WatchdogViolations = 0;
};

/// Snapshot of an open incremental cycle (all-zero when none is open);
/// see Heap::incrementalCycleInfo(). Serves introspection (HeapDump) and
/// harnesses that need to step a cycle without completing it.
struct IncrementalCycleInfo {
  bool Active = false;
  core::AllocClock Boundary = 0;
  /// Allocate-black clock snapshot: objects born after it are untouched
  /// by this cycle.
  core::AllocClock BlackClock = 0;
  /// Gray objects queued for the next quantum (after re-greying any
  /// barrier-buffered targets is still pending — PendingGrayObjects).
  size_t GrayObjects = 0;
  uint64_t GrayBytes = 0;
  /// Targets the write barrier greyed since the last step.
  size_t PendingGrayObjects = 0;
  uint64_t TracedBytes = 0;
  /// Quanta run so far this cycle.
  uint64_t Quanta = 0;
  /// Quantum budget currently in force (after any watchdog backoff;
  /// 0 = unbounded).
  uint64_t BudgetBytes = 0;
  bool RebuildRemSet = false;
  /// True once the watchdog degraded tracing to a serial shared cursor.
  bool SerialDegraded = false;
  uint64_t WatchdogViolations = 0;
};

/// The managed heap. The direct API (allocate/writeSlot/collect) is
/// single-mutator, exactly as the paper's collector assumes; N concurrent
/// mutator threads go through registered MutatorContext instances
/// (runtime/Mutator.h), which layer per-thread TLABs, buffered write
/// barriers, and safepoint count-in/count-out handshakes on top of this
/// heap. With no contexts registered, behavior is bit-identical to the
/// historical single-mutator heap. Mixing direct allocate/writeSlot calls
/// with concurrently running contexts is not supported; drive everything
/// through contexts (or from one thread) instead.
class Heap {
public:
  explicit Heap(HeapConfig Config = HeapConfig());
  ~Heap();

  Heap(const Heap &) = delete;
  Heap &operator=(const Heap &) = delete;

  /// Installs the threatening-boundary policy (required before automatic
  /// triggering or collect() without an explicit boundary).
  void setPolicy(std::unique_ptr<core::BoundaryPolicy> Policy);
  core::BoundaryPolicy *policy() { return Policy.get(); }

  /// Allocates an object with \p NumSlots pointer slots (zeroed) and
  /// \p RawBytes of raw data (zeroed). May trigger a collection *before*
  /// the allocation when the trigger threshold is reached, so the caller
  /// does not need a handle on the result until the next allocation.
  /// Aborts when HeapLimitBytes is set and the degradation ladder cannot
  /// make room; use tryAllocate for a recoverable failure.
  Object *allocate(uint32_t NumSlots, uint32_t RawBytes = 0);

  /// Like allocate, but recoverable: when the heap limit (or an injected
  /// allocation fault) denies the request, walks the degradation ladder —
  /// (1) normal scavenge at the policy's boundary, (2) emergency FULL
  /// collection at TB = 0, (3) give up — and returns nullptr only after
  /// every rung failed. Each rung taken is recorded in degradationLog().
  /// Under an open incremental cycle the ladder gains mid-cycle rungs
  /// first: accelerate (extra quanta), complete-now (drain when remaining
  /// gray work is bounded), abort — so allocation pressure never
  /// dead-ends against a suspended trigger.
  Object *tryAllocate(uint32_t NumSlots, uint32_t RawBytes = 0);

  /// Stores \p Value into \p Source's slot \p SlotIndex, applying the
  /// write barrier: a forward-in-time store (Value born after Source) is
  /// recorded in the remembered set.
  void writeSlot(Object *Source, uint32_t SlotIndex, Object *Value);

  /// Stores without the write barrier. Exists so tests and the verifier
  /// demo can exhibit what a missed barrier does; never use it in mutator
  /// code — a forward-in-time store through this is a collector bug
  /// waiting for a boundary between the two birth times.
  void dangerouslyWriteSlotWithoutBarrier(Object *Source, uint32_t SlotIndex,
                                          Object *Value);

  /// Registers/unregisters a global root location. The pointed-to slot may
  /// be updated freely (root locations are rescanned at each collection).
  void addGlobalRoot(Object **Location);
  void removeGlobalRoot(Object **Location);

  /// Pins \p O: it is exempt from age-based reclamation (it survives every
  /// scavenge and is traced whenever threatened, keeping its referents
  /// alive). This is the hook the paper's related-work section describes
  /// for handing objects to a Mature Object Space / Key Object collector
  /// once age stops predicting death for them. Unpinning returns the
  /// object to ordinary age-based collection.
  void pinObject(Object *O);
  void unpinObject(Object *O);
  bool isPinned(const Object *O) const;
  const std::vector<Object *> &pinnedObjects() const { return Pinned; }

  /// Runs a collection with the installed policy choosing the boundary.
  /// Returns the scavenge record by value (the history may reallocate as
  /// later scavenges are appended).
  core::ScavengeRecord collect();

  /// Runs a collection with an explicit threatening boundary (0 = full
  /// collection). Records it in the history like any other scavenge.
  /// Any incremental scavenge in flight is drained to completion first.
  core::ScavengeRecord collectAtBoundary(core::AllocClock Boundary);

  /// Begins a resumable scavenge at \p Boundary (mark-sweep only): roots
  /// and remembered-set entries are scanned now, and the gray set persists
  /// across incrementalScavengeStep() calls so the mutator can run between
  /// quanta. Soundness between steps: writeSlot greys any store of an
  /// unmarked threatened object (Dijkstra incremental update), objects
  /// allocated mid-cycle are implicitly black (born after the cycle's
  /// clock snapshot, so the sweep keeps them), and roots are rescanned at
  /// every step. Automatic triggering is suspended while a cycle is
  /// active.
  void beginIncrementalScavenge(core::AllocClock Boundary);

  /// Runs one quantum (ScavengeBudgetBytes of scanned work; unbounded
  /// when 0) of the active incremental scavenge. Returns true when the
  /// cycle is over: either it completed — weak refs were processed, the
  /// threatened suffix swept, and the scavenge recorded in history() — or
  /// an injected IncrementalStep fault aborted it (no record appended;
  /// distinguish via history().size() or incrementalScavengeActive()).
  /// Returns false while gray work remains.
  bool incrementalScavengeStep();

  /// Drains the active incremental scavenge to completion and returns its
  /// record. If an injected fault aborts the cycle mid-drain, returns a
  /// zero record (Index == 0) instead — callers that need the
  /// distinction should compare history().size().
  core::ScavengeRecord finishIncrementalScavenge();

  /// Cancels the open incremental cycle, restoring the heap to a state
  /// observably equivalent to the cycle never having started: the gray
  /// set and barrier buffers are discarded, every mark this cycle set is
  /// cleared, the collection stats are rolled back (only the sweep writes
  /// the survivor table), and automatic triggering re-arms. No
  /// ScavengeRecord is appended. Records a CycleAborted degradation event
  /// (+ telemetry instant). An injected CycleAbort fault models a failed
  /// rollback of the barrier bookkeeping: the heap stays safe by
  /// pessimizing the next collection to a full one.
  void abortIncrementalScavenge();

  /// True between beginIncrementalScavenge and cycle completion/abort.
  bool incrementalScavengeActive() const { return Inc.Active; }

  /// Introspection snapshot of the open cycle (all-zero when none).
  IncrementalCycleInfo incrementalCycleInfo() const;

  /// Stops the world (rendezvous with every registered mutator context,
  /// publication of their pending allocations, barrier-buffer flush into
  /// the remembered set), runs \p AtCollect in the COLLECTING phase and
  /// then \p AtRestore (when non-null) in the RESTORING phase, and
  /// releases the world. With no contexts registered this is just the two
  /// callbacks around the phase transitions. Reentrant from the thread
  /// that already owns the stopped world. Verification, tests, and any
  /// embedder logic that must see a consistent multi-mutator heap go
  /// through here.
  void runAtSafepoint(const std::function<void(Heap &)> &AtCollect,
                      const std::function<void(Heap &)> &AtRestore = nullptr);

  /// The current collection phase (see runtime/Safepoint.h).
  GcPhase phase() const { return Phase.load(std::memory_order_relaxed); }

  /// Registered mutator contexts, in registration order (the order every
  /// root scan and barrier flush visits them — deterministic under
  /// single-threaded driving).
  const std::vector<MutatorContext *> &mutatorContexts() const {
    return Mutators;
  }

  /// Counters for the mutator runtime (rendezvous, TLAB carving, barrier
  /// flushes). Call from the owning thread or at a safepoint.
  MutatorRuntimeStats mutatorStats() const;

  /// Snapshot of the most recent safepoint rendezvous (zeroed before the
  /// first one). Call from the owning thread or at a safepoint.
  const SafepointRendezvousRecord &lastSafepointRendezvous() const {
    return LastRendezvous;
  }

  /// Cumulative deterministic TTSP attribution across every rendezvous
  /// (empty type under -DDTB_ENABLE_TELEMETRY=OFF).
  const SafepointTtspStats &safepointTtspStats() const { return TtspStats; }

  /// The always-on flight recorder: a bounded ring of recent
  /// GC/safepoint/degradation events, never compiled out (see
  /// runtime/FlightRecorder.h). Mutable through a const heap — recording
  /// is lock-free atomics and the verifier (which only sees const heaps)
  /// must be able to leave a black-box trail.
  FlightRecorder &flightRecorder() const { return FlightRec; }

  /// Where automatic flight-recorder dumps go: the GC log stream when
  /// configured, else stderr.
  std::FILE *flightDumpStream() const {
    return Config.LogStream ? Config.LogStream : stderr;
  }

  /// [begin, end) storage ranges of every resident TLAB block, sorted by
  /// address (tests assert the ranges are disjoint — no byte double-
  /// carved). Call at a safepoint.
  std::vector<std::pair<const void *, const void *>> tlabBlockRanges() const;

  /// Current allocation clock (bytes allocated so far, gross).
  core::AllocClock now() const {
    return Clock.load(std::memory_order_relaxed);
  }

  /// Resident bytes (live + not-yet-reclaimed garbage), gross.
  uint64_t residentBytes() const {
    return ResidentBytes.load(std::memory_order_relaxed);
  }
  size_t residentObjects() const { return Objects.size(); }

  /// Substitutes \p Demo for the survivor-table estimates in the
  /// BoundaryRequest that collect() hands the policy (nullptr restores the
  /// built-in EpochDemographics). The conformance harness uses this to
  /// feed both the simulator and the runtime the same exact oracle, so
  /// policy decisions are comparable bit for bit; the survivor table keeps
  /// updating either way. Not owned; must outlive the heap or be cleared.
  void setDemographicsOverride(const core::Demographics *Demo) {
    DemoOverride = Demo;
  }

  /// Rule identifier the policy reported during the most recent collect()
  /// ("unspecified" before any policy-driven collection; explicit
  /// collectAtBoundary() calls do not update it).
  const std::string &lastRuleFired() const { return LastRule; }
  /// Degradation note the policy reported during the most recent collect()
  /// (empty when it ran clean).
  const std::string &lastDegradationNote() const { return LastNote; }

  /// The heap's phase profiler. Collections attribute their work to the
  /// shared phase taxonomy (profiling/Profiler.h) whenever the profiler is
  /// active — explicitly enabled via profiler().setEnabled(true), or
  /// implicitly whenever telemetry is recording. Costs are deterministic
  /// (bytes traced/reclaimed, demographic queries); wall time rides along
  /// as a quarantined side channel.
  profiling::PhaseProfiler &profiler() { return Profiler; }
  const profiling::PhaseProfiler &profiler() const { return Profiler; }

  /// Aggregated per-lane trace work (phase "trace_lane"), merged from the
  /// lanes' private profilers in fixed lane order after every round. Kept
  /// separate from profiler(): how work splits across lanes depends on
  /// scheduling, so this profile is *not* part of the deterministic
  /// surface and never feeds BENCH exact metrics.
  const profiling::PhaseProfiler &laneProfiler() const { return LaneProfile; }

  /// The decision explanation the policy filled during the most recent
  /// collect() (inputs, candidate epoch, predictions). Only populated
  /// while telemetry is enabled; check lastDecisionValid().
  const core::BoundaryDecision &lastDecision() const { return LastDecision; }
  bool lastDecisionValid() const { return LastDecisionValid; }

  const core::ScavengeHistory &history() const { return History; }
  const CollectionStats &lastCollectionStats() const { return LastStats; }
  const RememberedSet &rememberedSet() const { return RemSet; }
  const EpochDemographics &demographics() const { return Demographics; }
  const HeapConfig &config() const { return Config; }

  /// The retained tail of the degradation ladder's event log (bounded by
  /// HeapConfig::DegradationLogLimit; oldest events are dropped first).
  const std::deque<DegradationEvent> &degradationLog() const {
    return DegradationLog;
  }
  /// Count of all degradation events ever recorded, including any dropped
  /// from the bounded log.
  uint64_t totalDegradationEvents() const { return DegradationTotal; }
  /// Exact per-rung count over the heap's whole lifetime (unlike the
  /// bounded log, never loses old events).
  uint64_t degradationEventsOfKind(DegradationKind Kind) const {
    return DegradationKindTotals[static_cast<unsigned>(Kind)];
  }
  void clearDegradationLog() {
    DegradationLog.clear();
    DegradationTotal = 0;
    DegradationKindTotals.fill(0);
  }

  /// True between a remembered-set overflow and the pessimized (full)
  /// collection that rebuilds the set. While set, write-barrier
  /// completeness is knowingly suspended: the next collection traces
  /// everything, so no crossing pointer can be missed, and the verifier
  /// skips the completeness check.
  bool remSetPessimized() const { return RemSetPessimized; }

  /// Read-only view of the birth-ordered allocation list (verification and
  /// introspection).
  const std::vector<Object *> &objects() const { return Objects; }
  const std::vector<Object **> &globalRoots() const { return GlobalRoots; }
  /// Handle-scope slots currently acting as roots.
  const std::deque<Object *> &handleSlots() const { return HandleSlots; }
  /// Registered weak references (introspection).
  const std::vector<WeakRef *> &weakRefs() const { return WeakRefs; }

private:
  friend class HandleScope;
  friend class WeakRef;
  friend class MutatorContext;

  void registerWeakRef(WeakRef *Ref);
  void unregisterWeakRef(WeakRef *Ref);

  /// One bump-pointer block carved for a MutatorContext. The cursor is
  /// owner-exclusive until the block is retired; LiveObjects is bumped by
  /// the owner at allocation and decremented only inside stop-the-world
  /// sweeps, so neither field needs atomics.
  struct TlabBlock {
    char *Begin = nullptr;
    char *End = nullptr;
    char *Cursor = nullptr;
    uint32_t LiveObjects = 0;
    bool Retired = false;
  };

  // --- Multi-mutator machinery (implemented in Mutator.cpp) -------------
  /// Acquires exclusive ownership of the stopped world: serializes against
  /// competing collectors, rendezvouses with every registered context
  /// (waits until none is Mutating), publishes pending allocations, and
  /// flushes barrier buffers. Reentrant from the owning thread; a nested
  /// stop publishes what a safepoint callback allocated through a context.
  /// A no-op rendezvous when no contexts are registered (the legacy
  /// single-mutator path pays one uncontended mutex lock). \p ForTrigger
  /// re-checks triggerDue() under the lock, before any rendezvous: false
  /// means another thread's collection served the trigger and nothing
  /// stopped.
  bool stopWorld(bool ForTrigger = false);
  /// Releases the world: resets the phase, clears the safepoint request,
  /// and wakes blocked contexts. Balances stopWorld.
  void resumeWorld();
  /// True when the calling thread currently owns the stopped world.
  bool worldOwnedByThisThread() const {
    return WorldOwner.load(std::memory_order_relaxed) ==
           std::this_thread::get_id();
  }
  /// What one rendezvous' publication drained (the deterministic TTSP
  /// attribution inputs).
  struct PublicationSummary {
    uint64_t Objects = 0;
    uint64_t Bytes = 0;
    uint64_t FlushedBarrierEntries = 0;
  };
  /// World-stopped: merges every context's pending allocations into the
  /// birth-ordered list, flushes barrier and grey buffers, and refreshes
  /// the demographics' since-allocation counter. Returns what it drained.
  PublicationSummary publishMutatorState();
  /// Carves a fresh TLAB block of at least \p Bytes under the refill lock.
  TlabBlock *carveTlab(uint64_t Bytes);
  /// Retires \p Block (no further bumping; accounts the unused tail as
  /// waste). Caller holds the refill lock or the stopped world.
  void retireTlab(TlabBlock *Block);
  /// The block containing \p O (binary search over the sorted block
  /// table). World-stopped callers only.
  TlabBlock *tlabBlockFor(const Object *O);
  /// Returns \p Block's storage to the OS and drops it from the block
  /// table. Caller holds the refill lock or the stopped world.
  void freeTlabBlock(TlabBlock *Block);
  /// Barrier-sink failure (injected BarrierSink fault): the buffered
  /// entries cannot be trusted to have landed — same response as a
  /// remembered-set overflow. \p Locked says whether the caller already
  /// holds SinkMu.
  void barrierSinkFailed(bool Locked);

  /// Index of the first object born strictly after \p Boundary.
  size_t firstBornAfter(core::AllocClock Boundary) const;

  /// Byte counts a scavenging strategy reports back to collectAtBoundary.
  struct ScavengeWork {
    uint64_t TracedBytes = 0;
    uint64_t ReclaimedBytes = 0;
  };
  ScavengeWork runMarkSweep(core::AllocClock Boundary);
  ScavengeWork runCopying(core::AllocClock Boundary);

  /// State of a resumable mark-sweep cycle (see beginIncrementalScavenge).
  struct IncrementalState {
    bool Active = false;
    core::AllocClock Boundary = 0;
    /// Clock snapshot at cycle begin: objects born after it are black by
    /// construction (never threatened by this cycle's sweep).
    core::AllocClock BlackClock = 0;
    bool RebuildRemSet = false;
    /// Persisted gray set between quanta.
    std::vector<Object *> Gray;
    /// Targets the write barrier greyed since the last step.
    std::vector<Object *> PendingGray;
    ScavengeWork Work;
    /// Rollback state for abortIncrementalScavenge: the collection stats
    /// as they were before begin, so an aborted cycle leaves them exactly
    /// as if it never started.
    CollectionStats PrevStats;
  };

  /// The pool trace rounds fan out over, per Config.TraceThreads: null for
  /// serial, the shared default pool for 0, else a lazily created private
  /// pool (*PoolIsPrivate reports which) reused across collections.
  ThreadPool *tracePoolFor(bool *PoolIsPrivate);

  /// Calls \p Visit(Object *&) on every root slot in the order every
  /// collector scans them: global roots, handle slots, pinned objects,
  /// then each context's roots in registration order. World stopped, so
  /// the slots are stable. Defined in runtime/Mutator.h.
  template <typename Fn> void forEachRoot(Fn &&Visit);
  /// Marks \p O if it is threatened, unmarked, and born at or before
  /// \p BlackClock; accounts it and pushes it on \p Gray. Serial phases
  /// only (root/remset scans and barrier-grey replay).
  bool markThreatened(Object *O, core::AllocClock Boundary,
                      core::AllocClock BlackClock, std::vector<Object *> &Gray,
                      ScavengeWork &Work);
  /// The mark-sweep root + remembered-set scan (serial, with phase
  /// attribution), seeding \p Gray.
  void seedMarkSweepRoots(core::AllocClock Boundary,
                          core::AllocClock BlackClock,
                          std::vector<Object *> &Gray, ScavengeWork &Work);
  /// Parallel scan body: claims \p O's threatened children into \p Lane.
  void scanMarkSweepObject(Object *O, core::AllocClock Boundary,
                           core::AllocClock BlackClock, TraceLane &Lane);
  /// One budgeted quantum of the mark-sweep trace (0 = drain fully).
  /// Returns gross bytes scanned and updates the quantum stats.
  uint64_t traceMarkSweepQuantum(core::AllocClock Boundary,
                                 core::AllocClock BlackClock,
                                 std::vector<Object *> &Gray,
                                 uint64_t BudgetBytes, ScavengeWork &Work);
  /// Weak-ref processing + sweep for a finished mark-sweep trace.
  void finishMarkSweepCycle(core::AllocClock Boundary,
                            core::AllocClock BlackClock, ScavengeWork &Work);
  /// Abort body shared by abortIncrementalScavenge(), the injected
  /// IncrementalStep fault, and the mid-cycle pressure ladder; \p Why
  /// leads the CycleAborted event's detail.
  void abortIncrementalCycle(const char *Why);
  /// Merges lane buffers (fixed lane order) into the gray queue, the
  /// collection stats, demographics, and the lane profile.
  void drainTraceLanes(TraceLaneSet &Lanes, std::vector<Object *> &Gray,
                       ScavengeWork &Work);
  /// Shared bookkeeping tail of every collection (record assembly,
  /// history, demographics close, optional remset rebuild, telemetry).
  core::ScavengeRecord completeCollection(core::AllocClock Boundary,
                                          const ScavengeWork &Work,
                                          uint64_t MemBeforeBytes,
                                          bool RebuildRemSet);

  /// The automatic trigger: TriggerBytes allocated since the last
  /// collection, a policy, no collection open, and no incremental cycle
  /// (its embedder paces it; a trigger would drain it). Lock-free.
  bool triggerDue() const {
    return Config.TriggerBytes != 0 && Policy && !InCollection &&
           !IncActiveFlag && BytesSinceCollect >= Config.TriggerBytes;
  }
  /// Both allocation paths call this once they saw triggerDue(): collects
  /// unless the trigger was served by the time this thread holds the world
  /// lock (see stopWorld). Returns true when this call collected.
  bool collectOnTrigger();
  void reclaimObject(Object *O);
  /// Frees (or quarantines+poisons) an object's storage.
  void releaseStorage(Object *O);

  /// Appends to the bounded degradation log.
  void recordDegradation(DegradationEvent Event);
  /// Walks the degradation ladder until \p Gross bytes fit under the heap
  /// limit (or no limit/pressure applies). Returns false when the ladder
  /// is exhausted.
  bool ensureHeadroom(uint64_t Gross);
  /// The ladder proper (rungs + events), entered once pressure is real;
  /// \p Why heads the first event's detail. Split out so MutatorContext
  /// can pre-check pressure lock-free and enter with the world stopped.
  bool runPressureLadder(uint64_t Gross, const char *Why);
  /// Refreshes the atomic mirrors of Inc.{Active,Boundary,BlackClock};
  /// call after every mutation of those fields.
  void syncIncMirror() {
    IncActiveFlag.store(Inc.Active, std::memory_order_relaxed);
    IncBoundaryAtomic.store(Inc.Boundary, std::memory_order_relaxed);
    IncBlackClockAtomic.store(Inc.BlackClock, std::memory_order_relaxed);
  }

  /// Scoped stopWorld/resumeWorld pair for the collection entry points.
  struct WorldPause {
    explicit WorldPause(Heap &H) : H(H) { H.stopWorld(); }
    ~WorldPause() { H.resumeWorld(); }
    WorldPause(const WorldPause &) = delete;
    WorldPause &operator=(const WorldPause &) = delete;
    Heap &H;
  };
  /// Drops the remembered set and schedules a pessimized rebuild.
  void handleRemSetOverflow(const char *Why);
  /// Re-derives the remembered set from the live heap (after a full
  /// trace); restores barrier completeness.
  void rebuildRememberedSet();

  /// Emits the per-scavenge telemetry trio (span + TB instant + resident
  /// counter) for \p Record; no-op when telemetry is disabled.
  void emitScavengeTelemetry(const core::ScavengeRecord &Record);

  HeapConfig Config;
  std::unique_ptr<core::BoundaryPolicy> Policy;

  /// Telemetry timeline for this heap ("heap#<instance>"); instances are
  /// numbered in construction order so concurrent heaps get distinct
  /// tracks.
  std::string TelemetryTrack;
  /// Rule the policy reported for the scavenge collect() is about to run
  /// ("unspecified" outside collect()); consumed by emitScavengeTelemetry.
  std::string PendingRule;
  /// Rule and degradation note from the most recent collect(), kept for
  /// lastRuleFired()/lastDegradationNote().
  std::string LastRule = "unspecified";
  std::string LastNote;
  /// Optional exact-demographics stand-in for policy requests (see
  /// setDemographicsOverride). Not owned.
  const core::Demographics *DemoOverride = nullptr;

  /// Phase-level cost attribution for this heap's collections.
  profiling::PhaseProfiler Profiler;
  /// Scheduling-dependent per-lane attribution (see laneProfiler()).
  profiling::PhaseProfiler LaneProfile;
  /// Lazily created private trace pool (Config.TraceThreads > 1), reused
  /// across collections so lanes do not respawn threads per scavenge.
  std::unique_ptr<ThreadPool> TracePool;
  IncrementalState Inc;
  /// Decision explanation from the most recent collect() (see
  /// lastDecision()); valid only when LastDecisionValid.
  core::BoundaryDecision LastDecision;
  bool LastDecisionValid = false;
  /// True while collectAtBoundary is running on behalf of collect(), i.e.
  /// the pending rule/decision describe this scavenge.
  bool PendingDecisionValid = false;

  /// The allocation clock and byte counters are atomics so registered
  /// mutator contexts can advance them lock-free from their allocation
  /// fast paths (relaxed fetch_add; births stay unique and monotone
  /// because each allocation claims its own disjoint clock interval). The
  /// direct single-mutator path uses them exactly as before — with one
  /// thread the sequence of values is unchanged, keeping every trace,
  /// BENCH record, and conformance grid byte-identical.
  std::atomic<core::AllocClock> Clock{0};
  std::atomic<uint64_t> ResidentBytes{0};
  std::atomic<uint64_t> BytesSinceCollect{0};
  std::atomic<bool> InCollection{false};

  // --- Multi-mutator runtime state (runtime/Mutator.cpp) ----------------
  /// Registered contexts, registration order (the deterministic visit
  /// order for root scans, publication, and barrier flushes).
  std::vector<MutatorContext *> Mutators;
  /// Resident TLAB blocks, sorted by Begin address; guarded by RefillMu
  /// for growth, world-stopped for lookup/free.
  std::vector<std::unique_ptr<TlabBlock>> TlabBlocks;
  /// Serializes TLAB carving (the only lock on the allocation slow path).
  std::mutex RefillMu;
  /// Guards mid-mutation barrier-buffer flushes into the remembered set
  /// (the shared sink) while the world is running. Never taken by
  /// world-stopped code.
  std::mutex SinkMu;
  /// Collector-ownership lock: held from stopWorld to resumeWorld, so at
  /// most one thread drives a collection at a time.
  std::mutex WorldMu;
  /// Guards the safepoint condition variable below.
  std::mutex SafepointMu;
  /// Contexts blocked counting in during an open rendezvous wait here.
  std::condition_variable SafepointCv;
  /// Set while a rendezvous is open; every context count-in checks it.
  std::atomic<bool> SafepointRequested{false};
  /// The thread owning the stopped world (default id when none).
  std::atomic<std::thread::id> WorldOwner{};
  /// Reentrancy depth of stopWorld from the owning thread.
  unsigned StopDepth = 0;
  /// The phase machine (see runtime/Safepoint.h).
  std::atomic<GcPhase> Phase{GcPhase::NotCollecting};
  /// Mirrors of the incremental-cycle fields mutator barriers must read
  /// between quanta without stopping the world (Inc.* stays the source of
  /// truth; these are updated wherever it changes).
  std::atomic<bool> IncActiveFlag{false};
  std::atomic<core::AllocClock> IncBoundaryAtomic{0};
  std::atomic<core::AllocClock> IncBlackClockAtomic{0};
  /// Counters behind mutatorStats(). Rendezvous/publish/flush counts are
  /// world-owner-exclusive; TLAB counters are guarded by RefillMu.
  MutatorRuntimeStats MutStats;
  /// Most recent rendezvous snapshot (world-owner-exclusive writes).
  SafepointRendezvousRecord LastRendezvous;
  /// Cumulative TTSP attribution (world-owner-exclusive writes; empty
  /// under -DDTB_ENABLE_TELEMETRY=OFF).
  SafepointTtspStats TtspStats;
  /// Next MutatorContext::id() to hand out (registration is
  /// world-stopped, so a plain counter suffices).
  uint64_t NextMutatorId = 0;
  /// The always-on black box (mutable: see flightRecorder()).
  mutable FlightRecorder FlightRec;

  /// Pause-deadline watchdog state, reset at the start of every
  /// collection (and by abortIncrementalScavenge). EffectiveBudgetBytes
  /// overrides the configured scavenge budget once backoff engages
  /// (0 = no override yet).
  unsigned WatchdogConsecutive = 0;
  bool WatchdogSerial = false;
  uint64_t EffectiveBudgetBytes = 0;

  std::vector<Object *> Objects; // Birth-ordered.
  std::vector<Object *> Quarantine;
  std::vector<Object *> Pinned;
  std::vector<WeakRef *> WeakRefs;
  std::vector<Object **> GlobalRoots;
  std::deque<Object *> HandleSlots; // Stable addresses; scopes pop suffixes.

  RememberedSet RemSet;
  bool RemSetPessimized = false;
  EpochDemographics Demographics;
  core::ScavengeHistory History;
  CollectionStats LastStats;
  std::deque<DegradationEvent> DegradationLog;
  uint64_t DegradationTotal = 0;
  std::array<uint64_t, NumDegradationKinds> DegradationKindTotals{};
};

/// RAII scope providing GC-visible local roots. Scopes must nest like a
/// stack (destroyed in reverse creation order), mirroring the mutator's
/// call stack.
class HandleScope {
public:
  explicit HandleScope(Heap &H) : H(H), Base(H.HandleSlots.size()) {}
  ~HandleScope();

  HandleScope(const HandleScope &) = delete;
  HandleScope &operator=(const HandleScope &) = delete;

  /// Creates a new rooted slot initialized to \p Initial and returns a
  /// stable reference to it. The reference is valid until the scope dies.
  Object *&slot(Object *Initial);

private:
  Heap &H;
  size_t Base;
};

} // namespace runtime
} // namespace dtb

#endif // DTB_RUNTIME_HEAP_H
