//===- runtime/FlightRecorder.h - Always-on GC black box -------*- C++ -*-===//
//
// Part of the dtbgc project (Barrett & Zorn DTB reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A bounded, lock-free ring of recent GC/safepoint/degradation events —
/// the heap's black box. Unlike the telemetry recorder it is always on:
/// postmortems need it exactly when nobody enabled the recorder, and its
/// cost is a handful of relaxed atomic stores per *collection-rate* event
/// (never on the allocation or store fast paths; BM_SafepointRendezvous
/// bounds the rendezvous-path cost).
///
/// Timestamps are deterministic allocation-clock values, so under
/// single-threaded driving the ring's contents replay bit-identically.
/// Writers are the collection-rate paths (world owner, degradation
/// ladder, verifier); each record claims a slot with one relaxed
/// fetch_add and fills per-field atomics, so concurrent writers and a
/// concurrent snapshot are race-free. A reader that catches a slot
/// mid-overwrite (the writer lapped it) detects the torn sequence number
/// and skips the slot.
///
/// The ring is dumped automatically (to the heap's GC log stream, else
/// stderr) on degradation-ladder entry, watchdog violation, and verifier
/// failure, throttled to the first few triggers per heap so a fault storm
/// cannot flood the log.
///
//===----------------------------------------------------------------------===//

#ifndef DTB_RUNTIME_FLIGHTRECORDER_H
#define DTB_RUNTIME_FLIGHTRECORDER_H

#include "runtime/Degradation.h"

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace dtb {
namespace runtime {

/// What a flight-recorder entry describes. The A/B/C payload words are
/// per-kind (see describeFlightEvent).
enum class FlightEventKind : uint8_t {
  /// A completed collection. A = scavenge index, B = traced bytes,
  /// C = reclaimed bytes.
  ScavengeComplete,
  /// A completed safepoint rendezvous. A = contexts, B = pending
  /// allocation bytes drained (the deterministic TTSP input),
  /// C = straggler context id.
  SafepointRendezvous,
  /// An incremental cycle opened. A = boundary.
  CycleBegin,
  /// A degradation-ladder event. A = DegradationKind, B = resident bytes.
  Degradation,
  /// The heap verifier found problems. A = problem count.
  VerifierFailure,
};

/// One decoded ring entry (snapshot form).
struct FlightEvent {
  /// Global record number (0-based; monotone across the heap's lifetime).
  uint64_t Seq = 0;
  FlightEventKind Kind = FlightEventKind::ScavengeComplete;
  /// Allocation-clock timestamp.
  uint64_t Time = 0;
  uint64_t A = 0;
  uint64_t B = 0;
  uint64_t C = 0;
};

/// Renders one entry as a stable human-readable line body.
inline std::string describeFlightEvent(const FlightEvent &E) {
  switch (E.Kind) {
  case FlightEventKind::ScavengeComplete:
    return "scavenge #" + std::to_string(E.A) + ": traced " +
           std::to_string(E.B) + " reclaimed " + std::to_string(E.C) +
           " bytes";
  case FlightEventKind::SafepointRendezvous:
    return "safepoint-rendezvous: " + std::to_string(E.A) + " contexts, " +
           std::to_string(E.B) + " pending alloc bytes, straggler ctx " +
           std::to_string(E.C);
  case FlightEventKind::CycleBegin:
    return "incremental-cycle begin: tb=" + std::to_string(E.A);
  case FlightEventKind::Degradation:
    return std::string("degradation ") +
           degradationKindName(static_cast<DegradationKind>(E.A)) +
           ": resident " + std::to_string(E.B) + " bytes";
  case FlightEventKind::VerifierFailure:
    return "verifier failure: " + std::to_string(E.A) + " problem" +
           (E.A == 1 ? "" : "s");
  }
  return "unknown event";
}

/// The ring itself. See the file comment for the concurrency contract.
class FlightRecorder {
public:
  /// Retained events (power of two; older events are overwritten).
  static constexpr size_t Capacity = 128;
  /// Automatic dumps per heap before the recorder goes quiet (explicit
  /// dump() calls are never throttled).
  static constexpr unsigned AutoDumpLimit = 2;

  /// Appends one event. Lock-free; callable from any thread.
  void record(FlightEventKind Kind, uint64_t Time, uint64_t A = 0,
              uint64_t B = 0, uint64_t C = 0) {
    uint64_t Seq = Cursor.fetch_add(1, std::memory_order_relaxed);
    Slot &S = Slots[Seq & (Capacity - 1)];
    // Invalidate first so a concurrent snapshot never decodes a half-new
    // payload under an old sequence number.
    S.Seq.store(0, std::memory_order_relaxed);
    S.Kind.store(static_cast<uint8_t>(Kind), std::memory_order_relaxed);
    S.Time.store(Time, std::memory_order_relaxed);
    S.A.store(A, std::memory_order_relaxed);
    S.B.store(B, std::memory_order_relaxed);
    S.C.store(C, std::memory_order_relaxed);
    S.Seq.store(Seq + 1, std::memory_order_release);
  }

  /// Total events ever recorded (including overwritten ones).
  uint64_t recorded() const { return Cursor.load(std::memory_order_relaxed); }

  /// Decodes the retained tail, oldest first. Entries a concurrent writer
  /// is mid-overwrite on are skipped.
  std::vector<FlightEvent> snapshot() const {
    std::vector<FlightEvent> Out;
    uint64_t End = Cursor.load(std::memory_order_relaxed);
    uint64_t Count = End < Capacity ? End : Capacity;
    Out.reserve(static_cast<size_t>(Count));
    for (uint64_t Seq = End - Count; Seq != End; ++Seq) {
      const Slot &S = Slots[Seq & (Capacity - 1)];
      if (S.Seq.load(std::memory_order_acquire) != Seq + 1)
        continue; // Torn: the writer lapped this slot.
      FlightEvent E;
      E.Seq = Seq;
      E.Kind = static_cast<FlightEventKind>(
          S.Kind.load(std::memory_order_relaxed));
      E.Time = S.Time.load(std::memory_order_relaxed);
      E.A = S.A.load(std::memory_order_relaxed);
      E.B = S.B.load(std::memory_order_relaxed);
      E.C = S.C.load(std::memory_order_relaxed);
      Out.push_back(E);
    }
    return Out;
  }

  /// Prints the retained tail to \p Out (oldest first), one line per
  /// event. Never throttled.
  void dump(std::FILE *Out) const {
    std::vector<FlightEvent> Events = snapshot();
    std::fprintf(Out, "flight recorder: %llu event%s recorded, last %zu:\n",
                 static_cast<unsigned long long>(recorded()),
                 recorded() == 1 ? "" : "s", Events.size());
    for (const FlightEvent &E : Events)
      std::fprintf(Out, "  [%llu] t=%llu %s\n",
                   static_cast<unsigned long long>(E.Seq),
                   static_cast<unsigned long long>(E.Time),
                   describeFlightEvent(E).c_str());
  }

  /// Throttled dump for automatic triggers (ladder entry, watchdog,
  /// verifier failure): the first AutoDumpLimit calls dump with a header
  /// naming \p Why, later calls are silent. Returns true when it dumped.
  bool autoDump(std::FILE *Out, const char *Why) {
    if (AutoDumps.fetch_add(1, std::memory_order_relaxed) >= AutoDumpLimit)
      return false;
    std::fprintf(Out, "[flight-recorder] dump on %s\n", Why);
    dump(Out);
    return true;
  }

private:
  struct Slot {
    /// Seq + 1 of the record occupying this slot (0 = empty/mid-write).
    std::atomic<uint64_t> Seq{0};
    std::atomic<uint8_t> Kind{0};
    std::atomic<uint64_t> Time{0};
    std::atomic<uint64_t> A{0};
    std::atomic<uint64_t> B{0};
    std::atomic<uint64_t> C{0};
  };

  static_assert((Capacity & (Capacity - 1)) == 0,
                "ring indexing requires a power-of-two capacity");

  std::array<Slot, Capacity> Slots;
  std::atomic<uint64_t> Cursor{0};
  std::atomic<unsigned> AutoDumps{0};
};

} // namespace runtime
} // namespace dtb

#endif // DTB_RUNTIME_FLIGHTRECORDER_H
