//===- telemetry/Telemetry.h - Events, recorder, timing scopes -*- C++ -*-===//
//
// Part of the dtbgc project (Barrett & Zorn DTB reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The telemetry event layer: structured events on logical timelines, a
/// process-wide recorder with a null-sink fast path, and RAII timing
/// scopes. The paper's argument is about *distributions* — median pause
/// near Trace_max, maximum memory near Mem_max — so the runtime and the
/// simulator emit one span per scavenge plus instant events for boundary
/// decisions and degradation rungs, and exporters (telemetry/Export.h)
/// reduce the stream to Chrome-trace JSON, CSV, or summary tables.
///
/// Determinism: events are keyed by a *track* (one logical timeline, e.g.
/// "sim/GHOST(1)/dtbfm" or "heap#1") and a logical scavenge index, and
/// timestamps are allocation-clock bytes with machine-model pause
/// durations — never wall time. Export sorts by (track, index, emission
/// order within track), so output is bit-identical for any --threads
/// value. Wall-clock measurements (TelemetrySpan) go to the metrics
/// registry only, under a "wall." name prefix that exporters skip unless
/// explicitly asked.
///
/// Overhead: telemetry is always compiled in. Instrumentation sites guard
/// on telemetry::enabled(), a single relaxed atomic load, so a disabled
/// recorder costs one load and a not-taken branch per site.
///
//===----------------------------------------------------------------------===//

#ifndef DTBGC_TELEMETRY_TELEMETRY_H
#define DTBGC_TELEMETRY_TELEMETRY_H

#include "telemetry/Metrics.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace dtb {
namespace telemetry {

/// One key/value annotation on an event. Values are stored pre-rendered;
/// IsString distinguishes JSON strings from bare numbers at export time.
struct EventArg {
  std::string Key;
  std::string Value;
  bool IsString = false;
};

EventArg arg(std::string Key, uint64_t Value);
EventArg arg(std::string Key, int64_t Value);
EventArg arg(std::string Key, double Value);
EventArg arg(std::string Key, std::string Value);

/// Event phases, matching the Chrome trace-event phases they export to.
enum class EventPhase : char {
  /// A duration span ('X'): has a logical timestamp and a duration.
  Span = 'X',
  /// An instant event ('i'): a point annotation (TB decision, degradation
  /// rung).
  Instant = 'i',
  /// A counter sample ('C'): one numeric series point per argument.
  Counter = 'C',
};

/// One telemetry event on a logical timeline.
struct Event {
  EventPhase Phase = EventPhase::Instant;
  /// The timeline this event belongs to; exported as a named Chrome-trace
  /// thread. Events on one track must be emitted in deterministic order.
  std::string Track;
  std::string Name;
  /// Logical ordering key: the 1-based scavenge index (0 for events not
  /// tied to a scavenge).
  uint64_t ScavengeIndex = 0;
  /// Logical timestamp: the allocation clock (bytes), exported as
  /// microseconds.
  uint64_t TsClock = 0;
  /// Span duration in machine-model milliseconds (spans only).
  double DurMillis = 0.0;
  std::vector<EventArg> Args;
  /// Global emission sequence, assigned by the buffer; used only to keep
  /// same-track events in emission order when sorting for export.
  uint64_t Seq = 0;
};

/// A thread-safe accumulating buffer: where the recorder puts every event
/// while telemetry is enabled.
class EventBuffer {
public:
  void emit(Event E);

  /// Copies the events sorted for export: by track, then scavenge index,
  /// then emission order. The result is independent of how concurrently
  /// emitting tracks interleaved.
  std::vector<Event> sorted() const;

  size_t size() const;
  void clear();

private:
  mutable std::mutex Mutex;
  std::vector<Event> Events;
  uint64_t NextSeq = 0;
};

/// The process-wide recorder: a null-sink check plus an EventBuffer.
/// Disabled by default; TelemetryCli::TelemetrySession (or a test) enables
/// it for a scope.
class Recorder {
public:
  /// Starts recording into the internal buffer (cleared first).
  void enable();
  void disable();

  /// Routes one event to the buffer; callers must check enabled() first
  /// (emit on a disabled recorder is a no-op).
  void emit(Event E);

  EventBuffer &buffer() { return Buffer; }

  /// When set, wall-clock-derived values may be exported (they are always
  /// *recorded* under the "wall." metric prefix; this only affects
  /// exporters).
  bool wallClockExport() const {
    return WallClock.load(std::memory_order_relaxed);
  }
  void setWallClockExport(bool On) {
    WallClock.store(On, std::memory_order_relaxed);
  }

private:
  std::atomic<bool> WallClock{false};
  EventBuffer Buffer;
};

Recorder &recorder();

namespace detail {
/// Storage for enabled(). Constant-initialized (no static-init guard) and
/// written only by Recorder::enable/disable, so the enabled() fast path is
/// a single relaxed load of a global — no function call, no guard check.
extern std::atomic<bool> RecorderEnabled;
} // namespace detail

/// Whether any telemetry should be recorded right now. Instrumentation
/// sites guard on this.
inline bool enabled() {
  return detail::RecorderEnabled.load(std::memory_order_relaxed);
}

/// A small dense id for the calling thread (0 for the first thread that
/// asks, then 1, 2, ...). Stable for the thread's lifetime.
unsigned threadId();

/// RAII wall-clock timing scope. On destruction (when telemetry is
/// enabled) records the elapsed nanoseconds into the global registry
/// histogram named "wall.<name>_ns". When wall-clock export is opted into
/// (--telemetry-wallclock) it additionally emits a span on the
/// "wall/thread-<tid>" track carrying the emitting thread's id, so
/// Perfetto shows real latencies per thread; by default wall values never
/// enter the event stream, keeping exports deterministic (see the file
/// comment).
class TelemetrySpan {
public:
  explicit TelemetrySpan(const char *Name);
  ~TelemetrySpan();

  TelemetrySpan(const TelemetrySpan &) = delete;
  TelemetrySpan &operator=(const TelemetrySpan &) = delete;

private:
  const char *Name;
  bool Armed;
  std::chrono::steady_clock::time_point Start;
};

} // namespace telemetry
} // namespace dtb

#endif // DTBGC_TELEMETRY_TELEMETRY_H
