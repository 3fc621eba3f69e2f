//===- telemetry/Telemetry.cpp --------------------------------------------==//

#include "telemetry/Telemetry.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

using namespace dtb;
using namespace dtb::telemetry;

//===----------------------------------------------------------------------===//
// Event args
//===----------------------------------------------------------------------===//

EventArg dtb::telemetry::arg(std::string Key, uint64_t Value) {
  return {std::move(Key), std::to_string(Value), /*IsString=*/false};
}

EventArg dtb::telemetry::arg(std::string Key, int64_t Value) {
  return {std::move(Key), std::to_string(Value), /*IsString=*/false};
}

EventArg dtb::telemetry::arg(std::string Key, double Value) {
  char Text[64];
  // %.17g round-trips any double; trim to the shortest representation that
  // still reads back exactly for stable, compact output.
  for (int Precision = 6; Precision <= 17; ++Precision) {
    std::snprintf(Text, sizeof(Text), "%.*g", Precision, Value);
    double Parsed = 0.0;
    std::sscanf(Text, "%lf", &Parsed);
    if (Parsed == Value)
      break;
  }
  return {std::move(Key), Text, /*IsString=*/false};
}

EventArg dtb::telemetry::arg(std::string Key, std::string Value) {
  return {std::move(Key), std::move(Value), /*IsString=*/true};
}

//===----------------------------------------------------------------------===//
// EventBuffer
//===----------------------------------------------------------------------===//

void EventBuffer::emit(Event E) {
  std::lock_guard<std::mutex> Lock(Mutex);
  E.Seq = NextSeq++;
  Events.push_back(std::move(E));
}

std::vector<Event> EventBuffer::sorted() const {
  std::vector<Event> Copy;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Copy = Events;
  }
  // Track first, then logical scavenge index, then emission order. Within
  // one track events are emitted by one deterministic computation, so Seq
  // (whose absolute values vary with thread interleaving) only breaks ties
  // *within* a track, where relative order is deterministic.
  std::sort(Copy.begin(), Copy.end(), [](const Event &A, const Event &B) {
    if (A.Track != B.Track)
      return A.Track < B.Track;
    if (A.ScavengeIndex != B.ScavengeIndex)
      return A.ScavengeIndex < B.ScavengeIndex;
    return A.Seq < B.Seq;
  });
  return Copy;
}

size_t EventBuffer::size() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Events.size();
}

void EventBuffer::clear() {
  std::lock_guard<std::mutex> Lock(Mutex);
  Events.clear();
  NextSeq = 0;
}

//===----------------------------------------------------------------------===//
// Recorder
//===----------------------------------------------------------------------===//

std::atomic<bool> dtb::telemetry::detail::RecorderEnabled{false};

Recorder &dtb::telemetry::recorder() {
  static Recorder R;
  return R;
}

void Recorder::enable() {
  Buffer.clear();
  detail::RecorderEnabled.store(true, std::memory_order_relaxed);
}

void Recorder::disable() {
  detail::RecorderEnabled.store(false, std::memory_order_relaxed);
}

void Recorder::emit(Event E) {
  if (!enabled())
    return;
  Buffer.emit(std::move(E));
}

unsigned dtb::telemetry::threadId() {
  static std::atomic<unsigned> NextId{0};
  thread_local unsigned Id = NextId.fetch_add(1, std::memory_order_relaxed);
  return Id;
}

//===----------------------------------------------------------------------===//
// TelemetrySpan
//===----------------------------------------------------------------------===//

TelemetrySpan::TelemetrySpan(const char *Name)
    : Name(Name), Armed(enabled()) {
  if (Armed)
    Start = std::chrono::steady_clock::now();
}

TelemetrySpan::~TelemetrySpan() {
  if (!Armed || !enabled())
    return;
  auto End = std::chrono::steady_clock::now();
  auto Ns = std::chrono::duration_cast<std::chrono::nanoseconds>(End - Start)
                .count();
  auto NsU = static_cast<uint64_t>(Ns < 0 ? 0 : Ns);
  MetricsRegistry::global()
      .histogram(std::string("wall.") + Name + "_ns")
      .record(static_cast<double>(NsU));
  if (recorder().wallClockExport()) {
    Event E;
    E.Phase = EventPhase::Span;
    E.Track = "wall/thread-" + std::to_string(threadId());
    E.Name = Name;
    E.TsClock = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            Start.time_since_epoch())
            .count());
    E.DurMillis = static_cast<double>(NsU) / 1.0e6;
    E.Args.push_back(arg("tid", static_cast<uint64_t>(threadId())));
    recorder().emit(std::move(E));
  }
}
