//===- telemetry/Metrics.h - Process-wide metrics registry -----*- C++ -*-===//
//
// Part of the dtbgc project (Barrett & Zorn DTB reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A process-wide registry of named counters and log-bucketed histograms. Registration (name -> instrument lookup) is mutex-guarded;
/// the recording fast path is lock-free (relaxed atomics), so instrumented
/// code caches the returned reference and updates it from any thread.
///
/// The histogram delegates all bucket/quantile math to support/Statistics
/// (LogBucketing, quantileFromBucketCounts): the registry only adds atomic
/// storage on top of the shared implementation.
///
/// Values recorded here are aggregates (sums, distributions) and therefore
/// deterministic for a deterministic workload regardless of the thread
/// count; snapshot() returns instruments sorted by name so exported output
/// does not depend on registration order.
///
//===----------------------------------------------------------------------===//

#ifndef DTBGC_TELEMETRY_METRICS_H
#define DTBGC_TELEMETRY_METRICS_H

#include "support/Statistics.h"

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace dtb {
namespace telemetry {

/// A monotonically increasing event count.
class Counter {
public:
  void add(uint64_t N = 1) { Value.fetch_add(N, std::memory_order_relaxed); }
  uint64_t value() const { return Value.load(std::memory_order_relaxed); }
  void reset() { Value.store(0, std::memory_order_relaxed); }

private:
  std::atomic<uint64_t> Value{0};
};

/// A log-bucketed histogram with atomic buckets: record() is lock-free and
/// wait-free except for the min/max CAS loops. Quantiles are approximate
/// with relative error bounded by bucketing().relativeError(); count, sum,
/// min, and max are exact.
class LogHistogram {
public:
  explicit LogHistogram(LogBucketing Bucketing = LogBucketing());

  void record(double X);

  uint64_t count() const { return Count.load(std::memory_order_relaxed); }
  double sum() const { return Sum.load(std::memory_order_relaxed); }
  double mean() const;
  /// Exact extremes (0 when empty).
  double min() const;
  double max() const;
  /// Nearest-rank quantile over the bucketed counts (midpoint of the
  /// holding bucket) via support/Statistics.
  double quantile(double Q) const;

  const LogBucketing &bucketing() const { return Bucketing; }
  uint64_t bucketValue(size_t I) const {
    return Buckets[I].load(std::memory_order_relaxed);
  }

  void reset();

private:
  LogBucketing Bucketing;
  std::deque<std::atomic<uint64_t>> Buckets; // deque: atomics are immovable.
  std::atomic<uint64_t> Count{0};
  std::atomic<double> Sum{0.0};
  std::atomic<double> Min;
  std::atomic<double> Max;
};

/// One instrument's state, copied out by MetricsRegistry::snapshot().
struct MetricSample {
  enum class Kind { Counter, Histogram };
  Kind InstrumentKind = Kind::Counter;
  std::string Name;
  /// Counter total (Counter only).
  double Value = 0.0;
  /// Histogram aggregates (Histogram only).
  uint64_t Count = 0;
  double Sum = 0.0;
  double Min = 0.0;
  double Max = 0.0;
  double P50 = 0.0;
  double P90 = 0.0;
  double P99 = 0.0;
};

/// Thread-safe name -> instrument registry. Instruments are never removed,
/// so returned references stay valid for the registry's lifetime; repeated
/// lookups of the same name return the same instrument.
class MetricsRegistry {
public:
  /// The process-wide registry used by all built-in instrumentation.
  static MetricsRegistry &global();

  Counter &counter(const std::string &Name);
  /// \p Bucketing is applied only on first registration of \p Name.
  LogHistogram &histogram(const std::string &Name,
                          LogBucketing Bucketing = LogBucketing());

  /// Copies every instrument's current state, sorted by name.
  std::vector<MetricSample> snapshot() const;

  /// Zeroes every instrument (registrations are kept so cached references
  /// stay valid).
  void reset();

  size_t size() const;

private:
  mutable std::mutex Mutex;
  // Node-stable containers: references survive later registrations.
  std::map<std::string, Counter> Counters;
  std::map<std::string, LogHistogram> Histograms;
};

} // namespace telemetry
} // namespace dtb

#endif // DTBGC_TELEMETRY_METRICS_H
