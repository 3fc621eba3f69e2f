//===- telemetry/Metrics.cpp ----------------------------------------------==//

#include "telemetry/Metrics.h"

#include <algorithm>
#include <limits>

using namespace dtb;
using namespace dtb::telemetry;

LogHistogram::LogHistogram(LogBucketing Bucketing)
    : Bucketing(Bucketing), Buckets(Bucketing.numBuckets()),
      Min(std::numeric_limits<double>::infinity()),
      Max(-std::numeric_limits<double>::infinity()) {}

void LogHistogram::record(double X) {
  Buckets[Bucketing.bucketFor(X)].fetch_add(1, std::memory_order_relaxed);
  Count.fetch_add(1, std::memory_order_relaxed);
  Sum.fetch_add(X, std::memory_order_relaxed);
  double Seen = Min.load(std::memory_order_relaxed);
  while (X < Seen &&
         !Min.compare_exchange_weak(Seen, X, std::memory_order_relaxed)) {
  }
  Seen = Max.load(std::memory_order_relaxed);
  while (X > Seen &&
         !Max.compare_exchange_weak(Seen, X, std::memory_order_relaxed)) {
  }
}

double LogHistogram::mean() const {
  uint64_t N = count();
  return N == 0 ? 0.0 : sum() / static_cast<double>(N);
}

double LogHistogram::min() const {
  return count() == 0 ? 0.0 : Min.load(std::memory_order_relaxed);
}

double LogHistogram::max() const {
  return count() == 0 ? 0.0 : Max.load(std::memory_order_relaxed);
}

double LogHistogram::quantile(double Q) const {
  // Copy the buckets once so the shared quantile walk sees a consistent
  // (if slightly stale) view under concurrent recording.
  std::vector<uint64_t> Copy(Bucketing.numBuckets());
  uint64_t Total = 0;
  for (size_t I = 0, E = Copy.size(); I != E; ++I) {
    Copy[I] = Buckets[I].load(std::memory_order_relaxed);
    Total += Copy[I];
  }
  return quantileFromBucketCounts(Bucketing, Copy.data(), Total, Q);
}

void LogHistogram::reset() {
  for (auto &B : Buckets)
    B.store(0, std::memory_order_relaxed);
  Count.store(0, std::memory_order_relaxed);
  Sum.store(0.0, std::memory_order_relaxed);
  Min.store(std::numeric_limits<double>::infinity(),
            std::memory_order_relaxed);
  Max.store(-std::numeric_limits<double>::infinity(),
            std::memory_order_relaxed);
}

MetricsRegistry &MetricsRegistry::global() {
  static MetricsRegistry Registry;
  return Registry;
}

Counter &MetricsRegistry::counter(const std::string &Name) {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Counters[Name];
}

LogHistogram &MetricsRegistry::histogram(const std::string &Name,
                                         LogBucketing Bucketing) {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Histograms.try_emplace(Name, Bucketing).first->second;
}

std::vector<MetricSample> MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::vector<MetricSample> Samples;
  Samples.reserve(Counters.size() + Histograms.size());
  for (const auto &[Name, C] : Counters) {
    MetricSample S;
    S.InstrumentKind = MetricSample::Kind::Counter;
    S.Name = Name;
    S.Value = static_cast<double>(C.value());
    Samples.push_back(std::move(S));
  }
  for (const auto &[Name, H] : Histograms) {
    MetricSample S;
    S.InstrumentKind = MetricSample::Kind::Histogram;
    S.Name = Name;
    S.Count = H.count();
    S.Sum = H.sum();
    S.Min = H.min();
    S.Max = H.max();
    S.P50 = H.quantile(0.5);
    S.P90 = H.quantile(0.9);
    S.P99 = H.quantile(0.99);
    Samples.push_back(std::move(S));
  }
  // The two maps are each name-sorted; a final merge-sort by name gives
  // one stable, registration-order-independent listing.
  std::sort(Samples.begin(), Samples.end(),
            [](const MetricSample &A, const MetricSample &B) {
              return A.Name < B.Name;
            });
  return Samples;
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> Lock(Mutex);
  for (auto &Entry : Counters)
    Entry.second.reset();
  for (auto &Entry : Histograms)
    Entry.second.reset();
}

size_t MetricsRegistry::size() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Counters.size() + Histograms.size();
}
