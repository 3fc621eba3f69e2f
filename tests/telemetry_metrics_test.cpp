//===- tests/telemetry_metrics_test.cpp - Registry and histogram tests ---===//
//
// Part of the dtbgc project (Barrett & Zorn DTB reproduction).
//
// The metrics registry: stable references, thread-safe registration and
// increments, histogram quantile accuracy against exact sorting, and the
// disabled-mode guarantees of the recorder.
//
//===----------------------------------------------------------------------===//

#include "telemetry/Telemetry.h"

#include "support/Random.h"
#include "support/Statistics.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

using namespace dtb;
namespace tel = dtb::telemetry;

namespace {

TEST(MetricsRegistry, CountersAndGaugesRoundTrip) {
  tel::MetricsRegistry Registry;
  tel::Counter &C = Registry.counter("c");
  C.add(3);
  C.add();
  EXPECT_EQ(C.value(), 4u);
  EXPECT_EQ(&Registry.counter("c"), &C); // Same instrument on re-lookup.
  EXPECT_EQ(Registry.size(), 1u);

  std::vector<tel::MetricSample> Snap = Registry.snapshot();
  ASSERT_EQ(Snap.size(), 1u);
  EXPECT_EQ(Snap[0].Name, "c");
  EXPECT_DOUBLE_EQ(Snap[0].Value, 4.0);

  Registry.reset();
  EXPECT_EQ(C.value(), 0u);       // Registrations survive reset...
  EXPECT_EQ(Registry.size(), 1u); // ...so cached references stay valid.
}

TEST(MetricsRegistry, SnapshotSortedByName) {
  tel::MetricsRegistry Registry;
  Registry.counter("z");
  Registry.histogram("m").record(1.0);
  Registry.counter("a");
  std::vector<tel::MetricSample> Snap = Registry.snapshot();
  ASSERT_EQ(Snap.size(), 3u);
  EXPECT_EQ(Snap[0].Name, "a");
  EXPECT_EQ(Snap[1].Name, "m");
  EXPECT_EQ(Snap[2].Name, "z");
}

TEST(MetricsRegistry, ConcurrentIncrementsUnderThreadPool) {
  tel::MetricsRegistry Registry;
  constexpr size_t Tasks = 64;
  constexpr uint64_t PerTask = 10'000;
  ThreadPool Pool(4);
  // Registration races (every task looks the instruments up) and counted
  // increments from all pool workers.
  parallelFor(
      Tasks,
      [&](size_t I) {
        tel::Counter &C = Registry.counter("shared");
        tel::LogHistogram &H = Registry.histogram("hist");
        for (uint64_t K = 0; K != PerTask; ++K)
          C.add(1);
        H.record(static_cast<double>(I + 1));
      },
      &Pool);
  EXPECT_EQ(Registry.counter("shared").value(), Tasks * PerTask);
  EXPECT_EQ(Registry.histogram("hist").count(), Tasks);
  EXPECT_DOUBLE_EQ(Registry.histogram("hist").min(), 1.0);
  EXPECT_DOUBLE_EQ(Registry.histogram("hist").max(),
                   static_cast<double>(Tasks));
}

TEST(LogHistogram, QuantilesTrackExactSortWithinRelativeError) {
  tel::LogHistogram H;
  SampleSet Exact;
  Rng R(20260806);
  for (int I = 0; I != 5'000; ++I) {
    // Span several orders of magnitude, like pause times do.
    double X = std::exp(R.nextDouble() * 10.0); // [1, e^10).
    H.record(X);
    Exact.add(X);
  }
  double Tolerance = H.bucketing().relativeError();
  for (double Q : {0.0, 0.1, 0.5, 0.9, 0.99, 1.0}) {
    double Approx = H.quantile(Q);
    double Truth = Exact.quantile(Q);
    EXPECT_NEAR(Approx, Truth, Truth * 2.0 * Tolerance)
        << "quantile " << Q;
  }
  EXPECT_DOUBLE_EQ(H.min(), Exact.quantile(0.0)); // Extremes are exact.
  EXPECT_DOUBLE_EQ(H.max(), Exact.quantile(1.0));
  EXPECT_NEAR(H.sum(), Exact.sum(), Exact.sum() * 1e-9);
}

TEST(LogHistogram, SingleSampleQuantilesAllReturnIt) {
  tel::LogHistogram H;
  H.record(42.0);
  double Mid = H.quantile(0.5);
  // p0, p50, p100 on one sample must agree (the nearest-rank clamp), and
  // land within the holding bucket's width of the sample.
  EXPECT_DOUBLE_EQ(H.quantile(0.0), Mid);
  EXPECT_DOUBLE_EQ(H.quantile(1.0), Mid);
  EXPECT_NEAR(Mid, 42.0, 42.0 * 2.0 * H.bucketing().relativeError());
}

TEST(Recorder, DisabledRecorderDropsEvents) {
  tel::Recorder &R = tel::recorder();
  R.disable();
  R.buffer().clear();
  EXPECT_FALSE(tel::enabled());
  tel::Event E;
  E.Track = "t";
  E.Name = "dropped";
  R.emit(std::move(E));
  EXPECT_EQ(R.buffer().size(), 0u);
}

TEST(Recorder, EnableClearsAndRecords) {
  tel::Recorder &R = tel::recorder();
  R.enable();
  EXPECT_TRUE(tel::enabled());
  tel::Event E;
  E.Track = "t";
  E.Name = "kept";
  R.emit(std::move(E));
  EXPECT_EQ(R.buffer().size(), 1u);
  R.disable();
  R.buffer().clear();
}

TEST(Recorder, SortedOrderIsTrackThenIndexThenSeq) {
  tel::Recorder &R = tel::recorder();
  R.enable();
  auto emit = [&](const char *Track, uint64_t Index, const char *Name) {
    tel::Event E;
    E.Track = Track;
    E.ScavengeIndex = Index;
    E.Name = Name;
    R.emit(std::move(E));
  };
  // Emission order deliberately interleaves tracks and indexes.
  emit("b", 2, "b2");
  emit("a", 1, "a1-first");
  emit("b", 1, "b1");
  emit("a", 1, "a1-second");
  std::vector<tel::Event> Sorted = R.buffer().sorted();
  ASSERT_EQ(Sorted.size(), 4u);
  EXPECT_EQ(Sorted[0].Name, "a1-first");
  EXPECT_EQ(Sorted[1].Name, "a1-second"); // Seq breaks the tie in order.
  EXPECT_EQ(Sorted[2].Name, "b1");
  EXPECT_EQ(Sorted[3].Name, "b2");
  R.disable();
  R.buffer().clear();
}

TEST(TelemetrySpan, RecordsWallHistogramOnlyWhenEnabled) {
  tel::Recorder &R = tel::recorder();
  R.disable();
  uint64_t Before =
      tel::MetricsRegistry::global().histogram("wall.span_probe_ns").count();
  { tel::TelemetrySpan Span("span_probe"); }
  EXPECT_EQ(
      tel::MetricsRegistry::global().histogram("wall.span_probe_ns").count(),
      Before);
  R.enable();
  { tel::TelemetrySpan Span("span_probe"); }
  EXPECT_EQ(
      tel::MetricsRegistry::global().histogram("wall.span_probe_ns").count(),
      Before + 1);
  R.disable();
  R.buffer().clear();
}

} // namespace
