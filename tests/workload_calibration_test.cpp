//===- tests/workload_calibration_test.cpp --------------------------------==//
//
// Calibration bands: each synthetic workload must match the paper's
// published LIVE and No-GC statistics (Table 2 baselines) within
// tolerance. These tests pin the traces the whole evaluation depends on —
// a drive-by change to a mixture constant that drifts a workload away
// from the paper fails here, not silently in the benchmark output.
//
//===----------------------------------------------------------------------===//

#include "workload/Workload.h"

#include "report/PaperReference.h"
#include "trace/TraceStats.h"

#include "TestSeeds.h"
#include <gtest/gtest.h>

#include <ostream>

using namespace dtb;
using namespace dtb::workload;

namespace {

/// The workload with its generator seed swapped for the DTB_TEST_SEED
/// override (when set), and the effective seed attached to any failure —
/// same replay plumbing as the chaos/parallel tests. The bands must hold
/// for any seed, not just the calibrated default, so a sweep is just
/// DTB_TEST_SEED=N ctest -R Calibration.
WorkloadSpec seededSpec(const WorkloadSpec &Spec) {
  WorkloadSpec Out = Spec;
  Out.Seed = test::effectiveSeed(Spec.Seed);
  return Out;
}

struct Band {
  const char *Name;
  /// Relative tolerances for live mean and live max.
  double LiveMeanTolerance;
  double LiveMaxTolerance;
};

/// Tolerances are tight where the mixture directly controls the value and
/// looser where the paper's own numbers reflect instruction-time
/// weighting we deliberately do not model (see DESIGN.md).
constexpr Band Bands[] = {
    {"ghost1", 0.12, 0.15},   {"ghost2", 0.12, 0.15},
    {"espresso1", 0.15, 0.25}, {"espresso2", 0.15, 0.25},
    {"sis", 0.12, 0.12},      {"cfrac", 0.5, 0.5},
};

/// Prints the param for gtest, which puts the print in each ctest name.
/// The default print is the struct's raw bytes, which include the
/// randomized address of Name and so change at every test discovery.
void PrintTo(const Band &B, std::ostream *OS) {
  *OS << B.Name << " (tolerance: live mean " << B.LiveMeanTolerance
      << ", live max " << B.LiveMaxTolerance << ")";
}

class CalibrationTest : public testing::TestWithParam<Band> {};

} // namespace

TEST_P(CalibrationTest, LiveProfileWithinBand) {
  const Band &B = GetParam();
  const WorkloadSpec *Found = findWorkload(B.Name);
  ASSERT_NE(Found, nullptr);
  WorkloadSpec Spec = seededSpec(*Found);
  DTB_SCOPED_SEED_TRACE(Spec.Seed);
  auto Paper = report::paperBaseline(B.Name);
  ASSERT_TRUE(Paper.has_value());

  trace::TraceStats S = trace::computeTraceStats(generateTrace(Spec));
  double LiveMeanKB = S.LiveMeanBytes / 1000.0;
  double LiveMaxKB = static_cast<double>(S.LiveMaxBytes) / 1000.0;

  EXPECT_NEAR(LiveMeanKB, Paper->LiveMeanKB,
              Paper->LiveMeanKB * B.LiveMeanTolerance)
      << B.Name << " live mean";
  EXPECT_NEAR(LiveMaxKB, Paper->LiveMaxKB,
              Paper->LiveMaxKB * B.LiveMaxTolerance)
      << B.Name << " live max";
}

TEST_P(CalibrationTest, TotalAllocationMatchesNoGcMax) {
  const Band &B = GetParam();
  const WorkloadSpec *Found = findWorkload(B.Name);
  ASSERT_NE(Found, nullptr);
  WorkloadSpec Spec = seededSpec(*Found);
  DTB_SCOPED_SEED_TRACE(Spec.Seed);
  auto Paper = report::paperBaseline(B.Name);
  trace::TraceStats S = trace::computeTraceStats(generateTrace(Spec));
  // The No-GC maximum is the total allocation; within 3%.
  double TotalKB = static_cast<double>(S.TotalAllocatedBytes) / 1000.0;
  EXPECT_NEAR(TotalKB, Paper->NoGcMaxKB, Paper->NoGcMaxKB * 0.03) << B.Name;
}

INSTANTIATE_TEST_SUITE_P(PaperWorkloads, CalibrationTest,
                         testing::ValuesIn(Bands),
                         [](const testing::TestParamInfo<Band> &Info) {
                           return std::string(Info.param.Name);
                         });
