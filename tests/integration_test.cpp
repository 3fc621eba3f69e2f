//===- tests/integration_test.cpp -----------------------------------------==//
//
// End-to-end regression tests over the full paper grid: every qualitative
// claim of the paper's evaluation (§6) must hold in our reproduction. The
// grid (6 policies x 6 workloads with the paper's parameters) is computed
// once and shared across tests.
//
//===----------------------------------------------------------------------===//

#include "report/Experiments.h"
#include "report/PaperReference.h"

#include <gtest/gtest.h>

using namespace dtb;
using namespace dtb::report;

namespace {

const ExperimentGrid &paperGridOnce() {
  static const ExperimentGrid Grid = ExperimentGrid::paperGrid({});
  return Grid;
}

const sim::SimulationResult &cell(const std::string &Policy,
                                  const std::string &Workload) {
  return paperGridOnce().result(Policy, Workload);
}

const std::vector<std::string> AllWorkloads = {
    "ghost1", "ghost2", "espresso1", "espresso2", "sis", "cfrac"};

} // namespace

//===----------------------------------------------------------------------===//
// §6.1 Meeting the memory constraint
//===----------------------------------------------------------------------===//

TEST(IntegrationTest, FullHasLowestMemoryEverywhere) {
  for (const std::string &W : AllWorkloads) {
    double FullMean = cell("full", W).MemMeanBytes;
    for (const std::string &P : paperGridOnce().policyNames())
      EXPECT_GE(cell(P, W).MemMeanBytes, FullMean * 0.999) << P << "/" << W;
  }
}

TEST(IntegrationTest, FullHasHighestTracingCostEverywhere) {
  for (const std::string &W : AllWorkloads) {
    uint64_t FullTraced = cell("full", W).TotalTracedBytes;
    for (const std::string &P : paperGridOnce().policyNames())
      EXPECT_LE(cell(P, W).TotalTracedBytes, FullTraced) << P << "/" << W;
  }
}

TEST(IntegrationTest, Fixed1HasLowestTracingCostEverywhere) {
  for (const std::string &W : AllWorkloads) {
    uint64_t Fixed1Traced = cell("fixed1", W).TotalTracedBytes;
    for (const std::string &P : paperGridOnce().policyNames())
      EXPECT_GE(cell(P, W).TotalTracedBytes, Fixed1Traced) << P << "/" << W;
  }
}

TEST(IntegrationTest, Fixed4BetweenFullAndFixed1) {
  for (const std::string &W : AllWorkloads) {
    EXPECT_GE(cell("fixed4", W).MemMeanBytes,
              cell("full", W).MemMeanBytes * 0.999)
        << W;
    EXPECT_LE(cell("fixed4", W).MemMeanBytes,
              cell("fixed1", W).MemMeanBytes * 1.001)
        << W;
    EXPECT_LE(cell("fixed4", W).TotalTracedBytes,
              cell("full", W).TotalTracedBytes)
        << W;
    EXPECT_GE(cell("fixed4", W).TotalTracedBytes,
              cell("fixed1", W).TotalTracedBytes)
        << W;
  }
}

TEST(IntegrationTest, Fixed4EqualsFullOnGhostAndSis) {
  // Table 2: GHOST and SIS have no lifetimes between 4 MB and forever, so
  // FIXED4 accumulates no tenured garbage and matches FULL closely.
  for (const char *W : {"ghost1", "ghost2", "sis"}) {
    EXPECT_NEAR(cell("fixed4", W).MemMeanBytes,
                cell("full", W).MemMeanBytes,
                cell("full", W).MemMeanBytes * 0.02)
        << W;
  }
}

TEST(IntegrationTest, DtbMemRespectsFeasibleConstraint) {
  // 3000 KB is feasible for GHOST(1), ESPRESSO(1), ESPRESSO(2), CFRAC:
  // DTBMEM must keep max memory within the budget (small slack for the
  // approximate garbage model).
  for (const char *W : {"ghost1", "espresso1", "espresso2",
                               "cfrac"}) {
    EXPECT_LE(cell("dtbmem", W).MemMaxBytes, 3'000'000u * 101 / 100) << W;
  }
}

TEST(IntegrationTest, DtbMemOverConstraintDegradesTowardFull) {
  // SIS: even FULL needs ~7 MB. The paper: "a much over-constrained
  // DTBMEM degrades to the performance of the FULL algorithm" and its
  // memory comes within 7% of FULL's.
  EXPECT_LE(cell("dtbmem", "sis").MemMaxBytes,
            cell("full", "sis").MemMaxBytes * 107 / 100);
  // And its tracing cost rises toward FULL's (way above FIXED1's).
  EXPECT_GT(cell("dtbmem", "sis").TotalTracedBytes,
            cell("fixed1", "sis").TotalTracedBytes * 4);
}

TEST(IntegrationTest, DtbMemCpuNearFixed1WhenUnconstrained) {
  // Where 3000 KB is not binding, DTBMEM's CPU overhead is close to
  // FIXED1's (the paper's headline: FIXED1 speed with a memory bound).
  for (const char *W : {"ghost1", "espresso1", "cfrac"}) {
    EXPECT_LE(cell("dtbmem", W).TotalTracedBytes,
              cell("fixed1", W).TotalTracedBytes * 13 / 10)
        << W;
  }
}

//===----------------------------------------------------------------------===//
// §6.2 Meeting the pause-time constraint
//===----------------------------------------------------------------------===//

TEST(IntegrationTest, DtbFmMedianNearConstraint) {
  // The paper's 100 ms budget: DTBFM's median pause should zero in on it.
  // GHOST and ESPRESSO(2) have enough collections for the median to
  // settle.
  for (const char *W : {"ghost1", "ghost2", "espresso2"}) {
    double Median = cell("dtbfm", W).PauseMillis.median();
    EXPECT_GE(Median, 60.0) << W;
    EXPECT_LE(Median, 140.0) << W;
  }
}

TEST(IntegrationTest, DtbFmMedianAtLeastAsCloseAsFeedMedOnGhost) {
  for (const char *W : {"ghost1", "ghost2"}) {
    double DtbFm = cell("dtbfm", W).PauseMillis.median();
    double FeedMed = cell("feedmed", W).PauseMillis.median();
    EXPECT_LE(std::abs(DtbFm - 100.0), std::abs(FeedMed - 100.0) + 15.0)
        << W;
  }
}

TEST(IntegrationTest, DtbFmUsesNoMoreMemoryThanFeedMed) {
  // Moving the boundary back reclaims tenured garbage FEEDMED keeps.
  for (const std::string &W : AllWorkloads) {
    EXPECT_LE(cell("dtbfm", W).MemMeanBytes,
              cell("feedmed", W).MemMeanBytes * 1.02)
        << W;
  }
}

TEST(IntegrationTest, DtbFmMemorySavingsDramaticOnEspresso2) {
  // The paper calls ESPRESSO "an excellent illustration of the weakness
  // of the FEEDMED algorithm": FEEDMED cannot push the boundary back and
  // uses far more memory (1095 vs 695 KB mean).
  EXPECT_LT(cell("dtbfm", "espresso2").MemMeanBytes,
            cell("feedmed", "espresso2").MemMeanBytes * 0.75);
}

TEST(IntegrationTest, PolicyInsensitiveOnCfrac) {
  // CFRAC retains almost nothing; all collectors perform alike (Table 2:
  // 497-498 KB across the board).
  double FullMean = cell("full", "cfrac").MemMeanBytes;
  for (const std::string &P : paperGridOnce().policyNames())
    EXPECT_NEAR(cell(P, "cfrac").MemMeanBytes, FullMean, FullMean * 0.03)
        << P;
}

TEST(IntegrationTest, SisDominatedByPermanentData) {
  // SIS: LIVE is most of FULL's residency; collectors differ little in
  // memory (Table 2: 4524-4691).
  const trace::TraceStats &B = paperGridOnce().baseline("sis");
  EXPECT_GT(B.LiveMeanBytes, cell("full", "sis").MemMeanBytes * 0.85);
  EXPECT_LT(cell("fixed1", "sis").MemMeanBytes,
            cell("full", "sis").MemMeanBytes * 1.10);
}

//===----------------------------------------------------------------------===//
// Quantitative bands against the published tables
//===----------------------------------------------------------------------===//

TEST(IntegrationTest, FullRowTracksPaperWithinBand) {
  // FULL is the most mechanical row (no policy dynamics): our calibrated
  // traces should land within ~15% of the published memory numbers.
  for (const std::string &W : AllWorkloads) {
    auto Paper = paperCell("full", W);
    ASSERT_TRUE(Paper.has_value());
    double MeasuredKB = cell("full", W).MemMeanBytes / 1000.0;
    EXPECT_NEAR(MeasuredKB, Paper->MemMeanKB, Paper->MemMeanKB * 0.15)
        << W;
  }
}

TEST(IntegrationTest, ScavengeCountsMatchTriggerModel) {
  // Roughly one scavenge per MB of allocation (Table 6's collection
  // counts).
  for (const std::string &W : AllWorkloads) {
    const trace::TraceStats &B = paperGridOnce().baseline(W);
    uint64_t Expected = B.TotalAllocatedBytes / 1'000'000;
    EXPECT_NEAR(static_cast<double>(cell("full", W).NumScavenges),
                static_cast<double>(Expected), 1.5)
        << W;
  }
}
