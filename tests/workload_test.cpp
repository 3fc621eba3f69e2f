//===- tests/workload_test.cpp --------------------------------------------==//
//
// Tests for the synthetic workload generator: determinism, structural
// contracts (totals, phase composition), the registry, and lifetime-class
// behaviour.
//
//===----------------------------------------------------------------------===//

#include "workload/Workload.h"

#include "trace/TraceStats.h"

#include <gtest/gtest.h>

using namespace dtb;
using namespace dtb::workload;

namespace {

WorkloadSpec tinySpec() {
  WorkloadSpec Spec;
  Spec.Name = "tiny";
  Spec.DisplayName = "TINY";
  Spec.TotalAllocationBytes = 500'000;
  Spec.ProgramSeconds = 1.0;
  Spec.Seed = 42;
  Spec.Phases = {
      {1.0,
       {{0.9, LifetimeKind::Exponential, 5'000.0, 0.0},
        {0.1, LifetimeKind::Immortal, 0.0, 0.0}}},
  };
  return Spec;
}

} // namespace

TEST(WorkloadTest, DeterministicForSeed) {
  trace::Trace A = generateTrace(tinySpec());
  trace::Trace B = generateTrace(tinySpec());
  EXPECT_EQ(A.records(), B.records());
}

TEST(WorkloadTest, DifferentSeedsDiffer) {
  WorkloadSpec Spec = tinySpec();
  trace::Trace A = generateTrace(Spec);
  Spec.Seed = 43;
  trace::Trace B = generateTrace(Spec);
  EXPECT_NE(A.records(), B.records());
}

TEST(WorkloadTest, TotalAllocationLandsOnTarget) {
  trace::Trace T = generateTrace(tinySpec());
  // The generator overshoots by at most one object.
  EXPECT_GE(T.totalAllocated(), 500'000u);
  EXPECT_LT(T.totalAllocated(), 500'000u + 5'000u);
}

TEST(WorkloadTest, TraceIsWellFormed) {
  trace::Trace T = generateTrace(tinySpec());
  std::string Error;
  EXPECT_TRUE(T.verify(&Error)) << Error;
}

TEST(WorkloadTest, SizesRespectModelBounds) {
  WorkloadSpec Spec = tinySpec();
  Spec.Sizes.MinSize = 32;
  Spec.Sizes.MaxSize = 256;
  trace::Trace T = generateTrace(Spec);
  for (const trace::AllocationRecord &R : T.records()) {
    EXPECT_GE(R.Size, 32u);
    EXPECT_LE(R.Size, 256u);
  }
}

TEST(WorkloadTest, ImmortalWeightShowsUpAsLiveAtEnd) {
  trace::Trace T = generateTrace(tinySpec());
  trace::TraceStats S = trace::computeTraceStats(T);
  // ~10% of bytes are immortal plus a small short-lived residue.
  double ImmortalFraction =
      static_cast<double>(S.LiveAtEndBytes) /
      static_cast<double>(S.TotalAllocatedBytes);
  EXPECT_GT(ImmortalFraction, 0.07);
  EXPECT_LT(ImmortalFraction, 0.16);
}

TEST(WorkloadTest, UniformLifetimesStayInRange) {
  WorkloadSpec Spec = tinySpec();
  Spec.Phases = {
      {1.0, {{1.0, LifetimeKind::Uniform, 10'000.0, 20'000.0}}},
  };
  trace::Trace T = generateTrace(Spec);
  for (const trace::AllocationRecord &R : T.records()) {
    ASSERT_NE(R.Death, trace::NeverDies);
    uint64_t Lifetime = R.Death - R.Birth;
    EXPECT_GE(Lifetime, 10'000u);
    EXPECT_LE(Lifetime, 20'000u);
  }
}

TEST(WorkloadTest, PhasesPartitionTheClock) {
  // Two phases with disjoint behaviour: immortals only in the first half.
  WorkloadSpec Spec = tinySpec();
  Spec.Phases = {
      {0.5, {{1.0, LifetimeKind::Immortal, 0.0, 0.0}}},
      {0.5, {{1.0, LifetimeKind::Exponential, 100.0, 0.0}}},
  };
  trace::Trace T = generateTrace(Spec);
  uint64_t Half = 250'000;
  for (const trace::AllocationRecord &R : T.records()) {
    if (R.Birth <= Half) {
      EXPECT_EQ(R.Death, trace::NeverDies);
    } else if (R.Birth > Half + 5'000) { // Skip the boundary object.
      EXPECT_NE(R.Death, trace::NeverDies);
    }
  }
}

TEST(WorkloadRegistryTest, SixPaperWorkloads) {
  const std::vector<WorkloadSpec> &Specs = paperWorkloads();
  ASSERT_EQ(Specs.size(), 6u);
  EXPECT_EQ(Specs[0].Name, "ghost1");
  EXPECT_EQ(Specs[1].Name, "ghost2");
  EXPECT_EQ(Specs[2].Name, "espresso1");
  EXPECT_EQ(Specs[3].Name, "espresso2");
  EXPECT_EQ(Specs[4].Name, "sis");
  EXPECT_EQ(Specs[5].Name, "cfrac");
  for (const WorkloadSpec &Spec : Specs) {
    EXPECT_FALSE(Spec.DisplayName.empty());
    EXPECT_GT(Spec.TotalAllocationBytes, 0u);
    EXPECT_GT(Spec.ProgramSeconds, 0.0);
    double FractionSum = 0.0;
    for (const Phase &P : Spec.Phases)
      FractionSum += P.AllocFraction;
    EXPECT_NEAR(FractionSum, 1.0, 1e-9) << Spec.Name;
  }
}

TEST(WorkloadRegistryTest, FindByName) {
  EXPECT_NE(findWorkload("sis"), nullptr);
  EXPECT_EQ(findWorkload("sis")->DisplayName, "SIS");
  EXPECT_EQ(findWorkload("nope"), nullptr);
}

TEST(WorkloadRegistryTest, SteadyStateSpecIsUsable) {
  WorkloadSpec Spec = makeSteadyStateSpec(1'000'000, 7);
  trace::Trace T = generateTrace(Spec);
  EXPECT_TRUE(T.verify());
  EXPECT_GE(T.totalAllocated(), 1'000'000u);
}
