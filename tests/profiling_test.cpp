//===- tests/profiling_test.cpp - Scoped phase profiler -------------------===//
//
// The phase profiler's accounting invariants: nested phases attribute cost
// to self vs. total correctly (self excludes children, total includes
// them), the per-scavenge tree records the nesting, disabled profilers are
// no-ops, merges fold deterministically, and the runtime heap reports
// through the shared taxonomy.
//
//===----------------------------------------------------------------------===//

#include "core/Policies.h"
#include "profiling/Profiler.h"
#include "report/GhostMutator.h"
#include "runtime/Heap.h"

#include <gtest/gtest.h>

using namespace dtb;
using namespace dtb::profiling;

namespace {

/// One synthetic scavenge: root(10) { child(5) { grand(2) } sibling(7) }.
void recordSyntheticScavenge(PhaseProfiler &Profiler) {
  {
    ProfilePhase Root(&Profiler, phase::Trace);
    Root.addCost(10);
    {
      ProfilePhase Child(&Profiler, phase::RemSetScan);
      Child.addCost(5);
      ProfilePhase Grand(&Profiler, phase::Promote);
      Grand.addCost(2);
    }
    ProfilePhase Sibling(&Profiler, phase::Sweep);
    Sibling.addCost(7);
  }
  Profiler.finishScavenge();
}

const PhaseAggregate &aggregate(const PhaseProfiler &Profiler,
                                const char *Name) {
  auto It = Profiler.aggregates().find(Name);
  EXPECT_NE(It, Profiler.aggregates().end()) << Name;
  static const PhaseAggregate Empty;
  return It == Profiler.aggregates().end() ? Empty : It->second;
}

} // namespace

TEST(PhaseProfilerTest, SelfVsTotalAccounting) {
  PhaseProfiler Profiler;
  Profiler.setEnabled(true);
  ASSERT_TRUE(Profiler.active());
  recordSyntheticScavenge(Profiler);

  // Self costs are exactly what each scope charged.
  EXPECT_EQ(aggregate(Profiler, phase::Trace).SelfCost, 10u);
  EXPECT_EQ(aggregate(Profiler, phase::RemSetScan).SelfCost, 5u);
  EXPECT_EQ(aggregate(Profiler, phase::Promote).SelfCost, 2u);
  EXPECT_EQ(aggregate(Profiler, phase::Sweep).SelfCost, 7u);

  // Totals include enclosed children: remset_scan = 5 + 2, the root trace
  // = 10 + 7 (remset_scan + promote) + 7 (sweep).
  EXPECT_EQ(aggregate(Profiler, phase::RemSetScan).TotalCost, 7u);
  EXPECT_EQ(aggregate(Profiler, phase::Promote).TotalCost, 2u);
  EXPECT_EQ(aggregate(Profiler, phase::Sweep).TotalCost, 7u);
  EXPECT_EQ(aggregate(Profiler, phase::Trace).TotalCost, 24u);

  // Each phase entered once, with one self-cost sample apiece.
  for (const auto &[Name, Agg] : Profiler.aggregates()) {
    EXPECT_EQ(Agg.Count, 1u) << Name;
    EXPECT_EQ(Agg.SelfCostSamples.size(), 1u) << Name;
    EXPECT_EQ(Agg.SelfCostSamples.median(),
              static_cast<double>(Agg.SelfCost))
        << Name;
  }
}

TEST(PhaseProfilerTest, TreeRecordsNesting) {
  PhaseProfiler Profiler;
  Profiler.setEnabled(true);
  recordSyntheticScavenge(Profiler);

  // Pre-order: trace, remset_scan, promote, sweep.
  const std::vector<PhaseTreeNode> &Tree = Profiler.lastTree();
  ASSERT_EQ(Tree.size(), 4u);
  EXPECT_STREQ(Tree[0].Name, phase::Trace);
  EXPECT_EQ(Tree[0].Parent, -1);
  EXPECT_STREQ(Tree[1].Name, phase::RemSetScan);
  EXPECT_EQ(Tree[1].Parent, 0);
  EXPECT_STREQ(Tree[2].Name, phase::Promote);
  EXPECT_EQ(Tree[2].Parent, 1);
  EXPECT_STREQ(Tree[3].Name, phase::Sweep);
  EXPECT_EQ(Tree[3].Parent, 0);
  EXPECT_EQ(Tree[0].SelfCost, 10u);
  EXPECT_EQ(Tree[0].TotalCost, 24u);

  // A second scavenge replaces the tree but accumulates the aggregates.
  recordSyntheticScavenge(Profiler);
  EXPECT_EQ(Profiler.lastTree().size(), 4u);
  EXPECT_EQ(aggregate(Profiler, phase::Trace).Count, 2u);
  EXPECT_EQ(aggregate(Profiler, phase::Trace).SelfCost, 20u);
}

TEST(PhaseProfilerTest, DisabledProfilerIsInert) {
  PhaseProfiler Profiler;
  EXPECT_FALSE(Profiler.active());
  {
    ProfilePhase Phase(&Profiler, phase::Trace);
    Phase.addCost(100);
  }
  // No finishScavenge needed: nothing was recorded.
  EXPECT_TRUE(Profiler.aggregates().empty());
  EXPECT_TRUE(Profiler.lastTree().empty());

  // A null profiler is equally fine.
  ProfilePhase Null(nullptr, phase::Trace);
  Null.addCost(1);
}

TEST(PhaseProfilerTest, ScopeArmedAtConstructionOnly) {
  PhaseProfiler Profiler;
  {
    // The scope opens while disabled, so enabling mid-scope must not
    // produce an unmatched exit.
    ProfilePhase Phase(&Profiler, phase::Trace);
    Profiler.setEnabled(true);
    Phase.addCost(5);
  }
  EXPECT_TRUE(Profiler.aggregates().empty());
  Profiler.finishScavenge();
  EXPECT_TRUE(Profiler.lastTree().empty());
}

TEST(PhaseProfilerTest, MergeFoldsAggregates) {
  PhaseProfiler A, B;
  A.setEnabled(true);
  B.setEnabled(true);
  recordSyntheticScavenge(A);
  recordSyntheticScavenge(B);
  recordSyntheticScavenge(B);

  PhaseProfiler Merged;
  Merged.mergeFrom(A);
  Merged.mergeFrom(B);
  EXPECT_EQ(aggregate(Merged, phase::Trace).Count, 3u);
  EXPECT_EQ(aggregate(Merged, phase::Trace).SelfCost, 30u);
  EXPECT_EQ(aggregate(Merged, phase::Trace).TotalCost, 72u);
  EXPECT_EQ(aggregate(Merged, phase::Sweep).SelfCostSamples.size(), 3u);

  Merged.reset();
  EXPECT_TRUE(Merged.aggregates().empty());
}

TEST(PhaseProfilerTest, CostAttributionTableRanksBySelfCost) {
  PhaseProfiler Profiler;
  Profiler.setEnabled(true);
  recordSyntheticScavenge(Profiler);
  Table Full = buildCostAttributionTable(Profiler);
  Table Top1 = buildCostAttributionTable(Profiler, 1);
  EXPECT_EQ(Full.numRows(), 4u);
  EXPECT_EQ(Top1.numRows(), 1u);
  EXPECT_EQ(Full.numColumns(), 9u);
}

TEST(PhaseProfilerTest, HeapReportsSharedTaxonomy) {
  runtime::HeapConfig Config;
  Config.TriggerBytes = 20'000;
  runtime::Heap H(Config);
  core::PolicyConfig PolicyConfig;
  PolicyConfig.TraceMaxBytes = 5'000;
  H.setPolicy(core::createPolicy("feedmed", PolicyConfig));
  H.profiler().setEnabled(true);

  runtime::HandleScope Scope(H);
  report::GhostMutator Mutator(H, Scope, /*Seed=*/0x61057);
  Mutator.run(200'000);

  ASSERT_GT(H.history().size(), 0u);
  const auto &Aggregates = H.profiler().aggregates();
  // Every scavenge records a policy decision and the collection phases.
  ASSERT_TRUE(Aggregates.count(phase::PolicyDecision));
  ASSERT_TRUE(Aggregates.count(phase::RootScan));
  ASSERT_TRUE(Aggregates.count(phase::Sweep));
  EXPECT_EQ(Aggregates.at(phase::PolicyDecision).Count, H.history().size());

  // Self never exceeds total, and phase entry counts are sane.
  for (const auto &[Name, Agg] : Aggregates) {
    EXPECT_LE(Agg.SelfCost, Agg.TotalCost) << Name;
    EXPECT_GT(Agg.Count, 0u) << Name;
    EXPECT_EQ(Agg.SelfCostSamples.size(), Agg.Count) << Name;
  }

  // The last scavenge's tree is present and internally consistent.
  const std::vector<PhaseTreeNode> &Tree = H.profiler().lastTree();
  ASSERT_FALSE(Tree.empty());
  for (size_t I = 0; I != Tree.size(); ++I) {
    EXPECT_LE(Tree[I].SelfCost, Tree[I].TotalCost);
    EXPECT_LT(Tree[I].Parent, static_cast<int>(I));
  }
}
