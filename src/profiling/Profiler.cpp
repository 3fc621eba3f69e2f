//===- profiling/Profiler.cpp ---------------------------------------------==//

#include "profiling/Profiler.h"

#include "support/Error.h"

#include <algorithm>
#include <cmath>

using namespace dtb;
using namespace dtb::profiling;

void PhaseProfiler::enter(const char *Name) {
  Frame F;
  F.Name = Name;
  F.TreeIndex = static_cast<int>(Tree.size());
  F.WallStart = std::chrono::steady_clock::now();
  PhaseTreeNode Node;
  Node.Name = Name;
  Node.Parent = Stack.empty() ? -1 : Stack.back().TreeIndex;
  Tree.push_back(Node);
  Stack.push_back(F);
}

void PhaseProfiler::addCost(uint64_t Units) {
  if (!Stack.empty())
    Stack.back().SelfCost += Units;
}

void PhaseProfiler::exit() {
  if (Stack.empty())
    fatalError("phase exit without a matching enter");
  Frame F = Stack.back();
  Stack.pop_back();

  double WallNanos =
      std::chrono::duration<double, std::nano>(
          std::chrono::steady_clock::now() - F.WallStart)
          .count();
  uint64_t Total = F.SelfCost + F.ChildTotalCost;

  PhaseTreeNode &Node = Tree[static_cast<size_t>(F.TreeIndex)];
  Node.SelfCost = F.SelfCost;
  Node.TotalCost = Total;

  if (!Stack.empty()) {
    Stack.back().ChildTotalCost += Total;
    Stack.back().ChildWallNanos += WallNanos;
  }

  PhaseAggregate &Agg = Aggregates[F.Name];
  Agg.Count += 1;
  Agg.SelfCost += F.SelfCost;
  Agg.TotalCost += Total;
  Agg.SelfCostSamples.add(static_cast<double>(F.SelfCost));
  Agg.WallSelfNanos += WallNanos - F.ChildWallNanos;
}

void PhaseProfiler::finishScavenge() {
  if (!Stack.empty())
    fatalError("finishScavenge with open phase frames");
  LastTree = std::move(Tree);
  Tree.clear();
}

void PhaseProfiler::mergeFrom(const PhaseProfiler &Other) {
  for (const auto &[Name, Their] : Other.Aggregates) {
    PhaseAggregate &Mine = Aggregates[Name];
    Mine.Count += Their.Count;
    Mine.SelfCost += Their.SelfCost;
    Mine.TotalCost += Their.TotalCost;
    for (double Sample : Their.SelfCostSamples.samples())
      Mine.SelfCostSamples.add(Sample);
    Mine.WallSelfNanos += Their.WallSelfNanos;
  }
}

void PhaseProfiler::reset() {
  Stack.clear();
  Tree.clear();
  LastTree.clear();
  Aggregates.clear();
}

namespace {

/// Population standard deviation of a sample set (two-pass; the sets here
/// are per-phase entry counts, small enough not to matter).
double sampleStddev(const SampleSet &Samples) {
  size_t N = Samples.size();
  if (N < 2)
    return 0.0;
  double Mean = Samples.mean();
  double M2 = 0.0;
  for (double X : Samples.samples()) {
    double D = X - Mean;
    M2 += D * D;
  }
  return std::sqrt(M2 / static_cast<double>(N));
}

} // namespace

Table dtb::profiling::buildCostAttributionTable(const PhaseProfiler &Profiler,
                                                size_t TopN) {
  const auto &Aggregates = Profiler.aggregates();
  uint64_t GrandSelf = 0;
  for (const auto &[Name, Agg] : Aggregates)
    GrandSelf += Agg.SelfCost;

  // Rank by self cost (the attribution that sums to 100%), ties by name so
  // the table is deterministic.
  std::vector<std::pair<std::string, const PhaseAggregate *>> Ranked;
  for (const auto &[Name, Agg] : Aggregates)
    Ranked.emplace_back(Name, &Agg);
  std::sort(Ranked.begin(), Ranked.end(), [](const auto &A, const auto &B) {
    if (A.second->SelfCost != B.second->SelfCost)
      return A.second->SelfCost > B.second->SelfCost;
    return A.first < B.first;
  });
  if (Ranked.size() > TopN)
    Ranked.resize(TopN);

  Table T({"Phase", "Count", "Self cost", "Total cost", "Self %", "p50",
           "p90", "p99", "Stddev"});
  T.setAlignment(0, AlignKind::Left);
  for (const auto &[Name, Agg] : Ranked) {
    double Share = GrandSelf == 0 ? 0.0
                                  : 100.0 * static_cast<double>(Agg->SelfCost) /
                                        static_cast<double>(GrandSelf);
    T.addRow({Name, Table::cell(Agg->Count), Table::cell(Agg->SelfCost),
              Table::cell(Agg->TotalCost), Table::cell(Share, 1),
              Table::cell(Agg->SelfCostSamples.quantile(0.5), 1),
              Table::cell(Agg->SelfCostSamples.quantile(0.9), 1),
              Table::cell(Agg->SelfCostSamples.quantile(0.99), 1),
              Table::cell(sampleStddev(Agg->SelfCostSamples), 1)});
  }
  return T;
}
