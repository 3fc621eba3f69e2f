//===- tests/runtime_demographics_test.cpp --------------------------------==//
//
// Tests for the survivor-table demographics (the runtime's stand-in for
// the simulator's oracle): epoch bookkeeping, the boundary rule of the
// estimates, a seeded property test of the prefix-sum queries against a
// naive model, and integration with the heap.
//
// Replay a property-test failure with DTB_TEST_SEED=<seed> (see
// tests/TestSeeds.h).
//
//===----------------------------------------------------------------------===//

#include "runtime/EpochDemographics.h"

#include "core/Policies.h"
#include "runtime/Heap.h"
#include "support/Random.h"

#include "TestSeeds.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

using namespace dtb;
using namespace dtb::runtime;

TEST(EpochDemographicsTest, FreshTableCountsNewAllocationAsLive) {
  EpochDemographics D;
  D.setBytesSinceLastScavenge(500);
  EXPECT_EQ(D.liveBytesBornAfter(0), 500u);
  EXPECT_EQ(D.liveBytesBornAfter(100), 500u); // Open epoch counts wholly.
}

TEST(EpochDemographicsTest, SurvivorsAccumulateIntoEpochs) {
  EpochDemographics D;
  // Scavenge 1 at t=1000 over a full boundary.
  D.beginScavenge(0);
  D.recordSurvivor(/*Birth=*/300, 50);
  D.recordSurvivor(/*Birth=*/900, 70);
  D.endScavenge(1000);

  // Epoch [0,1000) has 120 live bytes; nothing allocated since.
  EXPECT_EQ(D.liveBytesBornAfter(0), 120u);
  // Boundary at 1000: only the (empty) open epoch.
  EXPECT_EQ(D.liveBytesBornAfter(1000), 0u);

  D.setBytesSinceLastScavenge(40);
  EXPECT_EQ(D.liveBytesBornAfter(1000), 40u);
  EXPECT_EQ(D.liveBytesBornAfter(0), 160u);
}

TEST(EpochDemographicsTest, ThreatenedEpochsAreRefreshed) {
  EpochDemographics D;
  D.beginScavenge(0);
  D.recordSurvivor(500, 100);
  D.endScavenge(1000);
  D.setBytesSinceLastScavenge(200);

  // Scavenge 2 at t=2000 with boundary 1000: epoch [1000,2000) is
  // re-measured; epoch [0,1000) keeps its stale estimate.
  D.beginScavenge(1000);
  D.recordSurvivor(1500, 30);
  D.endScavenge(2000);

  EXPECT_EQ(D.liveBytesBornAfter(1000), 30u);
  EXPECT_EQ(D.liveBytesBornAfter(0), 130u);
}

TEST(EpochDemographicsTest, FullScavengeRefreshesEverything) {
  EpochDemographics D;
  D.beginScavenge(0);
  D.recordSurvivor(500, 100);
  D.endScavenge(1000);

  D.beginScavenge(0); // Full: all epochs re-measured.
  D.recordSurvivor(500, 60); // Some of the old bytes died.
  D.endScavenge(2000);
  EXPECT_EQ(D.liveBytesBornAfter(0), 60u);
}

TEST(EpochDemographicsTest, EpochOfMapsBirthsToIntervals) {
  EpochDemographics D;
  D.beginScavenge(0);
  D.endScavenge(1000);
  D.beginScavenge(0);
  D.endScavenge(2000);
  // Epochs: [0,1000), [1000,2000), [2000,...). A full scavenge records
  // each survivor into the epoch of its birth. A birth exactly at an
  // epoch start belongs to the previous epoch (it was allocated before
  // that scavenge ran).
  D.beginScavenge(0);
  D.recordSurvivor(500, 1);
  D.recordSurvivor(1000, 2);
  D.recordSurvivor(1500, 4);
  D.recordSurvivor(2500, 8);
  D.endScavenge(3000);
  EXPECT_EQ(D.liveEstimatesSnapshot(), (std::vector<uint64_t>{3, 4, 8, 0}));
}

TEST(EpochDemographicsTest, EpochRolloverOpensEmptyEpoch) {
  EpochDemographics D;
  D.beginScavenge(0);
  D.recordSurvivor(500, 100);
  D.endScavenge(1000);

  // Rollover: endScavenge opened [1000, ...) with a zero estimate and
  // reset the since-allocation counter.
  EXPECT_EQ(D.numEpochs(), 2u);
  EXPECT_EQ(D.epochStart(1), 1000u);
  EXPECT_EQ(D.liveBytesBornAfter(1000), 0u);

  // A birth stamped exactly at the rollover clock belongs to the closed
  // epoch (it was allocated before that scavenge ran), the next byte to
  // the new one.
  D.beginScavenge(0);
  D.recordSurvivor(1000, 10);
  D.recordSurvivor(1001, 20);
  D.endScavenge(2000);
  EXPECT_EQ(D.liveEstimatesSnapshot(), (std::vector<uint64_t>{10, 20, 0}));
}

TEST(EpochDemographicsTest, RolloverSurvivorsLandInTheNewEpoch) {
  EpochDemographics D;
  D.beginScavenge(0);
  D.recordSurvivor(800, 40);
  D.endScavenge(1000);

  // Scavenge 2 re-measures everything; one survivor was born exactly at
  // the previous scavenge time (epoch 0) and one just after (epoch 1).
  D.beginScavenge(0);
  D.recordSurvivor(1000, 25);
  D.recordSurvivor(1001, 35);
  D.endScavenge(2000);

  EXPECT_EQ(D.numEpochs(), 3u);
  // A query sums the epochs starting at-or-after the boundary. A boundary
  // of 0 counts both epochs. A boundary of 999 lies strictly inside epoch
  // 0 ([0,1000)), which is left out: the survivor born at 1000 is not
  // counted although it was born after 999, so the estimate undercounts.
  EXPECT_EQ(D.liveBytesBornAfter(0), 60u);
  EXPECT_EQ(D.liveBytesBornAfter(999), 35u);
  EXPECT_EQ(D.liveBytesBornAfter(1000), 35u);
  EXPECT_EQ(D.liveBytesBornAfter(2000), 0u);
}

TEST(EpochDemographicsTest, MidEpochBoundaryZeroesTheContainingEpoch) {
  EpochDemographics D;
  D.beginScavenge(0);
  D.recordSurvivor(500, 100);
  D.endScavenge(1000);
  D.beginScavenge(0);
  D.recordSurvivor(1500, 50);
  D.endScavenge(2000);

  // A boundary strictly inside epoch 0 threatens the whole epoch: its
  // stale estimate is zeroed before re-measurement, and only epoch 1's
  // estimate survives untouched... but epoch 1 starts after the boundary,
  // so it is zeroed too. Record nothing: everything threatened reads 0.
  D.beginScavenge(700);
  D.endScavenge(3000);
  EXPECT_EQ(D.liveBytesBornAfter(0), 0u);

  // Same shape, but this time the boundary coincides with an epoch start:
  // the earlier epoch is NOT threatened and keeps its stale estimate.
  EpochDemographics E;
  E.beginScavenge(0);
  E.recordSurvivor(500, 100);
  E.endScavenge(1000);
  E.beginScavenge(0);
  E.recordSurvivor(500, 80);
  E.recordSurvivor(1500, 50);
  E.endScavenge(2000);
  E.beginScavenge(1000); // Exactly the epoch-1 start.
  E.endScavenge(3000);
  EXPECT_EQ(E.liveBytesBornAfter(0), 80u);
  EXPECT_EQ(E.liveBytesBornAfter(1000), 0u);
}

TEST(EpochDemographicsTest, ManyRolloversKeepStartsAndEstimatesAligned) {
  EpochDemographics D;
  core::AllocClock Now = 0;
  for (int I = 0; I != 20; ++I) {
    Now += 1000;
    D.beginScavenge(Now - 1000); // FIXED1-style: threaten the last epoch.
    D.recordSurvivor(Now - 500, 10);
    D.endScavenge(Now);
  }
  EXPECT_EQ(D.numEpochs(), 21u);
  for (size_t I = 0; I != D.numEpochs(); ++I)
    EXPECT_EQ(D.epochStart(I), I * 1000) << I;
  // Every closed epoch holds its 10 stale bytes.
  EXPECT_EQ(D.liveBytesBornAfter(0), 200u);
  EXPECT_EQ(D.liveBytesBornAfter(10'000), 100u);
  EXPECT_EQ(D.liveBytesBornAfter(Now), 0u);
}

namespace {

/// The naive survivor table the prefix-sum implementation must agree
/// with: estimates kept per epoch, zeroed and re-accumulated by linear
/// scans, queried by summing every epoch starting at-or-after the
/// boundary.
struct NaiveTable {
  std::vector<core::AllocClock> Starts = {0};
  std::vector<uint64_t> Live = {0};
  uint64_t SinceLast = 0;

  void begin(core::AllocClock Boundary) {
    for (size_t I = 0; I != Starts.size(); ++I) {
      bool Next = I + 1 != Starts.size();
      bool Contains = Starts[I] < Boundary &&
                      (!Next || Boundary < Starts[I + 1]);
      if (Starts[I] >= Boundary || Contains)
        Live[I] = 0;
    }
  }
  void record(core::AllocClock Birth, uint64_t Bytes) {
    size_t Epoch = 0;
    for (size_t I = 0; I != Starts.size(); ++I)
      if (Starts[I] < Birth)
        Epoch = I;
    Live[Epoch] += Bytes;
  }
  void end(core::AllocClock Now) {
    Starts.push_back(Now);
    Live.push_back(0);
    SinceLast = 0;
  }
};

/// Sum of the table's own snapshot over the epochs starting at-or-after
/// \p Boundary, plus the untraced bytes.
uint64_t naiveBornAfter(const EpochDemographics &D, uint64_t SinceLast,
                        core::AllocClock Boundary) {
  std::vector<uint64_t> Estimates = D.liveEstimatesSnapshot();
  uint64_t Sum = SinceLast;
  for (size_t I = 0; I != D.numEpochs(); ++I)
    if (D.epochStart(I) >= Boundary)
      Sum += Estimates[I];
  return Sum;
}

} // namespace

TEST(EpochDemographicsTest, PrefixSumQueriesMatchNaiveSums) {
  const uint64_t Seed = test::effectiveSeed(0xDE30);
  DTB_SCOPED_SEED_TRACE(Seed);
  Rng R(Seed);

  for (int Run = 0; Run != 20; ++Run) {
    EpochDemographics D;
    NaiveTable Model;
    core::AllocClock Now = 0;
    for (int Scavenge = 0; Scavenge != 60; ++Scavenge) {
      // Allocation since the last scavenge; sometimes none, so two epochs
      // share a start.
      Now += R.nextBelow(4) == 0 ? 0 : 1 + R.nextBelow(5'000);
      uint64_t Since = R.nextBelow(3'000);
      D.setBytesSinceLastScavenge(Since);
      Model.SinceLast = Since;

      // The boundary: on an epoch start, one byte before or after one,
      // strictly between two starts, 0, or now.
      size_t E = R.nextBelow(Model.Starts.size());
      core::AllocClock Start = Model.Starts[E];
      core::AllocClock Boundary = 0;
      switch (R.nextBelow(5)) {
      case 0:
        Boundary = Start;
        break;
      case 1:
        Boundary = Start == 0 ? 0 : Start - 1;
        break;
      case 2:
        Boundary = std::min(Start + 1, Now);
        break;
      case 3:
        Boundary = Start + R.nextBelow(Now - Start + 1);
        break;
      default:
        Boundary = R.nextBelow(2) ? 0 : Now;
        break;
      }

      // Before the scavenge, every query agrees with the naive sums.
      for (size_t I = 0; I != Model.Starts.size(); ++I)
        for (core::AllocClock Q : {Model.Starts[I], Model.Starts[I] + 1,
                                   Model.Starts[I] == 0
                                       ? core::AllocClock(0)
                                       : Model.Starts[I] - 1})
          ASSERT_EQ(D.liveBytesBornAfter(Q), naiveBornAfter(D, Since, Q))
              << "run " << Run << " scavenge " << Scavenge << " query " << Q;
      ASSERT_EQ(D.liveBytesBornAfter(Now + 1), Since);

      // Survivors in birth order, born after the boundary (some exactly on
      // an epoch start, which belongs to the epoch before it).
      D.beginScavenge(Boundary);
      Model.begin(Boundary);
      core::AllocClock Birth = Boundary;
      while (Birth < Now && R.nextBelow(8) != 0) {
        Birth += 1 + R.nextBelow(std::max<uint64_t>((Now - Birth) / 4, 1));
        if (Birth > Now)
          break;
        auto Next = std::upper_bound(Model.Starts.begin(), Model.Starts.end(),
                                     Birth);
        if (Next != Model.Starts.end() && R.nextBelow(3) == 0)
          Birth = *Next;
        uint64_t Bytes = 1 + R.nextBelow(500);
        D.recordSurvivor(Birth, Bytes);
        Model.record(Birth, Bytes);
      }
      D.endScavenge(Now);
      Model.end(Now);
      ASSERT_EQ(D.liveEstimatesSnapshot(), Model.Live)
          << "run " << Run << " scavenge " << Scavenge << " boundary "
          << Boundary;
    }
  }
}

TEST(EpochDemographicsTest, HeapIntegrationTracksSurvivors) {
  HeapConfig Config;
  Config.TriggerBytes = 0;
  Heap H(Config);
  HandleScope Scope(H);
  Object *&Keep = Scope.slot(H.allocate(0, 100));
  H.allocate(0, 100); // Garbage.

  H.collectAtBoundary(0);
  // After the scavenge the survivor table knows exactly the survivor.
  EXPECT_EQ(H.demographics().liveBytesBornAfter(0), Keep->grossBytes());

  // New allocation counts as live immediately.
  Object *Fresh = H.allocate(0, 50);
  EXPECT_EQ(H.demographics().liveBytesBornAfter(0),
            Keep->grossBytes() + Fresh->grossBytes());
  // Born after the first scavenge: only the fresh bytes.
  EXPECT_EQ(H.demographics().liveBytesBornAfter(H.history().last().Time),
            Fresh->grossBytes());
}

TEST(EpochDemographicsTest, FeedMedOnHeapUsesEstimates) {
  // End-to-end: FEEDMED on the real heap promotes after an over-budget
  // pause using the survivor-table estimates.
  HeapConfig Config;
  Config.TriggerBytes = 0;
  Heap H(Config);
  core::PolicyConfig PolicyConfig;
  PolicyConfig.TraceMaxBytes = 300;
  H.setPolicy(core::createPolicy("feedmed", PolicyConfig));

  HandleScope Scope(H);
  // 10 live objects of ~56 bytes: a full trace (~560B) busts the 300-byte
  // budget.
  for (int I = 0; I != 10; ++I)
    Scope.slot(H.allocate(0, 32));
  H.collect(); // Full, over budget.
  core::AllocClock T1 = H.history().last().Time;
  for (int I = 0; I != 4; ++I)
    Scope.slot(H.allocate(0, 32));
  H.collect();
  // Over budget last time: the boundary must have advanced to t_1 (the
  // only candidate whose estimated trace fits).
  EXPECT_EQ(H.history().last().Boundary, T1);
}
