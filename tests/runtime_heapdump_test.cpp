//===- tests/runtime_heapdump_test.cpp ------------------------------------==//
//
// Tests for the heap-demographics snapshot.
//
//===----------------------------------------------------------------------===//

#include "runtime/HeapDump.h"

#include "runtime/Heap.h"
#include "runtime/Mutator.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>

using namespace dtb;
using namespace dtb::runtime;

namespace {

HeapConfig manualConfig() {
  HeapConfig Config;
  Config.TriggerBytes = 0;
  return Config;
}

uint64_t sumResident(const HeapDemographics &Demo) {
  uint64_t Total = 0;
  for (const AgeBand &Band : Demo.Bands)
    Total += Band.ResidentBytes;
  return Total;
}

std::string printed(const Heap &H) {
  char *Buffer = nullptr;
  size_t Size = 0;
  std::FILE *Stream = open_memstream(&Buffer, &Size);
  printDemographics(collectDemographics(H), Stream);
  std::fclose(Stream);
  std::string Out(Buffer, Size);
  std::free(Buffer);
  return Out;
}

} // namespace

TEST(HeapDumpTest, EmptyHeap) {
  Heap H(manualConfig());
  HeapDemographics Demo = collectDemographics(H);
  EXPECT_EQ(Demo.ResidentObjects, 0u);
  EXPECT_EQ(Demo.ResidentBytes, 0u);
  EXPECT_EQ(Demo.ReachableBytes, 0u);
}

TEST(HeapDumpTest, BandsPartitionResidency) {
  Heap H(manualConfig());
  HandleScope Scope(H);
  for (int I = 0; I != 200; ++I) {
    Object *O = H.allocate(1, 64);
    if (I % 3 == 0)
      Scope.slot(O);
  }
  HeapDemographics Demo = collectDemographics(H, /*BaseAgeBytes=*/1024);
  EXPECT_EQ(Demo.ResidentObjects, 200u);
  EXPECT_EQ(Demo.ResidentBytes, H.residentBytes());
  EXPECT_EQ(sumResident(Demo), H.residentBytes());
  EXPECT_LT(Demo.ReachableBytes, Demo.ResidentBytes);
  EXPECT_GT(Demo.ReachableBytes, 0u);
}

TEST(HeapDumpTest, BandRangesDoubleAndCover) {
  Heap H(manualConfig());
  H.allocate(0, 100'000); // Push the clock out.
  HeapDemographics Demo = collectDemographics(H, 1'000);
  ASSERT_GT(Demo.Bands.size(), 3u);
  EXPECT_EQ(Demo.Bands[0].AgeLo, 0u);
  EXPECT_EQ(Demo.Bands[0].AgeHi, 1'000u);
  EXPECT_EQ(Demo.Bands[1].AgeHi, 3'000u);  // Width doubles: 2,000.
  EXPECT_EQ(Demo.Bands[2].AgeHi, 7'000u);  // Width 4,000.
  EXPECT_EQ(Demo.Bands.back().AgeHi, ~0ull);
}

TEST(HeapDumpTest, YoungObjectsLandInYoungBands) {
  Heap H(manualConfig());
  Object *Old = H.allocate(0, 64);
  (void)Old;
  H.allocate(0, 100'000); // Age the first object by 100 KB.
  Object *Young = H.allocate(0, 64);
  (void)Young;

  HeapDemographics Demo = collectDemographics(H, 1'024);
  // The young object has age < 1 KB: band 0 must hold at least one
  // object; the old object's age (~100 KB) lands in a later band.
  EXPECT_GE(Demo.Bands[0].ResidentObjects, 1u);
  uint64_t OldBandObjects = 0;
  for (size_t I = 5; I != Demo.Bands.size(); ++I)
    OldBandObjects += Demo.Bands[I].ResidentObjects;
  EXPECT_GE(OldBandObjects, 1u);
}

TEST(HeapDumpTest, ReachabilityDistinguishesGarbage) {
  Heap H(manualConfig());
  HandleScope Scope(H);
  Scope.slot(H.allocate(0, 500));
  H.allocate(0, 500); // Garbage of the same vintage.
  HeapDemographics Demo = collectDemographics(H);
  EXPECT_EQ(Demo.ResidentBytes, Demo.ReachableBytes * 2);
}

TEST(HeapDumpTest, ReportsPerContextMutatorStats) {
  Heap H(manualConfig());
  MutatorContext Ctx1(H), Ctx2(H);
  for (int I = 0; I != 20; ++I) {
    size_t Index = Ctx1.allocateRooted(1, 32);
    if (Index != 0)
      Ctx1.writeSlot(Ctx1.root(Index - 1), 0, Ctx1.root(Index));
    Ctx1.safepoint();
  }
  Ctx2.allocate(0, 64);
  H.runAtSafepoint([](Heap &) {});

  HeapDemographics Demo = collectDemographics(H);
  ASSERT_EQ(Demo.Mutators.size(), 2u);
  EXPECT_EQ(Demo.Mutators[0].Id, 1u);
  EXPECT_EQ(Demo.Mutators[0].Stats.Allocations, 20u);
  EXPECT_GT(Demo.Mutators[0].Stats.AllocatedBytes, 0u);
  EXPECT_EQ(Demo.Mutators[1].Id, 2u);
  EXPECT_EQ(Demo.Mutators[1].Stats.Allocations, 1u);
  EXPECT_GT(Demo.Rendezvous.Serial, 0u);
  EXPECT_EQ(Demo.Rendezvous.Contexts, 2u);
  EXPECT_EQ(Demo.Rendezvous.Straggler, StragglerKind::Polling);
  EXPECT_GT(Demo.FlightEventsRecorded, 0u);
  EXPECT_FALSE(Demo.FlightEvents.empty());

  // Golden format: the printed dump names each context, the last
  // rendezvous, and the flight-recorder tail.
  char *Buffer = nullptr;
  size_t Size = 0;
  std::FILE *Stream = open_memstream(&Buffer, &Size);
  printDemographics(Demo, Stream);
  std::fclose(Stream);
  std::string Out(Buffer, Size);
  std::free(Buffer);
  EXPECT_NE(Out.find("ctx 1 [at-safepoint]: 20 allocs"), std::string::npos);
  EXPECT_NE(Out.find("ctx 2 [at-safepoint]: 1 allocs"), std::string::npos);
  EXPECT_NE(Out.find("safepoint: rendezvous #"), std::string::npos);
  EXPECT_NE(Out.find("straggler ctx 2 (polling)"), std::string::npos);
  EXPECT_NE(Out.find("flight recorder:"), std::string::npos);
  EXPECT_NE(Out.find("safepoint-rendezvous:"), std::string::npos);
}

TEST(HeapDumpTest, PrintsWithoutCrashing) {
  Heap H(manualConfig());
  HandleScope Scope(H);
  for (int I = 0; I != 50; ++I)
    Scope.slot(H.allocate(1, 32));
  HeapDemographics Demo = collectDemographics(H);

  char *Buffer = nullptr;
  size_t Size = 0;
  std::FILE *Stream = open_memstream(&Buffer, &Size);
  printDemographics(Demo, Stream);
  std::fclose(Stream);
  EXPECT_GT(Size, 0u);
  std::free(Buffer);
}

TEST(HeapDumpTest, ShowsTheBlocksACopyingHeapCarvedForItself) {
  HeapConfig Config = manualConfig();
  Config.Collector = CollectorKind::Copying;
  Heap H(Config);
  HandleScope Scope(H);
  for (int I = 0; I != 50; ++I)
    Scope.slot(H.allocate(1, 32));
  // One direct-allocation block; the collection evacuates every object
  // into one lane block and leaves the direct block empty but current.
  H.collectAtBoundary(0);
  std::string Out = printed(H);
  EXPECT_NE(Out.find("heap blocks: 2 resident, 65536 carved bytes (direct "
                     "allocation and evacuation)"),
            std::string::npos)
      << Out;
  EXPECT_EQ(Out.find("mutators:"), std::string::npos) << Out;

  Heap MarkSweep(manualConfig());
  HandleScope MarkSweepScope(MarkSweep);
  for (int I = 0; I != 50; ++I)
    MarkSweepScope.slot(MarkSweep.allocate(1, 32));
  MarkSweep.collectAtBoundary(0);
  EXPECT_EQ(printed(MarkSweep).find("heap blocks:"), std::string::npos);
}
