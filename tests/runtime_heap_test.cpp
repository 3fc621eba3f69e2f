//===- tests/runtime_heap_test.cpp ----------------------------------------==//
//
// Tests for the managed heap's mutator-facing surface: allocation, the
// allocation clock, slots and raw data, handle scopes, global roots, and
// the write barrier's remembered-set discipline.
//
//===----------------------------------------------------------------------===//

#include "runtime/Heap.h"

#include "core/Policies.h"

#include <gtest/gtest.h>

#include <cstring>

using namespace dtb;
using namespace dtb::runtime;

namespace {

HeapConfig manualConfig() {
  HeapConfig Config;
  Config.TriggerBytes = 0; // Collections only when asked.
  return Config;
}

} // namespace

TEST(HeapTest, AllocateInitializesObject) {
  Heap H(manualConfig());
  Object *O = H.allocate(/*NumSlots=*/3, /*RawBytes=*/16);
  ASSERT_NE(O, nullptr);
  EXPECT_TRUE(O->isAlive());
  EXPECT_EQ(O->numSlots(), 3u);
  EXPECT_EQ(O->rawBytes(), 16u);
  EXPECT_EQ(O->grossBytes(), sizeof(Object) + 3 * sizeof(Object *) + 16);
  for (uint32_t I = 0; I != 3; ++I)
    EXPECT_EQ(O->slot(I), nullptr);
  // Raw data zeroed.
  const char *Raw = static_cast<const char *>(O->rawData());
  for (uint32_t I = 0; I != 16; ++I)
    EXPECT_EQ(Raw[I], 0);
}

TEST(HeapTest, ClockIsGrossBytesAllocated) {
  Heap H(manualConfig());
  Object *A = H.allocate(0, 8);
  EXPECT_EQ(H.now(), A->grossBytes());
  EXPECT_EQ(A->birth(), H.now());
  Object *B = H.allocate(2, 0);
  EXPECT_EQ(H.now(), A->grossBytes() + B->grossBytes());
  EXPECT_EQ(B->birth(), H.now());
  EXPECT_GT(B->birth(), A->birth());
  EXPECT_EQ(H.residentBytes(), H.now());
  EXPECT_EQ(H.residentObjects(), 2u);
}

TEST(HeapTest, RawDataIsWritable) {
  Heap H(manualConfig());
  Object *O = H.allocate(1, 32);
  std::memcpy(O->rawData(), "dynamic threatening boundary", 29);
  EXPECT_EQ(std::strcmp(static_cast<const char *>(O->rawData()),
                        "dynamic threatening boundary"),
            0);
}

TEST(HeapTest, WriteAndReadSlots) {
  Heap H(manualConfig());
  Object *A = H.allocate(2);
  Object *B = H.allocate(0);
  H.writeSlot(A, 0, B);
  EXPECT_EQ(A->slot(0), B);
  EXPECT_EQ(A->slot(1), nullptr);
  H.writeSlot(A, 0, nullptr);
  EXPECT_EQ(A->slot(0), nullptr);
}

TEST(HeapTest, BarrierRecordsForwardInTimeStores) {
  Heap H(manualConfig());
  Object *Old = H.allocate(1);
  Object *Young = H.allocate(1);

  // Older object pointing at a younger one: recorded.
  H.writeSlot(Old, 0, Young);
  EXPECT_TRUE(H.rememberedSet().contains(Old, 0));
  EXPECT_EQ(H.rememberedSet().size(), 1u);

  // Younger pointing at older: not recorded.
  H.writeSlot(Young, 0, Old);
  EXPECT_FALSE(H.rememberedSet().contains(Young, 0));
  EXPECT_EQ(H.rememberedSet().size(), 1u);
}

TEST(HeapTest, BarrierDeduplicatesEntries) {
  Heap H(manualConfig());
  Object *Old = H.allocate(1);
  Object *Young = H.allocate(0);
  H.writeSlot(Old, 0, Young);
  H.writeSlot(Old, 0, Young);
  EXPECT_EQ(H.rememberedSet().size(), 1u);
}

TEST(HeapTest, BarrierIgnoresNullStores) {
  Heap H(manualConfig());
  Object *Old = H.allocate(1);
  H.allocate(0);
  H.writeSlot(Old, 0, nullptr);
  EXPECT_TRUE(H.rememberedSet().empty());
}

TEST(HeapTest, HandleScopeRootsAndUnroots) {
  Heap H(manualConfig());
  {
    HandleScope Scope(H);
    Object *&Slot = Scope.slot(nullptr);
    Slot = H.allocate(0);
    EXPECT_EQ(H.handleSlots().size(), 1u);
  }
  EXPECT_TRUE(H.handleSlots().empty());
}

TEST(HeapTest, NestedHandleScopes) {
  Heap H(manualConfig());
  HandleScope Outer(H);
  Outer.slot(H.allocate(0));
  {
    HandleScope Inner(H);
    Inner.slot(H.allocate(0));
    Inner.slot(H.allocate(0));
    EXPECT_EQ(H.handleSlots().size(), 3u);
  }
  EXPECT_EQ(H.handleSlots().size(), 1u);
}

TEST(HeapTest, GlobalRoots) {
  Heap H(manualConfig());
  Object *Root = H.allocate(0);
  H.addGlobalRoot(&Root);
  EXPECT_EQ(H.globalRoots().size(), 1u);
  H.removeGlobalRoot(&Root);
  EXPECT_TRUE(H.globalRoots().empty());
}

TEST(HeapTest, AutomaticTriggerRunsCollections) {
  HeapConfig Config;
  Config.TriggerBytes = 4'096;
  Heap H(Config);
  H.setPolicy(core::createPolicy("full", {}));

  HandleScope Scope(H);
  Object *&Keep = Scope.slot(nullptr);
  Keep = H.allocate(0, 64);
  for (int I = 0; I != 200; ++I)
    H.allocate(0, 64); // Garbage.
  EXPECT_GT(H.history().size(), 0u);
  // The rooted object survived every collection.
  EXPECT_TRUE(Keep->isAlive());
  // Resident memory stayed bounded (trigger + slack), far below the
  // ~18 KB of garbage allocated.
  EXPECT_LT(H.residentBytes(), 8'192u);
}

TEST(HeapTest, NoTriggerWithoutPolicy) {
  HeapConfig Config;
  Config.TriggerBytes = 1'000;
  Heap H(Config);
  for (int I = 0; I != 100; ++I)
    H.allocate(0, 64);
  EXPECT_EQ(H.history().size(), 0u);
}

TEST(HeapDeathTest, ZeroTraceLanesIsAUsageError) {
  // A heap traces on at least one lane; there is no "borrow the shared
  // pool" setting.
  HeapConfig Config = manualConfig();
  Config.TraceThreads = 0;
  EXPECT_DEATH(Heap H(Config), "TraceThreads must be at least 1");
}
