//===- tests/runtime_header_test.cpp --------------------------------------==//
//
// Tests for what the object header names: its size (computed from the
// shape), its bump block (a slot of the heap's block table, reused as
// blocks are freed and carved), and, during a copying collection, its
// forwarding address.
//
//===----------------------------------------------------------------------===//

#include "runtime/Heap.h"
#include "runtime/HeapVerifier.h"
#include "runtime/Mutator.h"

#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

using namespace dtb;
using namespace dtb::runtime;

namespace {

void expectVerified(const Heap &H, const std::string &Where) {
  VerifyResult Result = verifyHeap(H);
  EXPECT_TRUE(Result.Ok) << Where << ": "
                         << (Result.Problems.empty() ? ""
                                                     : Result.Problems.front());
}

} // namespace

//===----------------------------------------------------------------------===//
// The size is computed from the shape
//===----------------------------------------------------------------------===//

TEST(ObjectHeaderTest, GrossBytesIsComputedFromTheShape) {
  HeapConfig Config;
  Config.TriggerBytes = 0;
  Heap H(Config);
  const uint32_t Slots[] = {0, 1, 2, 3, 7, 64, 1000};
  const uint32_t Raws[] = {0, 1, 7, 8, 9, 100, 4096, 20'000};
  for (uint32_t NumSlots : Slots)
    for (uint32_t RawBytes : Raws) {
      Object *O = H.allocate(NumSlots, RawBytes);
      EXPECT_EQ(O->numSlots(), NumSlots);
      EXPECT_EQ(O->rawBytes(), RawBytes);
      EXPECT_EQ(O->grossBytes(),
                Object::grossBytesFor(O->numSlots(), O->rawBytes()));
    }
  // The largest shape the header admits (~384 MB, freed right after).
  Object *Max = H.allocate(Object::MaxSlots, Object::MaxRaw);
  EXPECT_EQ(Max->numSlots(), Object::MaxSlots);
  EXPECT_EQ(Max->rawBytes(), Object::MaxRaw);
  EXPECT_EQ(Max->grossBytes(),
            Object::grossBytesFor(Max->numSlots(), Max->rawBytes()));
  // The verifier sums the computed sizes against the bytes charged.
  expectVerified(H, "after allocating every shape");
  H.collectAtBoundary(0);
  EXPECT_EQ(H.residentObjects(), 0u);
}

//===----------------------------------------------------------------------===//
// Block identity: slots of the block table are reused
//===----------------------------------------------------------------------===//

namespace {

struct BlockCase {
  CollectorKind Collector;
  /// 0 = the direct Heap API; N = N contexts driven round-robin.
  unsigned Contexts;
  unsigned Lanes;
};

std::string blockCaseName(const testing::TestParamInfo<BlockCase> &Info) {
  return std::string(Info.param.Collector == CollectorKind::Copying
                         ? "Copying"
                         : "MarkSweep") +
         (Info.param.Contexts == 0
              ? std::string("Direct")
              : std::to_string(Info.param.Contexts) + "Contexts") +
         std::to_string(Info.param.Lanes) + "Lanes";
}

/// Every block-interior object lies in the block its header names, the
/// resident ranges are sorted and disjoint, and the heap verifies (which
/// also checks each block's live count). Returns the resident blocks.
size_t expectBlockIdentity(const Heap &H, const std::string &Where) {
  SCOPED_TRACE(Where);
  std::vector<Heap::BlockInfo> Table = H.blockTable();
  for (const Object *O : H.objects()) {
    if (O->storageKind() != Object::StorageTlab)
      continue;
    const char *Begin = reinterpret_cast<const char *>(O);
    EXPECT_LT(O->blockSlot(), Table.size());
    if (O->blockSlot() >= Table.size())
      continue;
    const Heap::BlockInfo &Block = Table[O->blockSlot()];
    EXPECT_NE(Block.Begin, nullptr) << "object names a freed block";
    EXPECT_GE(Begin, static_cast<const char *>(Block.Begin));
    EXPECT_LE(Begin + O->grossBytes(), static_cast<const char *>(Block.End));
  }
  std::vector<std::pair<const void *, const void *>> Ranges =
      H.tlabBlockRanges();
  for (size_t I = 1; I < Ranges.size(); ++I)
    EXPECT_LE(Ranges[I - 1].second, Ranges[I].first)
        << "block ranges unsorted or overlapping";
  expectVerified(H, Where);
  return Ranges.size();
}

class BlockSlotReuseTest : public testing::TestWithParam<BlockCase> {};

} // namespace

TEST_P(BlockSlotReuseTest, SlotsAreReusedAcrossCarveFreeCycles) {
  const BlockCase Case = GetParam();
  HeapConfig Config;
  Config.TriggerBytes = 0; // Collections are explicit.
  Config.Collector = Case.Collector;
  Config.TraceThreads = Case.Lanes;
  Heap H(Config);
  HandleScope Scope(H);
  std::vector<std::unique_ptr<MutatorContext>> Contexts;
  for (unsigned I = 0; I != Case.Contexts; ++I) {
    Contexts.push_back(std::make_unique<MutatorContext>(H));
    Contexts.back()->addRoot();
  }
  Object *&DirectRoot = Scope.slot(nullptr);

  // Each round links a fresh chain per allocator, keeps or drops the old
  // one, and buries it in garbage: ~6 blocks of storage per allocator
  // per round, most of which dies at the next collection.
  Rng R(0x5107 + Case.Contexts * 16 + Case.Lanes);
  size_t PeakBound = 0;
  for (int Round = 0; Round != 24; ++Round) {
    const bool KeepOld = R.nextBool(0.3);
    for (unsigned A = 0; A != std::max(1u, Case.Contexts); ++A) {
      MutatorContext *Ctx = Case.Contexts ? Contexts[A].get() : nullptr;
      Object *&Root = Ctx ? Ctx->root(0) : DirectRoot;
      Object *Head = KeepOld ? Root : nullptr;
      for (int I = 0; I != 600; ++I) {
        uint32_t NumSlots = 1 + static_cast<uint32_t>(R.nextBelow(3));
        uint32_t RawBytes = static_cast<uint32_t>(R.nextBelow(200));
        if (I % 3 != 0) { // Garbage.
          if (Ctx)
            Ctx->allocate(NumSlots, RawBytes);
          else
            H.allocate(NumSlots, RawBytes);
          continue;
        }
        Object *N = Ctx ? Ctx->allocate(NumSlots, RawBytes)
                        : H.allocate(NumSlots, RawBytes);
        if (Ctx)
          Ctx->writeSlot(N, 0, Head);
        else
          H.writeSlot(N, 0, Head);
        Head = N;
      }
      Root = Head; // No trigger: raw pointers stay valid until collect.
    }
    size_t Before = 0;
    H.runAtSafepoint([&](Heap &Stopped) {
      Before = expectBlockIdentity(Stopped, "before round " +
                                                std::to_string(Round));
    });
    H.collectAtBoundary(Round % 2 == 0 ? 0 : H.now() / 2);
    size_t After =
        expectBlockIdentity(H, "after round " + std::to_string(Round));
    // Between these two points the table holds at most the blocks
    // resident before the collection plus those it carved for copies,
    // which are all still resident after it.
    PeakBound = std::max(PeakBound, Before + After);
  }

  // A carve takes a freed slot before it grows the table, so the table
  // never outgrows the peak number of resident blocks, while the run
  // carved and freed many times that number.
  const size_t TableSize = H.blockTable().size();
  EXPECT_LE(TableSize, PeakBound);
  if (Case.Collector == CollectorKind::MarkSweep && Case.Contexts == 0) {
    // A mark-sweep heap's direct allocations keep dedicated storage.
    EXPECT_EQ(TableSize, 0u);
    for (const Object *O : H.objects())
      EXPECT_EQ(O->storageKind(), Object::StorageOwn);
  } else {
    EXPECT_GE(H.now() / Heap::BlockBytes, 4 * TableSize)
        << "too few carve/free cycles to exercise slot reuse";
  }

  // With nothing rooted, a full collection frees every retired block.
  DirectRoot = nullptr;
  for (auto &Ctx : Contexts)
    Ctx->truncateRoots(0);
  H.collectAtBoundary(0);
  EXPECT_EQ(H.residentObjects(), 0u);
  expectBlockIdentity(H, "after the final full collection");
  Contexts.clear();
  EXPECT_LE(H.tlabBlockRanges().size(), 1u) << "an empty block stayed";
}

INSTANTIATE_TEST_SUITE_P(
    Heaps, BlockSlotReuseTest,
    testing::Values(BlockCase{CollectorKind::MarkSweep, 0, 1},
                    BlockCase{CollectorKind::MarkSweep, 0, 4},
                    BlockCase{CollectorKind::MarkSweep, 2, 1},
                    BlockCase{CollectorKind::MarkSweep, 2, 4},
                    BlockCase{CollectorKind::Copying, 0, 1},
                    BlockCase{CollectorKind::Copying, 0, 4},
                    BlockCase{CollectorKind::Copying, 2, 1},
                    BlockCase{CollectorKind::Copying, 2, 4}),
    blockCaseName);

//===----------------------------------------------------------------------===//
// Forwarding through the header
//===----------------------------------------------------------------------===//

namespace {

/// Per collection of the fan-in script: the numbers that must not depend
/// on the lane count.
std::vector<std::vector<uint64_t>> runFanIn(unsigned Lanes) {
  HeapConfig Config;
  Config.TriggerBytes = 0;
  Config.Collector = CollectorKind::Copying;
  Config.TraceThreads = Lanes;
  Heap H(Config);
  HandleScope Scope(H);
  constexpr uint32_t Sources = 512;
  constexpr uint32_t Targets = 64;
  constexpr uint32_t Fan = 64;

  // A rooted spine names 512 sources, each with 64 slots into the same
  // 64 targets. The sources' round holds 512 items with 32,768 slots, so
  // the lanes scan it in parallel, and each target's claim is raced by
  // every lane that meets it: the losers wait on the header's forwarded
  // (or, for the pinned target, marked) bit. Sources are older than the
  // targets, so every source slot is also a remembered entry, rekeyed
  // through the header once the source moved.
  Object *&Spine = Scope.slot(H.allocate(Sources));
  for (uint32_t S = 0; S != Sources; ++S)
    H.writeSlot(Spine, S, H.allocate(Fan, 8));
  std::vector<Object *> Target(Targets);
  for (uint32_t T = 0; T != Targets; ++T) {
    Target[T] = H.allocate(1, 16);
    std::memcpy(Target[T]->rawData(), &T, sizeof(T));
  }
  H.pinObject(Target[0]);
  WeakRef ToTarget(H, Target[1]);
  for (uint32_t S = 0; S != Sources; ++S)
    for (uint32_t I = 0; I != Fan; ++I)
      H.writeSlot(Spine->slot(S), I, Target[(S * 7 + I) % Targets]);

  std::vector<std::vector<uint64_t>> Records;
  for (int Round = 0; Round != 4; ++Round) {
    for (int I = 0; I != 200; ++I)
      H.allocate(2, 40); // Garbage.
    Object *PinnedBefore = Spine->slot(0)->slot(0);
    core::ScavengeRecord Record = H.collectAtBoundary(0);
    std::string Where = "after collection " + std::to_string(Round);
    SCOPED_TRACE(Where);
    expectVerified(H, Where);

    // Every slot naming target T now names T's one survivor.
    std::vector<Object *> Survivor(Targets, nullptr);
    for (uint32_t S = 0; S != Sources; ++S)
      for (uint32_t I = 0; I != Fan; ++I) {
        uint32_t T = (S * 7 + I) % Targets;
        Object *Seen = Spine->slot(S)->slot(I);
        EXPECT_TRUE(Seen && Seen->isAlive());
        if (!Survivor[T])
          Survivor[T] = Seen;
        EXPECT_EQ(Seen, Survivor[T]) << "target " << T << " was copied twice";
      }
    for (uint32_t T = 0; T != Targets; ++T) {
      uint32_t Payload = ~0u;
      std::memcpy(&Payload, Survivor[T]->rawData(), sizeof(Payload));
      EXPECT_EQ(Payload, T);
      EXPECT_EQ(Survivor[T]->traceFlags(), 0u);
    }
    EXPECT_EQ(Survivor[0], PinnedBefore) << "the pinned target moved";
    EXPECT_EQ(ToTarget.get(), Survivor[1]);
    const CollectionStats &Stats = H.lastCollectionStats();
    Records.push_back({Record.TracedBytes, Record.ReclaimedBytes,
                       Record.SurvivedBytes, Stats.ObjectsMoved,
                       Stats.ObjectsTraced, Stats.RememberedSetPruned,
                       H.rememberedSet().size(), H.residentObjects()});
  }
  H.unpinObject(Spine->slot(0)->slot(0));
  return Records;
}

} // namespace

TEST(HeaderForwardingTest, FanInLosersWaitOnTheHeader) {
  std::vector<std::vector<uint64_t>> Serial = runFanIn(1);
  std::vector<std::vector<uint64_t>> Parallel = runFanIn(4);
  ASSERT_EQ(Serial.size(), 4u);
  EXPECT_EQ(Serial[0][3], 512u + 63u + 1u) << "sources, unpinned targets, "
                                              "spine";
  EXPECT_EQ(Serial, Parallel) << "records differ across lane counts";
}

TEST(HeaderForwardingTest, QuarantinedOriginalsKeepTheirOwnShape) {
  HeapConfig Config;
  Config.TriggerBytes = 0;
  Config.QuarantineFreedObjects = true;
  Config.Collector = CollectorKind::Copying;
  Heap H(Config);
  HandleScope Scope(H);

  struct Shape {
    uint32_t NumSlots;
    uint32_t RawBytes;
  };
  const Shape Shapes[] = {{0, 0}, {1, 0}, {0, 1}, {3, 5}, {2, 40}, {0, 9'000}};
  std::vector<Object **> Handles;
  std::vector<Object *> Originals;
  for (const Shape &S : Shapes) {
    Object *&Handle = Scope.slot(H.allocate(S.NumSlots, S.RawBytes));
    std::memset(Handle->rawData(), 0x5A, S.RawBytes);
    Handles.push_back(&Handle);
    Originals.push_back(Handle);
  }
  // Slots name younger survivors, so each original's slots held pointers.
  for (size_t I = 0; I + 1 < Handles.size(); ++I)
    for (uint32_t J = 0; J != (*Handles[I])->numSlots(); ++J)
      H.writeSlot(*Handles[I], J, *Handles[I + 1]);

  H.collectAtBoundary(0);
  expectVerified(H, "after the collection");
  for (size_t I = 0; I != Handles.size(); ++I) {
    SCOPED_TRACE("shape " + std::to_string(I));
    const Object *Copy = *Handles[I];
    const Object *Original = Originals[I];
    ASSERT_NE(Copy, Original);
    // The canary catches the stale pointer...
    EXPECT_TRUE(Copy->isAlive());
    EXPECT_FALSE(Original->isAlive());
    // ...and the original was poisoned by its own shape, not by its
    // forwarding address.
    EXPECT_EQ(Original->numSlots(), Shapes[I].NumSlots);
    EXPECT_EQ(Original->rawBytes(), Shapes[I].RawBytes);
    EXPECT_EQ(Original->grossBytes(), Copy->grossBytes());
    EXPECT_EQ(Original->traceFlags(), 0u);
    const auto *Slots = reinterpret_cast<Object *const *>(Original + 1);
    for (uint32_t J = 0; J != Shapes[I].NumSlots; ++J)
      EXPECT_EQ(Slots[J], nullptr) << "slot " << J << " not poisoned";
    const auto *Raw = static_cast<const unsigned char *>(Original->rawData());
    EXPECT_TRUE(std::all_of(Raw, Raw + Shapes[I].RawBytes,
                            [](unsigned char B) { return B == 0xDB; }));
    const auto *Moved = static_cast<const unsigned char *>(Copy->rawData());
    EXPECT_TRUE(std::all_of(Moved, Moved + Shapes[I].RawBytes,
                            [](unsigned char B) { return B == 0x5A; }));
  }

  // A stale original stored back into the heap is use-after-free, and the
  // verifier reports it through the canary.
  H.dangerouslyWriteSlotWithoutBarrier(*Handles[1], 0, Originals[2]);
  VerifyResult Result = verifyHeap(H);
  EXPECT_FALSE(Result.Ok);
  bool Reported = std::any_of(
      Result.Problems.begin(), Result.Problems.end(),
      [](const std::string &P) {
        return P.find("use-after-free") != std::string::npos;
      });
  EXPECT_TRUE(Reported);
}
