//===- runtime/Object.h - Managed heap object layout -----------*- C++ -*-===//
//
// Part of the dtbgc project (Barrett & Zorn DTB reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The managed object model. Every object is a header followed by its
/// payload: NumSlots pointer slots (references to other managed objects)
/// and then RawBytes of uninterpreted data. The header carries the object's
/// exact *birth time* on the allocation clock — the property the dynamic
/// threatening boundary collector depends on (§4.2 of the paper: exact
/// ages model a generational collector with arbitrarily many generations).
///
//===----------------------------------------------------------------------===//

#ifndef DTB_RUNTIME_OBJECT_H
#define DTB_RUNTIME_OBJECT_H

#include "core/AllocClock.h"
#include "support/Error.h"

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>

namespace dtb {
namespace runtime {

/// A managed heap object. Instances are created only by Heap::allocate;
/// pointer slots must be written through Heap::writeSlot so the write
/// barrier can maintain the remembered set.
class Object {
public:
  /// Header canary values: catches use-after-free and wild pointers in
  /// debug/verification runs.
  static constexpr uint16_t MagicAlive = 0xD7B1;
  static constexpr uint16_t MagicDead = 0xDEAD;

  enum : uint8_t {
    FlagMarked = 1u << 0,
    /// Transient evacuation claim: the copying collector's lanes race a
    /// fetch_or on this bit to decide which lane copies the object. Never
    /// set outside a collection; cleared (with FlagMarked) at sweep.
    FlagClaimed = 1u << 1,
    /// The claiming lane wrote the copy's address over the shape word;
    /// Magic, Storage, Block and Birth stay readable. Cleared at release.
    FlagForwarded = 1u << 2,
    TraceFlags = FlagMarked | FlagClaimed | FlagForwarded,
    /// Heap::pinObject set it and unpinObject clears it, both outside
    /// collections; no sweep or abort clears it, and a collection only
    /// reads it (a pinned object is traced in place, never copied).
    FlagPinned = 1u << 3,
  };

  /// Where the object's storage came from — decides how releaseStorage
  /// returns it.
  enum : uint8_t {
    /// A dedicated ::operator new block; released individually.
    StorageOwn = 0,
    /// Interior to a bump block (blockSlot()): a MutatorContext's TLAB,
    /// or on a copying heap the heap's direct-allocation block or a trace
    /// lane's evacuation block. The block is released when its last
    /// object dies after the block was retired, never per-object.
    StorageTlab = 1,
  };

  /// Payload bounds (see grossBytesFor).
  static constexpr uint32_t MaxSlots = 1u << 24;
  static constexpr uint32_t MaxRaw = 1u << 28;

  /// The storage kind (StorageOwn / StorageTlab).
  uint8_t storageKind() const { return Storage; }
  /// A StorageTlab object's block: its slot in the heap's block table.
  uint32_t blockSlot() const { return Block; }

  uint32_t numSlots() const { return static_cast<uint32_t>(Shape); }
  uint32_t rawBytes() const { return static_cast<uint32_t>(Shape >> 32); }
  /// Total footprint (header + slots + raw data), computed from the shape
  /// — the "size" the collector accounts in bytes traced and reclaimed.
  uint32_t grossBytes() const {
    return static_cast<uint32_t>(sizeof(Object)) +
           numSlots() * static_cast<uint32_t>(sizeof(Object *)) + rawBytes();
  }
  /// The footprint of a new object. Payloads are bounded so it fits 32
  /// bits; a request past the bounds is a usage error, not memory
  /// pressure, so it is fatal even on the recoverable allocation paths.
  static uint64_t grossBytesFor(uint32_t NumSlots, uint32_t RawBytes) {
    if (NumSlots > MaxSlots || RawBytes > MaxRaw)
      fatalError("allocation exceeds object size limits");
    return sizeof(Object) +
           static_cast<uint64_t>(NumSlots) * sizeof(Object *) + RawBytes;
  }
  /// The allocation-clock value at which this object was born.
  core::AllocClock birth() const { return Birth; }

  bool isAlive() const { return Magic == MagicAlive; }
  bool isMarked() const { return (Flags & FlagMarked) != 0; }
  bool isPinned() const { return (Flags & FlagPinned) != 0; }
  /// Raw trace bits, for the verifier's flag-hygiene check (no resident
  /// object may carry any of them outside a collection).
  uint8_t traceFlags() const { return Flags & TraceFlags; }

  /// Reads pointer slot \p Index (no barrier needed for reads).
  Object *slot(uint32_t Index) const {
    assert(isAlive() && "reading slot of a dead object");
    assert(Index < numSlots() && "slot index out of range");
    return slots()[Index];
  }

  /// The raw-data area (RawBytes bytes, after the slots).
  void *rawData() {
    return reinterpret_cast<char *>(slots() + numSlots());
  }
  const void *rawData() const {
    return reinterpret_cast<const char *>(slots() + numSlots());
  }

private:
  friend class Heap;
  friend class MutatorContext;

  Object() = default;

  Object **slots() const {
    return reinterpret_cast<Object **>(
        const_cast<char *>(reinterpret_cast<const char *>(this + 1)));
  }

  void setSlotRaw(uint32_t Index, Object *Value) {
    assert(Index < numSlots() && "slot index out of range");
    slots()[Index] = Value;
  }

  void setMarked() { Flags |= FlagMarked; }
  void clearMarked() { Flags &= static_cast<uint8_t>(~FlagMarked); }

  /// Atomically sets \p Flag on the header and returns the flags as they
  /// were: the caller "claimed" the object iff \p Flag was clear, and the
  /// other bits (FlagPinned) come with the same read-modify-write.
  /// Parallel trace rounds race this on FlagMarked (mark-sweep) or
  /// FlagClaimed (copying); all flag mutations during a round must go
  /// through the atomic helpers so plain and concurrent accesses never
  /// mix. Phases that run while no lane does may use plain stores.
  uint8_t fetchSetFlag(uint8_t Flag) {
    std::atomic_ref<uint8_t> F(Flags);
    return F.fetch_or(Flag, std::memory_order_acq_rel);
  }
  bool tryAcquireFlag(uint8_t Flag) { return (fetchSetFlag(Flag) & Flag) == 0; }

  /// Atomically sets \p Flag without caring who wins (e.g. a claiming lane
  /// also marking a pinned object it traces in place).
  void setFlagAtomic(uint8_t Flag) {
    std::atomic_ref<uint8_t> F(Flags);
    F.fetch_or(Flag, std::memory_order_acq_rel);
  }

  /// Where a claimed threatened object lives after a copying collection:
  /// its copy when forwarded, itself when a pinned winner marked it in
  /// place, else null (not yet published; after the trace, dead). The
  /// acquire load lets a lane that lost the claim wait on it.
  Object *relocation() {
    return relocationFrom(
        std::atomic_ref<uint8_t>(Flags).load(std::memory_order_acquire));
  }
  /// relocation() as the flags \p F, already read, say.
  Object *relocationFrom(uint8_t F) {
    if (F & FlagForwarded)
      return reinterpret_cast<Object *>(Shape);
    return (F & FlagMarked) ? this : nullptr;
  }

  /// Clears every trace-time flag. Sweep-only; runs after all lanes have
  /// joined, so a plain store is safe.
  void clearTraceFlags() { Flags &= static_cast<uint8_t>(~TraceFlags); }

  uint16_t Magic = MagicAlive;
  uint8_t Flags = 0;
  uint8_t Storage = StorageOwn;
  uint32_t Block = 0;
  /// NumSlots in the low half and RawBytes in the high half, or, while
  /// FlagForwarded is set, the copy's address (8-byte aligned).
  uint64_t Shape = 0;
  core::AllocClock Birth = 0;
};

static_assert(sizeof(Object) == 24, "object header grew unexpectedly");

/// Asks the cache for \p O's header ahead of its use. Only a hint: it never
/// reads through the pointer, so a null or stale \p O is harmless.
inline void prefetchHeader(const Object *O) { __builtin_prefetch(O); }

} // namespace runtime
} // namespace dtb

#endif // DTB_RUNTIME_OBJECT_H
