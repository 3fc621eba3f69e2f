//===- runtime/RememberedSet.h - Forward-in-time pointer set ---*- C++ -*-===//
//
// Part of the dtbgc project (Barrett & Zorn DTB reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The single unified remembered set of §4.2: because the threatening
/// boundary can move to *any* time before each scavenge, the write barrier
/// records every forward-in-time pointer store (an older object made to
/// point at a younger one), not just stores that cross a fixed generation
/// boundary. At scavenge time the entries whose source is immune and whose
/// current value crosses the boundary act as additional roots.
///
/// Entries are (source object, slot index); the pointed-to value is read
/// fresh at scavenge time, so overwritten slots simply make an entry
/// stale, and stale entries are pruned during each scavenge.
///
//===----------------------------------------------------------------------===//

#ifndef DTB_RUNTIME_REMEMBEREDSET_H
#define DTB_RUNTIME_REMEMBEREDSET_H

#include "runtime/Object.h"

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace dtb {
namespace runtime {

/// Deduplicated set of (source, slot) pointer locations, grouped by source
/// so a dying source's entries can be dropped in O(slots).
class RememberedSet {
public:
  /// Records that \p Source's slot \p SlotIndex holds a forward-in-time
  /// pointer. Returns true if the entry is new.
  bool insert(Object *Source, uint32_t SlotIndex) {
    std::vector<uint32_t> &Slots = BySource[Source];
    if (std::find(Slots.begin(), Slots.end(), SlotIndex) != Slots.end())
      return false;
    Slots.push_back(SlotIndex);
    NumEntries += 1;
    return true;
  }

  /// Returns true if (Source, SlotIndex) is recorded.
  bool contains(const Object *Source, uint32_t SlotIndex) const {
    auto It = BySource.find(const_cast<Object *>(Source));
    if (It == BySource.end())
      return false;
    const std::vector<uint32_t> &Slots = It->second;
    return std::find(Slots.begin(), Slots.end(), SlotIndex) != Slots.end();
  }

  /// Drops every entry whose source is \p Source (used when the source
  /// dies).
  void removeSource(Object *Source) {
    auto It = BySource.find(Source);
    if (It == BySource.end())
      return;
    NumEntries -= It->second.size();
    BySource.erase(It);
  }

  /// How many entries ahead of the visited one forEachAndPrune calls its
  /// lookahead, within the same source's slot list.
  static constexpr size_t LookaheadEntries = 8;

  /// Visits every entry; \p Visitor(Source, SlotIndex) returns true to keep
  /// the entry and false to prune it. Before each visit, \p Ahead(Source,
  /// SlotIndex) is called on the entry LookaheadEntries further along the
  /// source's slots, if there is one: a chance to prefetch what that visit
  /// will read.
  template <typename VisitorT, typename AheadT>
  void forEachAndPrune(VisitorT Visitor, AheadT Ahead) {
    for (auto It = BySource.begin(); It != BySource.end();) {
      std::vector<uint32_t> &Slots = It->second;
      for (size_t I = 0; I != Slots.size();) {
        if (I + LookaheadEntries < Slots.size())
          Ahead(It->first, Slots[I + LookaheadEntries]);
        if (Visitor(It->first, Slots[I])) {
          ++I;
          continue;
        }
        Slots[I] = Slots.back();
        Slots.pop_back();
        NumEntries -= 1;
      }
      if (Slots.empty())
        It = BySource.erase(It);
      else
        ++It;
    }
  }

  /// Rewrites every source through \p Remap (old source -> new source, or
  /// nullptr to drop the source's entries). Used by the copying collector
  /// when sources move. Slot indices are preserved (payload layout is
  /// copied verbatim).
  template <typename RemapT> void remapSources(RemapT Remap) {
    std::unordered_map<Object *, std::vector<uint32_t>> NewBySource;
    NewBySource.reserve(BySource.size());
    size_t NewCount = 0;
    for (auto &[Source, Slots] : BySource) {
      Object *NewSource = Remap(Source);
      if (!NewSource)
        continue;
      NewCount += Slots.size();
      NewBySource[NewSource] = std::move(Slots);
    }
    BySource = std::move(NewBySource);
    NumEntries = NewCount;
  }

  /// Visits every entry without mutating the set.
  template <typename VisitorT> void forEach(VisitorT Visitor) const {
    for (const auto &[Source, Slots] : BySource)
      for (uint32_t SlotIndex : Slots)
        Visitor(Source, SlotIndex);
  }

  size_t size() const { return NumEntries; }
  bool empty() const { return NumEntries == 0; }
  void clear() {
    BySource.clear();
    NumEntries = 0;
  }

private:
  std::unordered_map<Object *, std::vector<uint32_t>> BySource;
  size_t NumEntries = 0;
};

} // namespace runtime
} // namespace dtb

#endif // DTB_RUNTIME_REMEMBEREDSET_H
