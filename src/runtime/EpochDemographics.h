//===- runtime/EpochDemographics.h - Survivor-table estimates --*- C++ -*-===//
//
// Part of the dtbgc project (Barrett & Zorn DTB reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The runtime's implementation of core::Demographics. A real collector
/// cannot know exactly how many live bytes were born after a candidate
/// boundary without tracing, so — like Ungar & Jackson's Feedback
/// Mediation — it keeps a *survivor table*: for each epoch (the interval
/// between two scavenge times) the live bytes observed the last time that
/// epoch was traced. Bytes allocated since the previous scavenge are
/// assumed live (they have not been traced yet).
///
/// Estimates for an epoch go stale until a scavenge threatens it again;
/// objects only die, so this overestimates, which errs toward shorter
/// pauses — the safe direction for the pause-constrained policies. A
/// scavenge costs O(threatened epochs + survivors), a query O(log epochs).
///
//===----------------------------------------------------------------------===//

#ifndef DTB_RUNTIME_EPOCHDEMOGRAPHICS_H
#define DTB_RUNTIME_EPOCHDEMOGRAPHICS_H

#include "core/BoundaryPolicy.h"

#include <cstdint>
#include <vector>

namespace dtb {
namespace runtime {

/// Live-byte estimates per scavenge epoch.
class EpochDemographics final : public core::Demographics {
public:
  EpochDemographics() { EpochStarts.push_back(0); }

  /// Estimated live bytes born strictly after \p Boundary: the sum of the
  /// estimates of every epoch starting at-or-after the boundary plus the
  /// untraced bytes allocated since the last scavenge. An epoch strictly
  /// containing the boundary is left out, so its survivors born after the
  /// boundary go uncounted (an undercount of at most that epoch).
  uint64_t liveBytesBornAfter(core::AllocClock Boundary) const override;

  /// Tells the table that \p Bytes were allocated since the last scavenge
  /// (all assumed live).
  void setBytesSinceLastScavenge(uint64_t Bytes) {
    BytesSinceLastScavenge = Bytes;
  }

  size_t numEpochs() const { return EpochStarts.size(); }
  core::AllocClock epochStart(size_t Index) const {
    return EpochStarts[Index];
  }

  /// Begins recording survivor bytes for a scavenge with the given
  /// boundary: zeroes the estimates of every epoch starting at-or-after
  /// the boundary, and of the epoch strictly containing it (they are about
  /// to be re-measured).
  void beginScavenge(core::AllocClock Boundary);

  /// Accumulates \p Bytes of marked (live) storage born at \p Birth, after
  /// the boundary; births arrive in order (the cursor only moves forward).
  /// A birth equal to an epoch start belongs to the previous epoch: an
  /// object born exactly at t_k was allocated before the scavenge at t_k.
  void recordSurvivor(core::AllocClock Birth, uint64_t Bytes) {
    while (Cursor + 1 != EpochStarts.size() && EpochStarts[Cursor + 1] < Birth)
      ++Cursor;
    LiveEstimates[Cursor] += Bytes;
  }

  /// Finishes the scavenge that ran at time \p Now: refreshes the prefix
  /// sums, opens the new empty epoch [Now, ...) and resets the
  /// since-allocation counter.
  void endScavenge(core::AllocClock Now);

  /// Copy of the per-epoch estimates, oldest epoch first.
  std::vector<uint64_t> liveEstimatesSnapshot() const {
    return LiveEstimates;
  }

private:
  /// Epoch i covers [EpochStarts[i], EpochStarts[i+1]) — the last epoch is
  /// open-ended.
  std::vector<core::AllocClock> EpochStarts;
  std::vector<uint64_t> LiveEstimates = {0};
  /// PrefixSums[i] = sum of LiveEstimates[0, i), stale from
  /// FirstRemeasured (the first zeroed epoch) until endScavenge.
  std::vector<uint64_t> PrefixSums = {0, 0};
  size_t FirstRemeasured = 1;
  size_t Cursor = 0; ///< Epoch recordSurvivor accumulates into.
  uint64_t BytesSinceLastScavenge = 0;
};

} // namespace runtime
} // namespace dtb

#endif // DTB_RUNTIME_EPOCHDEMOGRAPHICS_H
