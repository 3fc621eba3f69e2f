//===- runtime/EpochDemographics.cpp --------------------------------------==//

#include "runtime/EpochDemographics.h"

#include <algorithm>
#include <cassert>

using namespace dtb;
using namespace dtb::runtime;
using core::AllocClock;

uint64_t
EpochDemographics::liveBytesBornAfter(AllocClock Boundary) const {
  // Epochs starting at-or-after the boundary (one strictly containing it
  // is left out) plus the open epoch's untraced allocation.
  size_t First = static_cast<size_t>(
      std::lower_bound(EpochStarts.begin(), EpochStarts.end(), Boundary) -
      EpochStarts.begin());
  return BytesSinceLastScavenge + PrefixSums.back() - PrefixSums[First];
}

void EpochDemographics::beginScavenge(AllocClock Boundary) {
  assert(EpochStarts.size() == LiveEstimates.size());
  // Every epoch starting at-or-after the boundary is re-measured. So is
  // the epoch strictly containing the boundary (its start lies before the
  // boundary): survivors of its threatened part will be re-added, which
  // slightly undercounts its immune live bytes — the threatened-trace
  // estimate should exclude those anyway. A boundary sitting exactly on an
  // epoch start leaves the preceding (fully immune) epoch untouched.
  size_t First = static_cast<size_t>(
      std::lower_bound(EpochStarts.begin(), EpochStarts.end(), Boundary) -
      EpochStarts.begin());
  if (First == EpochStarts.size() || EpochStarts[First] != Boundary)
    First -= 1; // EpochStarts[0] == 0 <= Boundary, so First > 0 here.
  std::fill(LiveEstimates.begin() + static_cast<ptrdiff_t>(First),
            LiveEstimates.end(), 0);
  FirstRemeasured = First;
  Cursor = First;
}

void EpochDemographics::endScavenge(AllocClock Now) {
  assert(Now >= EpochStarts.back());
  for (size_t I = FirstRemeasured; I != LiveEstimates.size(); ++I)
    PrefixSums[I + 1] = PrefixSums[I] + LiveEstimates[I];
  EpochStarts.push_back(Now);
  LiveEstimates.push_back(0);
  PrefixSums.push_back(PrefixSums.back());
  FirstRemeasured = LiveEstimates.size();
  BytesSinceLastScavenge = 0;
}
