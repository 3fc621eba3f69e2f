//===- core/ScavengeReport.h - The events of one scavenge ------*- C++ -*-===//
//
// Part of the dtbgc project (Barrett & Zorn DTB reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The telemetry every scavenge reports, whichever producer ran it: a
/// `scavenge` span lasting the machine-model pause, and a `tb` instant
/// saying where the boundary landed and which policy rule put it there.
/// The simulator and the runtime both build them here, so a simulated run
/// and a real-runtime run line up event for event (DESIGN.md §10).
///
//===----------------------------------------------------------------------===//

#ifndef DTB_CORE_SCAVENGEREPORT_H
#define DTB_CORE_SCAVENGEREPORT_H

#include "core/BoundaryPolicy.h"
#include "core/ScavengeHistory.h"
#include "telemetry/Telemetry.h"

#include <string>
#include <vector>

namespace dtb {
namespace core {

/// Emits \p Record's `scavenge` span, lasting \p PauseMillis, and its `tb`
/// instant on \p Track. \p Details are producer-specific span args, placed
/// before `rule`. The instant carries whatever of \p Decision the policy
/// filled in: budgets, the candidate epoch, the live estimate and the
/// predictions (a default decision adds nothing). Callers check
/// telemetry::enabled() first.
void emitScavengeReport(const std::string &Track, const ScavengeRecord &Record,
                        double PauseMillis, const std::string &Rule,
                        const BoundaryDecision &Decision,
                        std::vector<telemetry::EventArg> Details = {});

} // namespace core
} // namespace dtb

#endif // DTB_CORE_SCAVENGEREPORT_H
