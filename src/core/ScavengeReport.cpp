//===- core/ScavengeReport.cpp --------------------------------------------==//

#include "core/ScavengeReport.h"

#include <iterator>

using namespace dtb;

void core::emitScavengeReport(const std::string &Track,
                              const ScavengeRecord &Record, double PauseMillis,
                              const std::string &Rule,
                              const BoundaryDecision &Decision,
                              std::vector<telemetry::EventArg> Details) {
  namespace tm = dtb::telemetry;
  tm::Event Pause;
  Pause.Phase = tm::EventPhase::Span;
  Pause.Track = Track;
  Pause.Name = "scavenge";
  Pause.ScavengeIndex = Record.Index;
  Pause.TsClock = Record.Time;
  Pause.DurMillis = PauseMillis;
  Pause.Args = {
      tm::arg("tb", Record.Boundary),
      tm::arg("window", Record.Time - Record.Boundary),
      tm::arg("traced_bytes", Record.TracedBytes),
      tm::arg("reclaimed_bytes", Record.ReclaimedBytes),
      tm::arg("survived_bytes", Record.SurvivedBytes),
      tm::arg("mem_before_bytes", Record.MemBeforeBytes),
  };
  Pause.Args.insert(Pause.Args.end(), std::make_move_iterator(Details.begin()),
                    std::make_move_iterator(Details.end()));
  Pause.Args.push_back(tm::arg("rule", Rule));
  tm::recorder().emit(std::move(Pause));

  tm::Event Tb;
  Tb.Phase = tm::EventPhase::Instant;
  Tb.Track = Track;
  Tb.Name = "tb";
  Tb.ScavengeIndex = Record.Index;
  Tb.TsClock = Record.Time;
  Tb.Args = {tm::arg("tb", Record.Boundary), tm::arg("rule", Rule)};
  if (Decision.TraceMaxBytes != 0)
    Tb.Args.push_back(tm::arg("trace_max_bytes", Decision.TraceMaxBytes));
  if (Decision.MemMaxBytes != 0)
    Tb.Args.push_back(tm::arg("mem_max_bytes", Decision.MemMaxBytes));
  if (Decision.CandidateEpoch >= 0)
    Tb.Args.push_back(tm::arg("candidate_epoch",
                              static_cast<uint64_t>(Decision.CandidateEpoch)));
  if (Decision.LiveEstimateBytes != 0)
    Tb.Args.push_back(
        tm::arg("live_estimate_bytes", Decision.LiveEstimateBytes));
  if (Decision.HasPrediction) {
    Tb.Args.push_back(
        tm::arg("predicted_traced_bytes", Decision.PredictedTracedBytes));
    Tb.Args.push_back(
        tm::arg("predicted_garbage_bytes", Decision.PredictedGarbageBytes));
  }
  tm::recorder().emit(std::move(Tb));
}
