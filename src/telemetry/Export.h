//===- telemetry/Export.h - Telemetry exporters ----------------*- C++ -*-===//
//
// Part of the dtbgc project (Barrett & Zorn DTB reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reduces a sorted event stream and a metrics snapshot to the three
/// supported output formats:
///
///  * Chrome trace-event JSON — loadable in Perfetto / about://tracing:
///    scavenge spans ('X'), TB-decision and degradation instants ('i'),
///    and resident-byte counter series ('C'), one named Chrome "thread"
///    per track.
///  * CSV time series — one row per event, args flattened.
///  * Summary tables (support/Table) — per-(track, event) counts and
///    duration quantiles, plus the metrics registry.
///
/// All exporters consume the deterministic sorted() ordering; metrics with
/// the "wall." prefix are wall-clock-derived and skipped unless
/// IncludeWallClock is set (see Telemetry.h on determinism).
///
//===----------------------------------------------------------------------===//

#ifndef DTB_TELEMETRY_EXPORT_H
#define DTB_TELEMETRY_EXPORT_H

#include "support/Table.h"
#include "telemetry/Telemetry.h"

#include <cstdio>
#include <string>
#include <vector>

namespace dtb {
namespace telemetry {

/// Exporter knobs shared by the formats.
struct ExportOptions {
  /// Include "wall." metrics (and any "wall/..." tracks) in the output.
  /// Off by default: wall values differ run to run, everything else is
  /// deterministic.
  bool IncludeWallClock = false;
};

/// Writes Chrome trace-event JSON ({"traceEvents": [...]}) for \p Events
/// (already sorted; see EventBuffer::sorted). Logical clocks are exported
/// as microseconds: 1 byte of allocation = 1 us, pause durations at the
/// machine model's ms scaled to us.
void writeChromeTrace(const std::vector<Event> &Events,
                      const std::vector<MetricSample> &Metrics,
                      const ExportOptions &Options, std::FILE *Out);

/// Writes one CSV row per event: track, scavenge index, phase, name, ts,
/// duration (ms), then "key=value" args joined with ';'.
void writeCsv(const std::vector<Event> &Events, const ExportOptions &Options,
              std::FILE *Out);

/// Per-(track, name) aggregation of the event stream: count and — for
/// spans — exact duration quantiles via SampleSet, so pause quantiles here
/// match the paper-table benches bit for bit.
Table buildEventSummaryTable(const std::vector<Event> &Events,
                             const ExportOptions &Options);

/// The metrics registry rendered as a table (counters/gauges: value;
/// histograms: count, mean, p50/p90/p99, max).
Table buildMetricsTable(const std::vector<MetricSample> &Metrics,
                        const ExportOptions &Options);

/// Flat JSON object {"metrics": {name: value | {histogram...}}}: a
/// registry snapshot in machine-readable form.
void writeMetricsJson(const std::vector<MetricSample> &Metrics,
                      const ExportOptions &Options, std::FILE *Out);

/// JSON string escaping for the exporters (shared with tests).
std::string escapeJson(const std::string &Text);

} // namespace telemetry
} // namespace dtb

#endif // DTB_TELEMETRY_EXPORT_H
