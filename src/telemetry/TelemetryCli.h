//===- telemetry/TelemetryCli.h - Bench/example CLI wiring -----*- C++ -*-===//
//
// Part of the dtbgc project (Barrett & Zorn DTB reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The standard telemetry command line shared by every bench binary and
/// the simulate_trace example:
///
///   --telemetry-out <file|->      enable recording; export here on exit
///   --telemetry-format {trace,csv,table}   export format (default trace)
///   --telemetry-wallclock         include wall-clock metrics/tracks
///
/// Usage mirrors addThreadsOption: register the options, parse, then hold
/// a TelemetrySession for the rest of main() — its destructor sorts the
/// event buffer, writes the requested file, and disables the recorder, so
/// early returns still flush.
///
//===----------------------------------------------------------------------===//

#ifndef DTBGC_TELEMETRY_TELEMETRYCLI_H
#define DTBGC_TELEMETRY_TELEMETRYCLI_H

#include <string>

namespace dtb {

class OptionParser;

namespace telemetry {

/// Parsed values of the standard telemetry options.
struct TelemetryOptions {
  std::string OutPath;            // Empty: telemetry stays disabled.
  std::string Format = "trace";   // trace | csv | table.
  bool WallClock = false;
};

/// Registers --telemetry-out, --telemetry-format, --telemetry-wallclock.
void addTelemetryOptions(OptionParser &Parser, TelemetryOptions *Options);

/// Enables the global recorder per \p Options for one scope and exports on
/// destruction ("-" writes to stdout). Inactive (and free) when OutPath is
/// empty.
class TelemetrySession {
public:
  explicit TelemetrySession(TelemetryOptions Options);
  ~TelemetrySession();

  TelemetrySession(const TelemetrySession &) = delete;
  TelemetrySession &operator=(const TelemetrySession &) = delete;

  bool active() const { return Active; }
  /// False when --telemetry-format named an unknown format (a diagnostic
  /// was printed; the caller should exit nonzero).
  bool valid() const { return Valid; }

private:
  TelemetryOptions Options;
  bool Active = false;
  bool Valid = true;
};

} // namespace telemetry
} // namespace dtb

#endif // DTBGC_TELEMETRY_TELEMETRYCLI_H
