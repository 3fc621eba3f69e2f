//===- telemetry/TelemetryCli.cpp -----------------------------------------==//

#include "telemetry/TelemetryCli.h"

#include "support/CommandLine.h"
#include "telemetry/Export.h"
#include "telemetry/Telemetry.h"

#include <cerrno>
#include <cstdio>
#include <cstring>

using namespace dtb;
using namespace dtb::telemetry;

void dtb::telemetry::addTelemetryOptions(OptionParser &Parser,
                                         TelemetryOptions *Options) {
  Parser.addString("telemetry-out",
                   "Write telemetry here on exit ('-' = stdout); enables "
                   "recording",
                   &Options->OutPath);
  Parser.addString("telemetry-format",
                   "Telemetry export format: trace (Chrome/Perfetto JSON), "
                   "csv, or table",
                   &Options->Format);
  Parser.addFlag("telemetry-wallclock",
                 "Include wall-clock metrics and per-thread latency tracks "
                 "in the export (nondeterministic)",
                 &Options->WallClock);
}

TelemetrySession::TelemetrySession(TelemetryOptions InOptions)
    : Options(std::move(InOptions)) {
  if (Options.OutPath.empty())
    return;
  if (Options.Format != "trace" && Options.Format != "csv" &&
      Options.Format != "table") {
    std::fprintf(stderr,
                 "error: unknown --telemetry-format '%s' (expected trace, "
                 "csv, or table)\n",
                 Options.Format.c_str());
    Valid = false;
    return;
  }
  recorder().setWallClockExport(Options.WallClock);
  recorder().enable();
  Active = true;
}

TelemetrySession::~TelemetrySession() {
  if (!Active)
    return;
  recorder().disable();

  std::FILE *Out = stdout;
  bool Close = false;
  if (Options.OutPath != "-") {
    Out = std::fopen(Options.OutPath.c_str(), "w");
    if (!Out) {
      std::fprintf(stderr, "error: cannot write telemetry to '%s': %s\n",
                   Options.OutPath.c_str(), std::strerror(errno));
      return;
    }
    Close = true;
  }

  std::vector<Event> Events = recorder().buffer().sorted();
  std::vector<MetricSample> Metrics = MetricsRegistry::global().snapshot();
  ExportOptions ExportOpts;
  ExportOpts.IncludeWallClock = Options.WallClock;
  if (Options.Format == "trace") {
    writeChromeTrace(Events, Metrics, ExportOpts, Out);
  } else if (Options.Format == "csv") {
    writeCsv(Events, ExportOpts, Out);
  } else {
    std::fprintf(Out, "Telemetry events (%zu):\n\n", Events.size());
    buildEventSummaryTable(Events, ExportOpts).print(Out);
    std::fprintf(Out, "\nMetrics:\n\n");
    buildMetricsTable(Metrics, ExportOpts).print(Out);
  }
  if (Close)
    std::fclose(Out);
  recorder().buffer().clear();
}
