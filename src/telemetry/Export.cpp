//===- telemetry/Export.cpp -----------------------------------------------==//

#include "telemetry/Export.h"

#include "support/Statistics.h"

#include <algorithm>
#include <cinttypes>
#include <map>

using namespace dtb;
using namespace dtb::telemetry;

std::string dtb::telemetry::escapeJson(const std::string &Text) {
  std::string Out;
  Out.reserve(Text.size() + 2);
  for (char C : Text) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x",
                      static_cast<unsigned>(static_cast<unsigned char>(C)));
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  return Out;
}

namespace {

bool isWallTrack(const std::string &Track) {
  return Track.rfind("wall/", 0) == 0;
}

bool isWallMetric(const std::string &Name) {
  return Name.rfind("wall.", 0) == 0;
}

/// Args rendered as a JSON object body: "k": v, ... (no braces).
std::string argsJson(const std::vector<EventArg> &Args) {
  std::string Out;
  for (const EventArg &A : Args) {
    if (!Out.empty())
      Out += ", ";
    Out += '"';
    Out += escapeJson(A.Key);
    Out += "\": ";
    if (A.IsString) {
      Out += '"';
      Out += escapeJson(A.Value);
      Out += '"';
    } else {
      Out += A.Value;
    }
  }
  return Out;
}

/// Stable track -> Chrome tid mapping in first-appearance order of the
/// sorted stream (i.e. lexicographic by track name).
std::map<std::string, unsigned>
trackTids(const std::vector<Event> &Events, const ExportOptions &Options) {
  std::map<std::string, unsigned> Tids;
  for (const Event &E : Events) {
    if (!Options.IncludeWallClock && isWallTrack(E.Track))
      continue;
    Tids.emplace(E.Track, 0);
  }
  unsigned Next = 1;
  for (auto &Entry : Tids)
    Entry.second = Next++;
  return Tids;
}

} // namespace

void dtb::telemetry::writeChromeTrace(const std::vector<Event> &Events,
                                      const std::vector<MetricSample> &Metrics,
                                      const ExportOptions &Options,
                                      std::FILE *Out) {
  std::map<std::string, unsigned> Tids = trackTids(Events, Options);

  std::fputs("{\n\"traceEvents\": [", Out);
  bool First = true;
  auto comma = [&] {
    std::fputs(First ? "\n" : ",\n", Out);
    First = false;
  };

  // Thread-name metadata first: one named timeline per track.
  for (const auto &[Track, Tid] : Tids) {
    comma();
    std::fprintf(Out,
                 "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
                 "\"tid\": %u, \"args\": {\"name\": \"%s\"}}",
                 Tid, escapeJson(Track).c_str());
  }

  for (const Event &E : Events) {
    auto TidIt = Tids.find(E.Track);
    if (TidIt == Tids.end())
      continue; // Wall track excluded by options.
    comma();
    std::fprintf(Out,
                 "{\"name\": \"%s\", \"cat\": \"gc\", \"ph\": \"%c\", "
                 "\"pid\": 1, \"tid\": %u, \"ts\": %" PRIu64,
                 escapeJson(E.Name).c_str(), static_cast<char>(E.Phase),
                 TidIt->second, E.TsClock);
    if (E.Phase == EventPhase::Span)
      std::fprintf(Out, ", \"dur\": %.3f", E.DurMillis * 1000.0);
    if (E.Phase == EventPhase::Instant)
      std::fputs(", \"s\": \"t\"", Out);
    std::string Args = argsJson(E.Args);
    if (!Args.empty())
      std::fprintf(Out, ", \"args\": {%s}", Args.c_str());
    std::fputs("}", Out);
  }

  std::fputs("\n],\n\"displayTimeUnit\": \"ms\",\n\"otherData\": {", Out);
  bool FirstMetric = true;
  for (const MetricSample &M : Metrics) {
    if (!Options.IncludeWallClock && isWallMetric(M.Name))
      continue;
    if (M.InstrumentKind == MetricSample::Kind::Histogram)
      continue; // Histograms go to the table exporter.
    std::fprintf(Out, "%s\n\"%s\": %s", FirstMetric ? "" : ",",
                 escapeJson(M.Name).c_str(),
                 arg("", M.Value).Value.c_str());
    FirstMetric = false;
  }
  std::fputs("\n}\n}\n", Out);
}

void dtb::telemetry::writeCsv(const std::vector<Event> &Events,
                              const ExportOptions &Options, std::FILE *Out) {
  std::fputs("track,scavenge_index,phase,name,ts,dur_ms,args\n", Out);
  for (const Event &E : Events) {
    if (!Options.IncludeWallClock && isWallTrack(E.Track))
      continue;
    std::string Args;
    for (const EventArg &A : E.Args) {
      if (!Args.empty())
        Args += ';';
      Args += A.Key + "=" + A.Value;
    }
    std::fprintf(Out, "%s,%" PRIu64 ",%c,%s,%" PRIu64 ",%.6g,%s\n",
                 Table::csvField(E.Track).c_str(), E.ScavengeIndex,
                 static_cast<char>(E.Phase), Table::csvField(E.Name).c_str(),
                 E.TsClock, E.DurMillis, Table::csvField(Args).c_str());
  }
}

Table dtb::telemetry::buildEventSummaryTable(const std::vector<Event> &Events,
                                             const ExportOptions &Options) {
  // Aggregate per (track, name, phase). SampleSet supplies the quantiles —
  // the same nearest-rank code the paper-table benches use, so span
  // medians here equal Table 3 cells exactly.
  struct Aggregate {
    uint64_t Count = 0;
    SampleSet DurMillis;
  };
  std::map<std::pair<std::string, std::string>, Aggregate> Groups;
  for (const Event &E : Events) {
    if (!Options.IncludeWallClock && isWallTrack(E.Track))
      continue;
    Aggregate &A = Groups[{E.Track, E.Name}];
    A.Count += 1;
    if (E.Phase == EventPhase::Span)
      A.DurMillis.add(E.DurMillis);
  }

  Table T({"Track", "Event", "Count", "Median (ms)", "90th (ms)",
           "Max (ms)"});
  T.setAlignment(1, AlignKind::Left);
  for (const auto &[Key, A] : Groups) {
    bool HasDur = !A.DurMillis.empty();
    T.addRow({Key.first, Key.second, Table::cell(A.Count),
              HasDur ? Table::cell(A.DurMillis.median()) : "-",
              HasDur ? Table::cell(A.DurMillis.percentile90()) : "-",
              HasDur ? Table::cell(A.DurMillis.maxValue()) : "-"});
  }
  return T;
}

Table dtb::telemetry::buildMetricsTable(const std::vector<MetricSample> &Metrics,
                                        const ExportOptions &Options) {
  Table T({"Metric", "Kind", "Value", "Count", "Mean", "P50", "P90",
           "Max"});
  for (const MetricSample &M : Metrics) {
    if (!Options.IncludeWallClock && isWallMetric(M.Name))
      continue;
    switch (M.InstrumentKind) {
    case MetricSample::Kind::Counter:
      T.addRow({M.Name, "counter", Table::cell(M.Value), "-", "-", "-",
                "-", "-"});
      break;
    case MetricSample::Kind::Histogram: {
      double N = static_cast<double>(M.Count);
      T.addRow({M.Name, "histogram", "-", Table::cell(M.Count),
                Table::cell(M.Count ? M.Sum / N : 0.0, 1),
                Table::cell(M.P50, 1), Table::cell(M.P90, 1),
                Table::cell(M.Max, 1)});
      break;
    }
    }
  }
  return T;
}
