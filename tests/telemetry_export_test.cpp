//===- tests/telemetry_export_test.cpp - Exporter correctness ------------===//
//
// Part of the dtbgc project (Barrett & Zorn DTB reproduction).
//
// The exporters on a small hand-built event stream: the Chrome trace JSON
// must parse back as well-formed JSON with the trace-event structure
// Perfetto expects (validated by a minimal recursive-descent parser — no
// third-party JSON dependency), the CSV matches golden strings and quotes
// per RFC 4180, and wall-clock tracks/metrics stay out unless opted in.
//
//===----------------------------------------------------------------------===//

#include "telemetry/Export.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

using namespace dtb;
namespace tel = dtb::telemetry;

namespace {

//===----------------------------------------------------------------------===//
// A minimal JSON model + recursive-descent parser (test-only)
//===----------------------------------------------------------------------===//

struct Json {
  enum class Kind { Null, Bool, Number, String, Array, Object } K = Kind::Null;
  bool B = false;
  double Num = 0.0;
  std::string Str;
  std::vector<Json> Items;
  std::map<std::string, Json> Fields;

  bool has(const std::string &Key) const { return Fields.count(Key) != 0; }
  const Json &at(const std::string &Key) const { return Fields.at(Key); }
};

class JsonParser {
public:
  explicit JsonParser(const std::string &Text) : Text(Text) {}

  /// Parses the whole document; false on any syntax error or trailing
  /// garbage.
  bool parse(Json *Out) {
    if (!value(Out))
      return false;
    skipSpace();
    return Pos == Text.size();
  }

private:
  void skipSpace() {
    while (Pos < Text.size() &&
           std::isspace(static_cast<unsigned char>(Text[Pos])))
      ++Pos;
  }

  bool consume(char C) {
    skipSpace();
    if (Pos >= Text.size() || Text[Pos] != C)
      return false;
    ++Pos;
    return true;
  }

  bool literal(const char *Word) {
    size_t Len = std::string(Word).size();
    if (Text.compare(Pos, Len, Word) != 0)
      return false;
    Pos += Len;
    return true;
  }

  bool string(std::string *Out) {
    if (!consume('"'))
      return false;
    Out->clear();
    while (Pos < Text.size()) {
      char C = Text[Pos++];
      if (C == '"')
        return true;
      if (static_cast<unsigned char>(C) < 0x20)
        return false; // Control characters must be escaped.
      if (C != '\\') {
        *Out += C;
        continue;
      }
      if (Pos >= Text.size())
        return false;
      char E = Text[Pos++];
      switch (E) {
      case '"': *Out += '"'; break;
      case '\\': *Out += '\\'; break;
      case '/': *Out += '/'; break;
      case 'b': *Out += '\b'; break;
      case 'f': *Out += '\f'; break;
      case 'n': *Out += '\n'; break;
      case 'r': *Out += '\r'; break;
      case 't': *Out += '\t'; break;
      case 'u': {
        if (Pos + 4 > Text.size())
          return false;
        unsigned Code = 0;
        for (int I = 0; I != 4; ++I) {
          char H = Text[Pos++];
          Code <<= 4;
          if (H >= '0' && H <= '9')
            Code |= static_cast<unsigned>(H - '0');
          else if (H >= 'a' && H <= 'f')
            Code |= static_cast<unsigned>(H - 'a' + 10);
          else if (H >= 'A' && H <= 'F')
            Code |= static_cast<unsigned>(H - 'A' + 10);
          else
            return false;
        }
        *Out += static_cast<char>(Code & 0x7f); // ASCII is all we emit.
        break;
      }
      default:
        return false;
      }
    }
    return false; // Unterminated.
  }

  bool value(Json *Out) {
    skipSpace();
    if (Pos >= Text.size())
      return false;
    char C = Text[Pos];
    if (C == '{')
      return object(Out);
    if (C == '[')
      return array(Out);
    if (C == '"') {
      Out->K = Json::Kind::String;
      return string(&Out->Str);
    }
    if (literal("true")) {
      Out->K = Json::Kind::Bool;
      Out->B = true;
      return true;
    }
    if (literal("false")) {
      Out->K = Json::Kind::Bool;
      Out->B = false;
      return true;
    }
    if (literal("null")) {
      Out->K = Json::Kind::Null;
      return true;
    }
    return number(Out);
  }

  bool number(Json *Out) {
    size_t Start = Pos;
    if (Pos < Text.size() && Text[Pos] == '-')
      ++Pos;
    auto digits = [&] {
      size_t Before = Pos;
      while (Pos < Text.size() &&
             std::isdigit(static_cast<unsigned char>(Text[Pos])))
        ++Pos;
      return Pos != Before;
    };
    if (!digits())
      return false;
    if (Pos < Text.size() && Text[Pos] == '.') {
      ++Pos;
      if (!digits())
        return false;
    }
    if (Pos < Text.size() && (Text[Pos] == 'e' || Text[Pos] == 'E')) {
      ++Pos;
      if (Pos < Text.size() && (Text[Pos] == '+' || Text[Pos] == '-'))
        ++Pos;
      if (!digits())
        return false;
    }
    Out->K = Json::Kind::Number;
    Out->Num = std::strtod(Text.c_str() + Start, nullptr);
    return true;
  }

  bool array(Json *Out) {
    if (!consume('['))
      return false;
    Out->K = Json::Kind::Array;
    skipSpace();
    if (consume(']'))
      return true;
    while (true) {
      Json Item;
      if (!value(&Item))
        return false;
      Out->Items.push_back(std::move(Item));
      if (consume(']'))
        return true;
      if (!consume(','))
        return false;
    }
  }

  bool object(Json *Out) {
    if (!consume('{'))
      return false;
    Out->K = Json::Kind::Object;
    skipSpace();
    if (consume('}'))
      return true;
    while (true) {
      skipSpace();
      std::string Key;
      if (!string(&Key) || !consume(':'))
        return false;
      Json Val;
      if (!value(&Val))
        return false;
      Out->Fields[Key] = std::move(Val);
      if (consume('}'))
        return true;
      if (!consume(','))
        return false;
    }
  }

  const std::string &Text;
  size_t Pos = 0;
};

/// Runs an exporter into a memory stream and returns the bytes written.
template <typename Fn> std::string capture(Fn &&Write) {
  char *Data = nullptr;
  size_t Size = 0;
  std::FILE *Stream = open_memstream(&Data, &Size);
  EXPECT_NE(Stream, nullptr);
  Write(Stream);
  std::fclose(Stream);
  std::string Out(Data, Size);
  std::free(Data);
  return Out;
}

/// A small deterministic stream: two sim tracks plus one wall track.
std::vector<tel::Event> sampleEvents() {
  std::vector<tel::Event> Events;
  auto push = [&](tel::EventPhase Phase, const char *Track, const char *Name,
                  uint64_t Index, uint64_t Ts, double Dur,
                  std::vector<tel::EventArg> Args) {
    tel::Event E;
    E.Phase = Phase;
    E.Track = Track;
    E.Name = Name;
    E.ScavengeIndex = Index;
    E.TsClock = Ts;
    E.DurMillis = Dur;
    E.Args = std::move(Args);
    E.Seq = Events.size();
    Events.push_back(std::move(E));
  };
  push(tel::EventPhase::Span, "sim/w/full", "scavenge", 1, 1000, 2.0,
       {tel::arg("tb", uint64_t(0)), tel::arg("rule", std::string("full"))});
  push(tel::EventPhase::Instant, "sim/w/full", "tb", 1, 1000, 0.0,
       {tel::arg("tb", uint64_t(0))});
  push(tel::EventPhase::Span, "sim/w/full", "scavenge", 2, 2000, 4.0, {});
  push(tel::EventPhase::Counter, "sim/w/full", "resident_bytes", 2, 2000, 0.0,
       {tel::arg("resident_bytes", uint64_t(512))});
  push(tel::EventPhase::Span, "sim/w/dtbfm", "scavenge", 1, 1000, 1.5,
       {tel::arg("rule", std::string("widen"))});
  push(tel::EventPhase::Span, "wall/thread-0", "sim.policy_decision", 0, 7,
       0.001, {});
  return Events;
}

std::vector<tel::MetricSample> sampleMetrics() {
  tel::MetricsRegistry Registry;
  Registry.counter("sim.scavenge.count").add(3);
  Registry.counter("wall.ignored").add(9);
  return Registry.snapshot();
}

//===----------------------------------------------------------------------===//
// Chrome trace JSON
//===----------------------------------------------------------------------===//

TEST(ChromeTrace, ParsesBackAndHasTraceEventStructure) {
  std::string Text = capture([&](std::FILE *Out) {
    tel::writeChromeTrace(sampleEvents(), sampleMetrics(), tel::ExportOptions(),
                         Out);
  });
  Json Doc;
  ASSERT_TRUE(JsonParser(Text).parse(&Doc)) << Text;
  ASSERT_EQ(Doc.K, Json::Kind::Object);
  ASSERT_TRUE(Doc.has("traceEvents"));
  ASSERT_EQ(Doc.at("traceEvents").K, Json::Kind::Array);
  EXPECT_EQ(Doc.at("displayTimeUnit").Str, "ms");

  size_t Metadata = 0, Spans = 0, Instants = 0, Counters = 0;
  for (const Json &E : Doc.at("traceEvents").Items) {
    ASSERT_EQ(E.K, Json::Kind::Object);
    ASSERT_TRUE(E.has("ph"));
    ASSERT_TRUE(E.has("pid"));
    ASSERT_TRUE(E.has("tid"));
    ASSERT_TRUE(E.has("name"));
    const std::string &Ph = E.at("ph").Str;
    if (Ph == "M") {
      Metadata += 1;
      EXPECT_EQ(E.at("name").Str, "thread_name");
      continue;
    }
    ASSERT_TRUE(E.has("ts"));
    if (Ph == "X") {
      Spans += 1;
      ASSERT_TRUE(E.has("dur"));
      EXPECT_GE(E.at("dur").Num, 0.0);
    } else if (Ph == "i") {
      Instants += 1;
      EXPECT_EQ(E.at("s").Str, "t");
    } else if (Ph == "C") {
      Counters += 1;
      ASSERT_TRUE(E.has("args"));
    } else {
      FAIL() << "unexpected phase " << Ph;
    }
  }
  EXPECT_EQ(Metadata, 2u); // Two non-wall tracks.
  EXPECT_EQ(Spans, 3u);    // Wall span excluded by default.
  EXPECT_EQ(Instants, 1u);
  EXPECT_EQ(Counters, 1u);

  // The wall metric stays out of otherData; the others are present.
  ASSERT_TRUE(Doc.has("otherData"));
  EXPECT_FALSE(Doc.at("otherData").has("wall.ignored"));
  EXPECT_DOUBLE_EQ(Doc.at("otherData").at("sim.scavenge.count").Num, 3.0);
}

TEST(ChromeTrace, WallClockOptInIncludesWallTrack) {
  tel::ExportOptions Options;
  Options.IncludeWallClock = true;
  std::string Text = capture([&](std::FILE *Out) {
    tel::writeChromeTrace(sampleEvents(), sampleMetrics(), Options, Out);
  });
  Json Doc;
  ASSERT_TRUE(JsonParser(Text).parse(&Doc));
  size_t Metadata = 0;
  bool SawWallName = false;
  for (const Json &E : Doc.at("traceEvents").Items)
    if (E.at("ph").Str == "M") {
      Metadata += 1;
      if (E.at("args").at("name").Str == "wall/thread-0")
        SawWallName = true;
    }
  EXPECT_EQ(Metadata, 3u);
  EXPECT_TRUE(SawWallName);
  EXPECT_TRUE(Doc.at("otherData").has("wall.ignored"));
}

TEST(ChromeTrace, EscapesSpecialCharacters) {
  std::vector<tel::Event> Events;
  tel::Event E;
  E.Phase = tel::EventPhase::Instant;
  E.Track = "t";
  E.Name = "quote\" backslash\\ newline\n tab\t";
  E.Args = {tel::arg("msg", std::string("a\"b\\c\x01"))};
  Events.push_back(E);
  std::string Text = capture([&](std::FILE *Out) {
    tel::writeChromeTrace(Events, {}, tel::ExportOptions(), Out);
  });
  Json Doc;
  ASSERT_TRUE(JsonParser(Text).parse(&Doc)) << Text;
  // Round-trips exactly through the parser's unescaping.
  bool Found = false;
  for (const Json &Ev : Doc.at("traceEvents").Items)
    if (Ev.at("ph").Str == "i") {
      EXPECT_EQ(Ev.at("name").Str, E.Name);
      EXPECT_EQ(Ev.at("args").at("msg").Str, "a\"b\\c\x01");
      Found = true;
    }
  EXPECT_TRUE(Found);
}

//===----------------------------------------------------------------------===//
// CSV
//===----------------------------------------------------------------------===//

TEST(CsvExport, GoldenOutput) {
  std::string Text = capture([&](std::FILE *Out) {
    tel::writeCsv(sampleEvents(), tel::ExportOptions(), Out);
  });
  EXPECT_EQ(Text,
            "track,scavenge_index,phase,name,ts,dur_ms,args\n"
            "sim/w/full,1,X,scavenge,1000,2,tb=0;rule=full\n"
            "sim/w/full,1,i,tb,1000,0,tb=0\n"
            "sim/w/full,2,X,scavenge,2000,4,\n"
            "sim/w/full,2,C,resident_bytes,2000,0,resident_bytes=512\n"
            "sim/w/dtbfm,1,X,scavenge,1000,1.5,rule=widen\n");
}

TEST(CsvExport, QuotesCellsHoldingCommasQuotesOrLineBreaks) {
  // RFC 4180: such a cell is quoted with its quotes doubled, so the row
  // keeps seven fields; every other cell is written as it is.
  tel::Event E;
  E.Phase = tel::EventPhase::Instant;
  E.Track = "heap#1";
  E.Name = "degradation";
  E.Args = {tel::arg("detail", std::string("cost 2 ms, deadline 1 ms")),
            tel::arg("note", std::string("say \"hi\"\nthen stop"))};
  std::string Text = capture([&](std::FILE *Out) {
    tel::writeCsv({E}, tel::ExportOptions(), Out);
  });
  EXPECT_EQ(Text, "track,scavenge_index,phase,name,ts,dur_ms,args\n"
                  "heap#1,0,i,degradation,0,0,\"detail=cost 2 ms, deadline "
                  "1 ms;note=say \"\"hi\"\"\nthen stop\"\n");
}

//===----------------------------------------------------------------------===//
// Summary tables
//===----------------------------------------------------------------------===//

TEST(SummaryTable, AggregatesPerTrackAndEvent) {
  Table T = tel::buildEventSummaryTable(sampleEvents(), tel::ExportOptions());
  std::string Text = capture([&](std::FILE *Out) { T.print(Out); });
  // Wall track excluded; both sim tracks summarized.
  EXPECT_EQ(Text.find("wall/thread-0"), std::string::npos);
  EXPECT_NE(Text.find("sim/w/full"), std::string::npos);
  EXPECT_NE(Text.find("sim/w/dtbfm"), std::string::npos);
  // The sim/w/full scavenge row: 2 spans, median of {2, 4} by nearest
  // rank = 2, max 4.
  EXPECT_NE(Text.find("scavenge"), std::string::npos);
}

TEST(ArgFormatting, DoublesRoundTripShortest) {
  EXPECT_EQ(tel::arg("k", 1.5).Value, "1.5");
  EXPECT_EQ(tel::arg("k", 3.0).Value, "3");
  EXPECT_EQ(tel::arg("k", uint64_t(18446744073709551615ull)).Value,
            "18446744073709551615");
  // A value needing full precision survives the round trip.
  double Pi = 3.141592653589793;
  EXPECT_EQ(std::strtod(tel::arg("k", Pi).Value.c_str(), nullptr), Pi);
}

} // namespace
