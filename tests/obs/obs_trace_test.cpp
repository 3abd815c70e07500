//===- tests/obs/obs_trace_test.cpp ------------------------------------------===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Flight recorder ring semantics (wraparound, dump ordering), mismatch
// retention, and exporter output parsed back with a minimal JSON reader to
// prove the documents are well-formed.
//
//===----------------------------------------------------------------------===//

#include "engine/stats.h"
#include "obs/export.h"
#include "obs/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <string>
#include <vector>

using namespace dragon4;
using namespace dragon4::obs;

namespace {

/// Restores the process-global obs config on scope exit so tests cannot
/// leak sampling/dump settings into each other.
struct ConfigGuard {
  Config Saved = config();
  ~ConfigGuard() { config() = Saved; }
};

//===----------------------------------------------------------------------===//
// Minimal JSON reader: validates syntax and counts object keys.  Enough to
// prove exporter output parses; not a general-purpose parser.
//===----------------------------------------------------------------------===//

class JsonReader {
public:
  explicit JsonReader(const std::string &Text) : Text(Text) {}

  bool parse() {
    skipSpace();
    if (!parseValue())
      return false;
    skipSpace();
    return Pos == Text.size();
  }

  int keyCount(const std::string &Key) const { return KeyCounts(Key); }

private:
  int KeyCounts(const std::string &Key) const {
    int N = 0;
    std::string Needle = "\"" + Key + "\"";
    for (size_t At = Text.find(Needle); At != std::string::npos;
         At = Text.find(Needle, At + 1))
      ++N;
    return N;
  }

  void skipSpace() {
    while (Pos < Text.size() && std::isspace(static_cast<unsigned char>(
                                    Text[Pos])))
      ++Pos;
  }
  bool parseValue() {
    if (Pos >= Text.size())
      return false;
    switch (Text[Pos]) {
    case '{':
      return parseObject();
    case '[':
      return parseArray();
    case '"':
      return parseString();
    case 't':
      return literal("true");
    case 'f':
      return literal("false");
    case 'n':
      return literal("null");
    default:
      return parseNumber();
    }
  }
  bool literal(const char *Word) {
    size_t Len = std::string(Word).size();
    if (Text.compare(Pos, Len, Word) != 0)
      return false;
    Pos += Len;
    return true;
  }
  bool parseString() {
    ++Pos; // Opening quote.
    while (Pos < Text.size() && Text[Pos] != '"') {
      if (Text[Pos] == '\\')
        ++Pos;
      ++Pos;
    }
    if (Pos >= Text.size())
      return false;
    ++Pos; // Closing quote.
    return true;
  }
  bool parseNumber() {
    size_t Start = Pos;
    while (Pos < Text.size() &&
           (std::isdigit(static_cast<unsigned char>(Text[Pos])) ||
            Text[Pos] == '-' || Text[Pos] == '+' || Text[Pos] == '.' ||
            Text[Pos] == 'e' || Text[Pos] == 'E'))
      ++Pos;
    return Pos > Start;
  }
  bool parseObject() {
    ++Pos; // '{'
    skipSpace();
    if (Pos < Text.size() && Text[Pos] == '}') {
      ++Pos;
      return true;
    }
    while (true) {
      skipSpace();
      if (Pos >= Text.size() || Text[Pos] != '"' || !parseString())
        return false;
      skipSpace();
      if (Pos >= Text.size() || Text[Pos] != ':')
        return false;
      ++Pos;
      skipSpace();
      if (!parseValue())
        return false;
      skipSpace();
      if (Pos < Text.size() && Text[Pos] == ',') {
        ++Pos;
        continue;
      }
      break;
    }
    if (Pos >= Text.size() || Text[Pos] != '}')
      return false;
    ++Pos;
    return true;
  }
  bool parseArray() {
    ++Pos; // '['
    skipSpace();
    if (Pos < Text.size() && Text[Pos] == ']') {
      ++Pos;
      return true;
    }
    while (true) {
      skipSpace();
      if (!parseValue())
        return false;
      skipSpace();
      if (Pos < Text.size() && Text[Pos] == ',') {
        ++Pos;
        continue;
      }
      break;
    }
    if (Pos >= Text.size() || Text[Pos] != ']')
      return false;
    ++Pos;
    return true;
  }

  const std::string &Text;
  size_t Pos = 0;
};

ConversionRecord makeRecord(uint64_t Bits) {
  ConversionRecord R;
  R.BitsLo = Bits;
  R.DigitsEmitted = 3;
  R.PathTaken = Path::Ryu;
  return R;
}

//===----------------------------------------------------------------------===//
// FlightRecorder
//===----------------------------------------------------------------------===//

TEST(FlightRecorder, WraparoundKeepsNewestCapacityRecords) {
  FlightRecorder Ring(8);
  EXPECT_EQ(Ring.capacity(), 8u);
  for (uint64_t I = 0; I < 100; ++I)
    Ring.push(makeRecord(I));
  EXPECT_EQ(Ring.size(), 8u);
  EXPECT_EQ(Ring.pushed(), 100u);
  // recent(0) is the newest (seq 99), recent(7) the oldest survivor (92).
  for (size_t Age = 0; Age < 8; ++Age) {
    EXPECT_EQ(Ring.recent(Age).Seq, 99u - Age);
    EXPECT_EQ(Ring.recent(Age).BitsLo, 99u - Age);
  }
}

TEST(FlightRecorder, FillsBeforeWrapping) {
  FlightRecorder Ring(8);
  for (uint64_t I = 0; I < 5; ++I)
    Ring.push(makeRecord(I));
  EXPECT_EQ(Ring.size(), 5u);
  EXPECT_EQ(Ring.recent(0).Seq, 4u);
  EXPECT_EQ(Ring.recent(4).Seq, 0u);
}

TEST(FlightRecorder, DumpTextIsOldestFirst) {
  FlightRecorder Ring(4);
  for (uint64_t I = 0; I < 10; ++I)
    Ring.push(makeRecord(I));
  std::string Dump = Ring.dumpText();
  // Four lines, sequence 6..9 in order.
  size_t P6 = Dump.find("[6]");
  size_t P9 = Dump.find("[9]");
  ASSERT_NE(P6, std::string::npos);
  ASSERT_NE(P9, std::string::npos);
  EXPECT_LT(P6, P9);
  EXPECT_EQ(std::count(Dump.begin(), Dump.end(), '\n'), 4);
  // A bounded dump keeps the newest window, still oldest-first.
  std::string Tail = Ring.dumpText(2);
  EXPECT_EQ(std::count(Tail.begin(), Tail.end(), '\n'), 2);
  EXPECT_NE(Tail.find("[8]"), std::string::npos);
  EXPECT_NE(Tail.find("[9]"), std::string::npos);
  EXPECT_EQ(Tail.find("[7]"), std::string::npos);
}

TEST(FlightRecorder, ZeroCapacityDropsEverything) {
  FlightRecorder Ring(0);
  Ring.push(makeRecord(1));
  EXPECT_EQ(Ring.size(), 0u);
  EXPECT_EQ(Ring.pushed(), 0u);
  EXPECT_EQ(Ring.dumpText(), "");
}

TEST(ConversionRecord, LineCarriesTheKeyFields) {
  ConversionRecord R;
  R.Seq = 7;
  R.BitsLo = 0x6c04;
  R.PathTaken = Path::VerifyCheck;
  R.Branch = ScaleBranch::Estimate;
  R.EstimatedK = 3;
  R.FinalK = 4;
  R.FixupTaken = 1;
  R.DigitsEmitted = 4;
  R.Mismatch = true;
  std::string Line = R.toLine();
  EXPECT_NE(Line.find("[7]"), std::string::npos);
  EXPECT_NE(Line.find("bits=0x6c04"), std::string::npos);
  EXPECT_NE(Line.find("path=verify-check"), std::string::npos);
  EXPECT_NE(Line.find("branch=estimate"), std::string::npos);
  EXPECT_NE(Line.find("est=3"), std::string::npos);
  EXPECT_NE(Line.find("k=4"), std::string::npos);
  EXPECT_NE(Line.find("fixup=taken"), std::string::npos);
  EXPECT_NE(Line.find("MISMATCH"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// ObsState mismatch retention
//===----------------------------------------------------------------------===//

TEST(ObsState, MismatchRecordsSurviveRingRecycling) {
  ConfigGuard Guard;
  config().FlightCapacity = 4;
  config().DumpOnMismatch = false; // Keep test output quiet.
  config().MismatchKeepLimit = 8;
  ObsState State;
  ConversionTrace T;
  // One mismatch, then enough passing conversions to recycle the ring.
  State.finishConversion(T, Path::VerifyCheck, FormatId::Binary64, 0xBAD, 0, 0, 100, false, true);
  for (uint64_t I = 0; I < 20; ++I)
    State.finishConversion(T, Path::VerifyCheck, FormatId::Binary64, I, 0, 0, 100, false, false);
  // The ring lost it; the kept list did not.
  bool InRing = false;
  for (size_t Age = 0; Age < State.Recorder.size(); ++Age)
    InRing |= State.Recorder.recent(Age).Mismatch;
  EXPECT_FALSE(InRing);
  ASSERT_EQ(State.MismatchKept.size(), 1u);
  EXPECT_EQ(State.MismatchKept[0].BitsLo, 0xBADu);
  EXPECT_TRUE(State.MismatchKept[0].Mismatch);
}

TEST(ObsState, MismatchKeepLimitBounds) {
  ConfigGuard Guard;
  config().FlightCapacity = 4;
  config().DumpOnMismatch = false;
  config().MismatchKeepLimit = 3;
  ObsState State;
  ConversionTrace T;
  for (uint64_t I = 0; I < 10; ++I)
    State.finishConversion(T, Path::VerifyCheck, FormatId::Binary64, I, 0, 0, 100, false, true);
  EXPECT_EQ(State.MismatchKept.size(), 3u);
  // Oldest mismatches win the bounded slots.
  EXPECT_EQ(State.MismatchKept[0].BitsLo, 0u);
  EXPECT_EQ(State.MismatchKept[2].BitsLo, 2u);
}

TEST(ObsState, DrainKeepsMismatchRecordsAndFlightHistory) {
  ConfigGuard Guard;
  config().FlightCapacity = 4;
  config().DumpOnMismatch = false;
  ObsState State;
  ConversionTrace T;
  State.finishConversion(T, Path::VerifyCheck, FormatId::Binary64, 1, 0, 0, 100, false, true);
  Registry Merged;
  std::vector<SpanEvent> Spans;
  State.drainInto(Merged, Spans);
  EXPECT_EQ(Merged.get(Counter::SampledConversions), 1u);
  EXPECT_EQ(State.Reg.get(Counter::SampledConversions), 0u); // Shard reset.
  EXPECT_EQ(State.MismatchKept.size(), 1u);                  // Context kept.
  EXPECT_EQ(State.Recorder.size(), 1u);
}

//===----------------------------------------------------------------------===//
// Exporter parse-back
//===----------------------------------------------------------------------===//

Registry sampleRegistry() {
  Registry Reg;
  Reg.add(Counter::SampledConversions, 100);
  Reg.add(Counter::FixupTaken, 26);
  Reg.add(Counter::FixupSkipped, 74);
  Reg.setMax(Gauge::FlightDepth, 64);
  for (uint64_t V : {120u, 450u, 90000u, 0u})
    Reg.record(Hist::LatencyNs, V);
  return Reg;
}

TEST(Exporters, StatsJsonParsesBack) {
  engine::EngineStats Stats;
  Stats.Conversions = 1000;
  Stats.RyuHits = 900;
  Stats.SlowPathDirect = 100;
  Stats.SlowDigitLength[16] = 80;
  Stats.SlowDigitLength[17] = 20;
  Registry Reg = sampleRegistry();
  std::string Json = renderStatsJson(makeSnapshot(Stats, &Reg));
  JsonReader Reader(Json);
  EXPECT_TRUE(Reader.parse()) << Json;
  EXPECT_NE(Json.find(StatsSchemaVersion), std::string::npos);
  EXPECT_EQ(Reader.keyCount("dragon4_conversions_total"), 1);
  EXPECT_EQ(Reader.keyCount("dragon4_scale_fixup_taken_total"), 1);
  EXPECT_EQ(Reader.keyCount("dragon4_conversion_latency_ns"), 1);
}

TEST(Exporters, ChromeTraceParsesBack) {
  std::vector<SpanEvent> Spans;
  Spans.push_back(SpanEvent{"batch", 5000, 900000, 0, 64});
  Spans.push_back(SpanEvent{"conversion", 6000, 1500, 1, 0x3ff0000000000000});
  Spans.push_back(SpanEvent{"conversion", 8000, 1100, 0, 0x6c04});
  std::string Json = renderChromeTrace(Spans);
  JsonReader Reader(Json);
  EXPECT_TRUE(Reader.parse()) << Json;
  EXPECT_EQ(Reader.keyCount("traceEvents"), 1);
  EXPECT_EQ(Reader.keyCount("ph"), 3);  // One complete event per span.
  EXPECT_EQ(Reader.keyCount("dur"), 3);
  EXPECT_EQ(Reader.keyCount("name"), 3);
  // Timestamps are normalized to the earliest span.
  EXPECT_NE(Json.find("\"ts\": 0"), std::string::npos);
}

TEST(Exporters, ChromeTraceEmptyIsValid) {
  std::string Json = renderChromeTrace({});
  JsonReader Reader(Json);
  EXPECT_TRUE(Reader.parse()) << Json;
}

TEST(Exporters, PrometheusShapeIsSound) {
  engine::EngineStats Stats;
  Stats.Conversions = 10;
  Registry Reg = sampleRegistry();
  std::string Text = renderPrometheus(makeSnapshot(Stats, &Reg));
  EXPECT_NE(Text.find("# TYPE dragon4_conversions_total counter"),
            std::string::npos);
  EXPECT_NE(Text.find("dragon4_conversions_total 10"), std::string::npos);
  EXPECT_NE(Text.find("dragon4_conversion_latency_ns_bucket{le=\"+Inf\"} 4"),
            std::string::npos);
  EXPECT_NE(Text.find("dragon4_conversion_latency_ns_count 4"),
            std::string::npos);
}

} // namespace
