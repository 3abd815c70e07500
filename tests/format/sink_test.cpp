//===- tests/format/sink_test.cpp - The Sink concept and its four models ----===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Unit coverage for format/sink.h: the concept itself, the snprintf-like
// overflow contract of BufferSink (count everything, write a prefix,
// report required()), StreamSink's mid-stream relative accounting, and
// cross-sink agreement -- the same renderer driven into all four sinks
// must produce the same bytes and the same written() count.
//
//===----------------------------------------------------------------------===//

#include "format/render_core.h"
#include "format/sink.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace dragon4;

namespace {

// The concept is the compile-time contract every surface builds on; a
// sink losing a member is a build break here, not a drift downstream.
static_assert(Sink<StringSink>);
static_assert(Sink<BufferSink>);
static_assert(Sink<StreamSink>);
static_assert(Sink<CountingSink>);
static_assert(!Sink<int>);
static_assert(!Sink<std::string>);

// sinkOverflowed is the one truncation probe: bounded sinks report,
// unbounded sinks are constant false.
static_assert(!sinkOverflowed(CountingSink{}));

/// Drives one fixed emission script against any sink.
template <typename W> void emitScript(W &Out) {
  Out.put('-');
  Out.literal("12");
  Out.put('.');
  Out.fill(3, '0');
  Out.literal("e+07");
}

constexpr const char *ScriptText = "-12.000e+07";
constexpr size_t ScriptLength = 11;

TEST(Sink, AllFourSinksAgreeOnBytesAndLength) {
  StringSink Str;
  emitScript(Str);
  EXPECT_EQ(Str.Out, ScriptText);
  EXPECT_EQ(Str.written(), ScriptLength);

  char Buf[32] = {};
  BufferSink Bounded(Buf, sizeof(Buf));
  emitScript(Bounded);
  EXPECT_EQ(std::string(Buf, Bounded.written()), ScriptText);
  EXPECT_EQ(Bounded.written(), ScriptLength);
  EXPECT_FALSE(Bounded.overflowed());

  std::vector<char> Store;
  StreamSink Stream(Store);
  emitScript(Stream);
  EXPECT_EQ(std::string(Store.begin(), Store.end()), ScriptText);
  EXPECT_EQ(Stream.written(), ScriptLength);

  CountingSink Counter;
  emitScript(Counter);
  EXPECT_EQ(Counter.written(), ScriptLength);
}

TEST(Sink, BufferSinkWritesExactPrefixOnOverflow) {
  // Every capacity from 0 to the full length: the written prefix must be
  // exactly the first Cap bytes of the full rendering and required()
  // must still be the full length.
  for (size_t Cap = 0; Cap <= ScriptLength + 2; ++Cap) {
    std::vector<char> Buf(Cap + 4, '\x7f'); // Canary past the capacity.
    BufferSink Out(Buf.data(), Cap);
    emitScript(Out);
    EXPECT_EQ(Out.required(), ScriptLength) << "cap " << Cap;
    EXPECT_EQ(Out.overflowed(), Cap < ScriptLength) << "cap " << Cap;
    size_t Written = Cap < ScriptLength ? Cap : ScriptLength;
    EXPECT_EQ(std::string(Buf.data(), Written),
              std::string(ScriptText).substr(0, Written))
        << "cap " << Cap;
    for (size_t I = Written; I < Buf.size(); ++I)
      EXPECT_EQ(Buf[I], '\x7f') << "byte past the write at " << I;
  }
}

TEST(Sink, BufferSinkZeroCapacityIsAPureSizeQuery) {
  BufferSink Out(nullptr, 0);
  emitScript(Out);
  EXPECT_EQ(Out.required(), ScriptLength);
  EXPECT_TRUE(Out.overflowed());
  EXPECT_TRUE(sinkOverflowed(Out));
}

TEST(Sink, StreamSinkCountsRelativeToConstruction) {
  std::vector<char> Store = {'a', 'b', 'c'};
  StreamSink Out(Store);
  EXPECT_EQ(Out.written(), 0u);
  emitScript(Out);
  EXPECT_EQ(Out.written(), ScriptLength);
  EXPECT_EQ(Store.size(), 3 + ScriptLength);
  EXPECT_EQ(std::string(Store.begin(), Store.begin() + 3), "abc");
  EXPECT_FALSE(sinkOverflowed(Out));
}

TEST(Sink, RendererProducesIdenticalBytesThroughEverySink) {
  // The real renderer (not a synthetic script): positional, scientific,
  // and auto forms through render_core against all sinks at once.
  const std::vector<uint8_t> Digits = {1, 7, 9, 7, 6, 9};
  RenderOptions Options;
  const int Ks[] = {-6, -1, 0, 1, 4, 6, 12, 25};
  for (int K : Ks) {
    for (bool Negative : {false, true}) {
      StringSink Str;
      render_detail::renderAutoInto(Str, Digits, K, 0, Negative, Options);

      char Buf[64];
      BufferSink Bounded(Buf, sizeof(Buf));
      render_detail::renderAutoInto(Bounded, Digits, K, 0, Negative, Options);

      std::vector<char> Store;
      StreamSink Stream(Store);
      render_detail::renderAutoInto(Stream, Digits, K, 0, Negative, Options);

      CountingSink Counter;
      render_detail::renderAutoInto(Counter, Digits, K, 0, Negative, Options);

      EXPECT_EQ(std::string(Buf, Bounded.written()), Str.Out)
          << "K " << K << " neg " << Negative;
      EXPECT_EQ(std::string(Store.begin(), Store.end()), Str.Out)
          << "K " << K << " neg " << Negative;
      EXPECT_EQ(Counter.written(), Str.Out.size())
          << "K " << K << " neg " << Negative;
    }
  }
}

/// Drives \p Text into a sink byte by byte, or as blocks of varying size
/// (an empty block included).
template <typename W> void putEach(W &Out, const std::string &Text) {
  for (char C : Text)
    Out.put(C);
}
template <typename W> void writeBlocks(W &Out, const std::string &Text) {
  size_t Pos = 0;
  for (size_t Block = 0; Pos < Text.size(); ++Block) {
    const size_t Count = Block < Text.size() - Pos ? Block : Text.size() - Pos;
    Out.write(Text.data() + Pos, Count);
    Pos += Count;
  }
}

TEST(Sink, WriteEqualsRepeatedPut) {
  const std::string Text = "-1.7976931348623157e+308#0^Z";
  StringSink StrPut, StrWrite;
  putEach(StrPut, Text);
  writeBlocks(StrWrite, Text);
  EXPECT_EQ(StrWrite.Out, StrPut.Out);
  EXPECT_EQ(StrWrite.written(), StrPut.written());

  for (size_t Cap : {size_t(0), size_t(5), Text.size(), Text.size() + 3}) {
    std::vector<char> PutBuf(Cap + 1, '\x7f'), WriteBuf(Cap + 1, '\x7f');
    BufferSink BufPut(PutBuf.data(), Cap), BufWrite(WriteBuf.data(), Cap);
    putEach(BufPut, Text);
    writeBlocks(BufWrite, Text);
    EXPECT_EQ(WriteBuf, PutBuf) << "cap " << Cap;
    EXPECT_EQ(BufWrite.required(), BufPut.required()) << "cap " << Cap;
  }

  std::vector<char> PutStore = {'x'}, WriteStore = {'x'};
  StreamSink StreamPut(PutStore), StreamWrite(WriteStore);
  putEach(StreamPut, Text);
  writeBlocks(StreamWrite, Text);
  EXPECT_EQ(WriteStore, PutStore);
  EXPECT_EQ(StreamWrite.written(), StreamPut.written());

  CountingSink CountPut, CountWrite;
  putEach(CountPut, Text);
  writeBlocks(CountWrite, Text);
  EXPECT_EQ(CountWrite.written(), CountPut.written());
}

/// One call into the render core, with the digits it reads.
struct RenderCase {
  const char *Name;
  std::vector<uint8_t> Digits;
  int K;
  int Marks;
  bool Negative;
  bool Scientific;
  RenderOptions Options;
};

std::vector<RenderCase> renderCases() {
  RenderOptions Base36;
  Base36.Base = 36;
  Base36.UppercaseDigits = true;
  Base36.ExponentMarker = '^';
  std::vector<uint8_t> LongRun; // Longer than one conversion chunk.
  for (int I = 0; I < 150; ++I)
    LongRun.push_back(static_cast<uint8_t>((I * 7 + 1) % 2));
  return {
      {"positional", {1, 7, 9, 7, 6, 9}, 3, 0, true, false, {}},
      {"positional fraction", {1, 7, 9, 7, 6, 9}, -3, 0, false, false, {}},
      {"positional zero pad", {1, 7, 9}, 8, 0, false, false, {}},
      {"scientific", {1, 7, 9, 7, 6, 9}, 309, 0, true, true, {}},
      {"marks after the point", {3, 1}, 2, 3, false, false, {}},
      {"marks and zero pad", {3, 1}, 7, 3, true, false, {}},
      {"scientific marks", {3}, -40, 4, false, true, {}},
      {"base 36 uppercase", {35, 10, 0, 27, 12}, 4, 0, false, false, Base36},
      {"base 36 uppercase scientific", {35, 10, 0, 27}, -7, 1, true, true,
       Base36},
      {"long base-2 run", LongRun, 70, 2, false, false, {}},
  };
}

template <typename W> void renderCase(W &Out, const RenderCase &C) {
  if (C.Scientific)
    render_detail::renderScientificInto(Out, C.Digits, C.K, C.Marks,
                                        C.Negative, C.Options);
  else
    render_detail::renderPositionalInto(Out, C.Digits, C.K, C.Marks,
                                        C.Negative, C.Options);
}

TEST(Sink, BufferSinkTruncatesRenderingsAtEveryCapacity) {
  // The block writes keep BufferSink's contract: at any capacity the
  // buffer holds exactly the rendering's first Cap bytes, nothing past
  // them, and required() is the full length.
  for (const RenderCase &C : renderCases()) {
    StringSink Reference;
    renderCase(Reference, C);
    const std::string &Text = Reference.Out;
    for (size_t Cap = 0; Cap <= Text.size() + 1; ++Cap) {
      std::vector<char> Buf(Cap + 4, '\x7f');
      BufferSink Out(Cap ? Buf.data() : nullptr, Cap);
      renderCase(Out, C);
      EXPECT_EQ(Out.required(), Text.size()) << C.Name << ", cap " << Cap;
      const size_t Kept = Cap < Text.size() ? Cap : Text.size();
      EXPECT_EQ(std::string(Buf.data(), Kept), Text.substr(0, Kept))
          << C.Name << ", cap " << Cap;
      for (size_t I = Kept; I < Buf.size(); ++I)
        ASSERT_EQ(Buf[I], '\x7f') << C.Name << ", cap " << Cap << ", byte "
                                  << I;
    }
  }
}

TEST(Sink, RenderCasesSpellTheExpectedText) {
  // Pins the texts the truncation sweep above slices.
  const char *Expected[] = {
      "-179.769", "0.000179769", "17900000", "-1.79769e+308", "31.###",
      "-31###00", "3.####e-41",  "ZA0R.C",   "-Z.A0R#^-8",
  };
  std::vector<RenderCase> Cases = renderCases();
  for (size_t I = 0; I < std::size(Expected); ++I) {
    StringSink Out;
    renderCase(Out, Cases[I]);
    EXPECT_EQ(Out.Out, Expected[I]) << Cases[I].Name;
  }
}

TEST(Sink, StoreDecimalDigitsMatchesManualExpansion) {
  std::vector<uint8_t> Digits(9, 0xff);
  render_detail::storeDecimalDigits(907060504, 9, Digits.data());
  ASSERT_EQ(Digits.size(), 9u);
  const uint8_t Expected[] = {9, 0, 7, 0, 6, 0, 5, 0, 4};
  for (int I = 0; I < 9; ++I)
    EXPECT_EQ(Digits[static_cast<size_t>(I)], Expected[I]) << "digit " << I;

  // Leading-zero widths (Ryu emits a fixed Length): zeros are stored.
  Digits.assign(4, 0xff);
  render_detail::storeDecimalDigits(42, 4, Digits.data());
  ASSERT_EQ(Digits.size(), 4u);
  EXPECT_EQ(Digits[0], 0);
  EXPECT_EQ(Digits[1], 0);
  EXPECT_EQ(Digits[2], 4);
  EXPECT_EQ(Digits[3], 2);
}

} // namespace
