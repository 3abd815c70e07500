//===- perfbench/harness/oracle.cpp - Output oracles --------------------------===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The oracles behind failed_ratio.  Each judges one output against the
/// host's own conversions (std::to_chars/from_chars, glibc snprintf) or,
/// for the formats the host cannot read (binary16, extended80), against the
/// library's exact bignum reader.
///
//===----------------------------------------------------------------------===//

#include "bench.h"

#include "fp/format_traits.h"
#include "reader/reader.h"

#include <bit>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <string>

using namespace perfbench;

namespace {

/// Significant digits of a rendering: the digits of its significand with
/// leading and trailing zeros removed (so "1e+22", "1e22" and
/// "10000000000000000000000" all count 1).
int significantDigits(std::string_view Text) {
  size_t End = Text.find_first_of("eE");
  if (End == std::string_view::npos)
    End = Text.size();
  std::string Digits;
  for (size_t I = 0; I < End; ++I)
    if (Text[I] >= '0' && Text[I] <= '9')
      Digits.push_back(Text[I]);
  size_t First = Digits.find_first_not_of('0');
  if (First == std::string::npos)
    return 0;
  size_t Last = Digits.find_last_not_of('0');
  return static_cast<int>(Last - First + 1);
}

template <typename T>
bool fromCharsExact(std::string_view Text, T &Value) {
  auto [Ptr, Ec] = std::from_chars(Text.data(), Text.data() + Text.size(),
                                   Value);
  return Ec == std::errc() && Ptr == Text.data() + Text.size();
}

template <typename T> int hostShortestDigits(T Value) {
  char Buffer[64];
  auto End = std::to_chars(Buffer, Buffer + sizeof(Buffer), Value);
  return significantDigits(std::string_view(Buffer, End.ptr - Buffer));
}

/// Round-half-up of the exact expansion \p Exact ("[-]ddd.ddd...") at
/// \p Fraction places, by decimal string arithmetic.
std::string roundHalfUp(const std::string &Exact, int Fraction) {
  size_t Dot = Exact.find('.');
  std::string Kept = Exact.substr(0, Fraction == 0 ? Dot : Dot + 1 + Fraction);
  size_t Begin = Kept[0] == '-' ? 1 : 0;
  for (size_t I = Kept.size(); I-- > Begin;) {
    if (Kept[I] == '.')
      continue;
    if (Kept[I] != '9') {
      ++Kept[I];
      return Kept;
    }
    Kept[I] = '0';
  }
  return (Begin ? "-1" : "1") + Kept.substr(Begin);
}

} // namespace

bool perfbench::checkShortest(const PrintItem &Item, std::string_view Out) {
  using namespace dragon4;
  switch (Item.Format) {
  case DRAGON4_FORMAT_BINARY64: {
    double Back = 0;
    double Value = std::bit_cast<double>(Item.Lo);
    return fromCharsExact(Out, Back) &&
           std::bit_cast<uint64_t>(Back) == Item.Lo &&
           significantDigits(Out) <= hostShortestDigits(Value);
  }
  case DRAGON4_FORMAT_BINARY32: {
    float Back = 0;
    float Value = std::bit_cast<float>(static_cast<uint32_t>(Item.Lo));
    return fromCharsExact(Out, Back) &&
           std::bit_cast<uint32_t>(Back) == static_cast<uint32_t>(Item.Lo) &&
           significantDigits(Out) <= hostShortestDigits(Value);
  }
  case DRAGON4_FORMAT_BINARY16: {
    std::optional<Binary16> Back = readFloat<Binary16>(Out);
    Binary16 Value = Binary16::fromBits(static_cast<uint16_t>(Item.Lo));
    // The binary32 rounding interval of a binary16 value lies inside its
    // binary16 interval, so host float shortest bounds binary16 shortest.
    return Back && Back->bits() == Value.bits() &&
           significantDigits(Out) <=
               hostShortestDigits(static_cast<float>(Value.toDouble()));
  }
  case DRAGON4_FORMAT_EXTENDED80: {
    std::optional<long double> Back = readFloat<long double>(Out);
    if (!Back)
      return false;
    uint64_t Lo = 0, Hi = 0;
    FormatTraits<long double>::encodingBits(*Back, Lo, Hi);
    long double Value = FormatTraits<long double>::fromEncoding(Item.Lo,
                                                                Item.Hi);
    return Lo == Item.Lo && Hi == Item.Hi &&
           significantDigits(Out) <= hostShortestDigits(Value);
  }
  case DRAGON4_FORMAT_BINARY128:
    break;
  }
  return false;
}

bool perfbench::checkFixed(const PrintItem &Item, std::string_view Out) {
  const bool Single = Item.Format == DRAGON4_FORMAT_BINARY32;
  const double Value =
      Single ? static_cast<double>(
                   std::bit_cast<float>(static_cast<uint32_t>(Item.Lo)))
             : std::bit_cast<double>(Item.Lo);
  const int Fraction = Item.Fraction;
  size_t Dot = Out.find('.');
  if (Fraction == 0 ? Dot != std::string_view::npos
                    : (Dot == std::string_view::npos ||
                       Out.size() - Dot - 1 != static_cast<size_t>(Fraction)))
    return false;

  // Where the requested quantum 10^-Fraction is finer than the value's own
  // ulp, the paper's fixed format stops once the digits identify the value
  // (then pads with zeros or '#' marks), while glibc prints exact digits;
  // there the output must read back to the value instead.
  const double Magnitude = std::fabs(Value);
  const double Ulp =
      Single ? static_cast<double>(std::nextafter(
                   static_cast<float>(Magnitude), HUGE_VALF)) -
                   Magnitude
             : std::nextafter(Magnitude, HUGE_VAL) - Magnitude;
  const bool FinerThanValue = std::pow(10.0, -Fraction) < Ulp;
  size_t FirstMark = Out.find('#');
  if (FirstMark != std::string_view::npos || FinerThanValue) {
    // Marks (insignificant positions) only at the tail, and the rendering
    // with marks read as zeros must still denote the value.
    std::string Zeros(Out);
    if (FirstMark == std::string_view::npos)
      FirstMark = Zeros.size();
    for (size_t I = FirstMark; I < Zeros.size(); ++I) {
      if (Zeros[I] == '#')
        Zeros[I] = '0';
      else if (Zeros[I] != '.')
        return false;
    }
    if (Single) {
      float Back = 0;
      return fromCharsExact(Zeros, Back) &&
             std::bit_cast<uint32_t>(Back) == static_cast<uint32_t>(Item.Lo);
    }
    double Back = 0;
    return fromCharsExact(Zeros, Back) &&
           std::bit_cast<uint64_t>(Back) == Item.Lo;
  }

  char Expected[160];
  std::snprintf(Expected, sizeof(Expected), "%.*f", Fraction, Value);
  if (Out == Expected)
    return true;
  // glibc rounds exact decimal ties to even; the library's default tie
  // rule rounds them up.  Only there may the two disagree.  Every value in
  // the workload (|v| >= 1e-3) has an exact expansion within 90 places.
  char Exact[200];
  std::snprintf(Exact, sizeof(Exact), "%.90f", Value);
  std::string Full(Exact);
  size_t Cut = Full.find('.') + 1 + static_cast<size_t>(Fraction);
  bool Tie = Full[Cut] == '5' &&
             Full.find_first_not_of('0', Cut + 1) == std::string::npos;
  return Tie && Out == roundHalfUp(Full, Fraction);
}

bool perfbench::checkParse(const ParseItem &Item, std::string_view Text,
                           uint64_t Lo) {
  if (Item.Format == DRAGON4_FORMAT_BINARY32) {
    float Host = 0;
    return fromCharsExact(Text, Host) &&
           std::bit_cast<uint32_t>(Host) == static_cast<uint32_t>(Lo);
  }
  double Host = 0;
  return fromCharsExact(Text, Host) && std::bit_cast<uint64_t>(Host) == Lo;
}
