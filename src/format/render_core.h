//===- format/render_core.h - Writer-generic digit rendering -----*- C++ -*-===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one implementation of positional/scientific/auto rendering, written
/// against the Sink concept (format/sink.h) so every surface -- the
/// std::string renderers in render.cpp, the zero-allocation char-buffer
/// engine, the fixed-stride StringTable batch slots, and the push-style
/// RecordStream -- emits byte-identical text from the same code instead of
/// hand-kept twins.  Each digit run, mark run, zero pad and exponent goes
/// to the sink as one block: digit values are converted through a small
/// stack chunk with the digit table chosen once per call.
///
/// The digit side is shared too: storeDecimalDigits() is the single
/// uint64->digit-array emitter, used by Ryu's emission for both of its
/// carriers, so the CI regression self-test's synthetic per-digit spin
/// hook is honored in exactly one place on the fast-path side.
///
//===----------------------------------------------------------------------===//

#ifndef DRAGON4_FORMAT_RENDER_CORE_H
#define DRAGON4_FORMAT_RENDER_CORE_H

#include "format/render.h"
#include "format/sink.h"
#include "support/checks.h"
#include "support/testhooks.h"

#include <array>
#include <cstdint>
#include <cstring>
#include <span>

namespace dragon4::render_detail {

/// The values 00..99 as pairs of digit values (tens, units): 200 bytes,
/// so a store peels two digits per division.
inline constexpr std::array<uint8_t, 200> DigitPairs = [] {
  std::array<uint8_t, 200> Pairs{};
  for (int I = 0; I < 100; ++I) {
    Pairs[static_cast<size_t>(2 * I)] = static_cast<uint8_t>(I / 10);
    Pairs[static_cast<size_t>(2 * I + 1)] = static_cast<uint8_t>(I % 10);
  }
  return Pairs;
}();

/// Stores the low \p Length base-10 digits of \p Value into
/// Out[0..Length), most significant first, leading zeros included, two per
/// step from DigitPairs.  The one place the CI regression self-test's
/// synthetic per-digit slowdown (testhooks::DigitLoopSyntheticSpinPerDigit)
/// is honored on the fast-path side, once per stored digit, mirroring the
/// exact digit loop's injection point -- volatile so the spin survives -O2.
inline void storeDecimalDigits(uint64_t Value, int Length, uint8_t *Out) {
  if (unsigned Spin = testhooks::DigitLoopSyntheticSpinPerDigit)
      [[unlikely]] {
    [[maybe_unused]] volatile unsigned Observed = 0;
    for (int Digit = 0; Digit < Length; ++Digit)
      for (unsigned I = 0; I < Spin; ++I)
        Observed = I;
  }
  int Index = Length;
  for (; Index >= 2; Index -= 2) {
    const uint64_t Rest = Value / 100;
    std::memcpy(Out + Index - 2, &DigitPairs[2 * (Value - 100 * Rest)], 2);
    Value = Rest;
  }
  if (Index == 1)
    Out[0] = static_cast<uint8_t>(Value % 10);
}

/// Digit value -> character: the table for the options' letter case.
inline const char *digitTable(const RenderOptions &Options) {
  static constexpr char Lower[] = "0123456789abcdefghijklmnopqrstuvwxyz";
  static constexpr char Upper[] = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ";
  return Options.UppercaseDigits ? Upper : Lower;
}

/// Output positions [From, To) (0-based from the most significant end):
/// digits while they last, then the options' mark character.  Digits go
/// through a stack chunk, one block write per chunk; the marks are one
/// fill.
template <Sink Writer>
void putPositions(Writer &W, std::span<const uint8_t> Digits, int From,
                  int To, const char *Table, char Mark) {
  const int Stored = static_cast<int>(Digits.size());
  if (From < Stored) {
    const int Last = To < Stored ? To : Stored;
    char Chunk[64];
    while (From < Last) {
      const int Count = Last - From < static_cast<int>(sizeof(Chunk))
                            ? Last - From
                            : static_cast<int>(sizeof(Chunk));
      for (int I = 0; I < Count; ++I)
        Chunk[I] = Table[Digits[static_cast<size_t>(From + I)]];
      W.write(Chunk, static_cast<size_t>(Count));
      From += Count;
    }
  }
  if (From < To)
    W.fill(static_cast<size_t>(To - From), Mark);
}

/// The exponent marker, then the decimal exponent with an explicit sign
/// -- snprintf("%c%+d", Marker, Exponent) -- as one block.
template <Sink Writer>
void putExponent(Writer &W, char Marker, int Exponent) {
  unsigned Magnitude = Exponent < 0 ? 0u - static_cast<unsigned>(Exponent)
                                    : static_cast<unsigned>(Exponent);
  char Text[16];
  size_t Begin = sizeof(Text);
  do {
    Text[--Begin] = static_cast<char>('0' + Magnitude % 10);
    Magnitude /= 10;
  } while (Magnitude != 0);
  Text[--Begin] = Exponent < 0 ? '-' : '+';
  Text[--Begin] = Marker;
  W.write(Text + Begin, sizeof(Text) - Begin);
}

/// Positional notation, e.g. "123.45", "0.00078", "12300".
template <Sink Writer>
void renderPositionalInto(Writer &W, std::span<const uint8_t> Digits, int K,
                          int TrailingMarks, bool Negative,
                          const RenderOptions &Options) {
  const int Width = static_cast<int>(Digits.size()) + TrailingMarks;
  const char *Table = digitTable(Options);
  if (Negative)
    W.put('-');

  if (K <= 0) {
    // Pure fraction: 0.000ddd...
    W.literal("0.");
    W.fill(static_cast<size_t>(-K), '0');
    putPositions(W, Digits, 0, Width, Table, Options.MarkChar);
    return;
  }

  if (K >= Width) {
    // Nothing after the point: zero-padded if the conversion stopped left
    // of the radix point.
    putPositions(W, Digits, 0, Width, Table, Options.MarkChar);
    W.fill(static_cast<size_t>(K - Width), '0');
    return;
  }
  putPositions(W, Digits, 0, K, Table, Options.MarkChar);
  W.put('.');
  putPositions(W, Digits, K, Width, Table, Options.MarkChar);
}

/// Scientific notation "d.ddd...e±x"; the exponent is always decimal.
template <Sink Writer>
void renderScientificInto(Writer &W, std::span<const uint8_t> Digits, int K,
                          int TrailingMarks, bool Negative,
                          const RenderOptions &Options) {
  const int Width = static_cast<int>(Digits.size()) + TrailingMarks;
  D4_ASSERT(Width > 0, "cannot render an empty digit string");
  const char *Table = digitTable(Options);
  if (Negative)
    W.put('-');
  putPositions(W, Digits, 0, 1, Table, Options.MarkChar);
  if (Width > 1) {
    W.put('.');
    putPositions(W, Digits, 1, Width, Table, Options.MarkChar);
  }
  putExponent(W, Options.ExponentMarker, K - 1);
}

/// Chooses positional or scientific per the options' K window.
template <Sink Writer>
void renderAutoInto(Writer &W, std::span<const uint8_t> Digits, int K,
                    int TrailingMarks, bool Negative,
                    const RenderOptions &Options) {
  if (K > Options.PositionalMinK && K <= Options.PositionalMaxK)
    renderPositionalInto(W, Digits, K, TrailingMarks, Negative, Options);
  else
    renderScientificInto(W, Digits, K, TrailingMarks, Negative, Options);
}

} // namespace dragon4::render_detail

#endif // DRAGON4_FORMAT_RENDER_CORE_H
