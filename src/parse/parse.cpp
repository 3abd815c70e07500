//===- parse/parse.cpp - Fast decimal -> binary parser ----------------------===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// parseFloat implementation: a single-pass decimal scanner feeding the
/// Eisel-Lemire core, with one exact halfway comparison for the residue.
///
/// The scanner accumulates at most the first 19 significant digits into a
/// uint64 (so w < 10^19 and the decisive zero/infinity exponent clamps in
/// eisel_lemire.h hold).  When more digits exist, the dropped ones only
/// shift the decimal exponent -- unless one of them is non-zero, in which
/// case the true value lies strictly between w*10^q and (w+1)*10^q.  Both
/// brackets are run through the core; if they round to the same encoding,
/// monotonicity of rounding makes that encoding correct for everything in
/// between.  When they disagree -- the residue -- they are adjacent
/// encodings, and the literal rounds to the upper one exactly when it lies
/// above the halfway point between them (or on it, with an odd lower
/// neighbour).  decideHalfway settles that with integer arithmetic on the
/// stack: the literal's first HalfwayDigits significant digits, a sticky
/// bit for the rest, against (2m+1) * 2^(e-1).
///
//===----------------------------------------------------------------------===//

#include "parse/parse.h"

#include "engine/scratch.h"
#include "engine/stats.h"
#include "fp/format_traits.h"
#include "fp/ieee_traits.h"
#include "parse/eisel_lemire.h"
#include "reader/reader.h"
#include "support/checks.h"

namespace dragon4::parse {

namespace {

/// Scanner output: the literal reduced to sign * W * 10^Q plus the
/// truncation and special-class facts the conversion step needs.
struct DecimalScan {
  uint64_t W = 0;
  int64_t Q = 0;
  bool Negative = false;
  bool Truncated = false; ///< Non-zero digits were dropped past 19.
  bool IsInfinity = false;
  bool IsNaN = false;
  size_t Consumed = 0;
  /// Byte span of the significand: digits and at most one '.', leading
  /// zeros included.  The halfway comparison rereads its digits.
  size_t DigitsBegin = 0;
  size_t DigitsEnd = 0;
};

constexpr int MaxFastDigits = 19; ///< 10^19 > 2^63: last width safe in u64.

/// Exponents past this never change the outcome for any format we
/// support; clamping keeps the Q arithmetic overflow-free while agreeing
/// with the exact reader's own clamp.
constexpr int64_t ExponentClamp = 1000000000;

bool asciiPrefixCaseEq(std::string_view Text, size_t Pos,
                       std::string_view Lower) {
  if (Text.size() - Pos < Lower.size())
    return false;
  for (size_t I = 0; I < Lower.size(); ++I)
    if ((Text[Pos + I] | 0x20) != Lower[I])
      return false;
  return true;
}

/// Longest-valid-prefix scan.  Returns false (Consumed untouched at 0)
/// when no literal starts at the beginning of \p Text.
bool scanDecimal(std::string_view Text, DecimalScan &Scan) {
  size_t I = 0;
  const size_t N = Text.size();
  if (I < N && (Text[I] == '+' || Text[I] == '-')) {
    Scan.Negative = Text[I] == '-';
    ++I;
  }

  if (asciiPrefixCaseEq(Text, I, "inf")) {
    Scan.IsInfinity = true;
    Scan.Consumed = I + (asciiPrefixCaseEq(Text, I, "infinity") ? 8 : 3);
    return true;
  }
  if (asciiPrefixCaseEq(Text, I, "nan")) {
    Scan.IsNaN = true;
    Scan.Consumed = I + 3;
    return true;
  }

  uint64_t W = 0;
  int SigDigits = 0;       // Digits accumulated into W.
  int64_t DroppedDigits = 0; // Digits past MaxFastDigits (zero or not).
  int64_t FracDigits = 0;  // Digits after the point (leading zeros too).
  bool SawDigit = false;
  bool SawPoint = false;
  bool Truncated = false;
  Scan.DigitsBegin = I;
  for (; I < N; ++I) {
    char C = Text[I];
    if (C == '.') {
      if (SawPoint)
        break;
      SawPoint = true;
      continue;
    }
    if (C < '0' || C > '9')
      break;
    SawDigit = true;
    if (SawPoint)
      ++FracDigits;
    if (SigDigits == 0 && C == '0')
      continue; // Leading zeros carry no information.
    if (SigDigits < MaxFastDigits) {
      W = W * 10 + static_cast<uint64_t>(C - '0');
      ++SigDigits;
    } else {
      ++DroppedDigits;
      if (C != '0')
        Truncated = true;
    }
  }
  if (!SawDigit)
    return false; // ".", "+", "e5", "" ... no literal at all.
  Scan.DigitsEnd = I;

  int64_t ExplicitExp = 0;
  if (I < N && (Text[I] | 0x20) == 'e') {
    size_t Mark = I++;
    bool ExpNegative = false;
    if (I < N && (Text[I] == '+' || Text[I] == '-')) {
      ExpNegative = Text[I] == '-';
      ++I;
    }
    if (I >= N || Text[I] < '0' || Text[I] > '9') {
      I = Mark; // "1e", "1e+": the exponent marker is not part of it.
    } else {
      for (; I < N && Text[I] >= '0' && Text[I] <= '9'; ++I)
        if (ExplicitExp < ExponentClamp)
          ExplicitExp = ExplicitExp * 10 + (Text[I] - '0');
      if (ExpNegative)
        ExplicitExp = -ExplicitExp;
    }
  }

  Scan.W = W;
  Scan.Q = ExplicitExp - FracDigits + DroppedDigits;
  Scan.Truncated = Truncated;
  Scan.Consumed = I;
  return true;
}

/// Per-format composition of special encodings.  Only the formats with a
/// fast path need this; the others reach specials through readFloat.
template <typename T> struct SpecialBits {
  using Traits = IeeeTraits<T>;
  using Bits = typename Traits::Bits;
  static constexpr Bits SignBit =
      Bits(1) << (Traits::StoredBits + Traits::ExponentBitCount);
  static T zero(bool Negative) {
    return Traits::fromBits(Negative ? SignBit : Bits(0));
  }
  static T infinity(bool Negative) {
    Bits B = Bits(ElParams<T>::InfinitePower) << Traits::StoredBits;
    return Traits::fromBits(Negative ? (B | SignBit) : B);
  }
  static T quietNaN(bool Negative) {
    Bits B = (Bits(ElParams<T>::InfinitePower) << Traits::StoredBits) |
             (Bits(1) << (Traits::StoredBits - 1));
    return Traits::fromBits(Negative ? (B | SignBit) : B);
  }
  static T compose(bool Negative, const AdjustedMantissa &Am) {
    Bits B = static_cast<Bits>(Am.Mantissa) |
             (static_cast<Bits>(Am.Power2) << Traits::StoredBits);
    return Traits::fromBits(Negative ? (B | SignBit) : B);
  }
};

template <typename T> struct HasFastPath : std::false_type {};
template <> struct HasFastPath<double> : std::true_type {};
template <> struct HasFastPath<float> : std::true_type {};

void charge(engine::EngineStats *Stats, uint64_t engine::EngineStats::*Member) {
  if (Stats)
    ++(Stats->*Member);
}

/// Encoding (sign clear) of the core's fields.  Compared as encodings, not
/// field by field: on a carry into the smallest normal, eiselLemire's
/// subnormal branch returns the hidden bit in Mantissa.
template <typename T> uint64_t encodingOf(const AdjustedMantissa &Am) {
  return Am.Mantissa | (uint64_t(Am.Power2) << ElParams<T>::StoredBits);
}

/// The digit cap, ElParams<T>::HalfwayDigits: a literal's significant
/// digits past it can only tell whether the value is above a halfway
/// point it agrees with so far, so they fold into one sticky bit.  A
/// halfway point (2m+1) * 2^g with g < 0 is the odd integer (2m+1) * 5^-g
/// over 10^-g, so all its digits are significant; the longest has the
/// smallest g and 2m+1 = 2^(p+1) - 1 (binary64: (2^54 - 1) * 5^1075, 768
/// digits; binary32: (2^25 - 1) * 5^150, 113).  Those with g >= 0 are
/// integers below 2^1024, far shorter.  Every halfway point between the
/// residue's brackets has its leading digit at the literal's, so it is an
/// exact multiple of the unit of the literal's last kept digit and the
/// truncated comparison is exact.  (fast_float keeps one more digit, 769
/// and 114; the extra is not needed.)
///
/// The 64-bit limbs the comparison needs: both sides end up within a
/// factor 1 + 10^-18 of each other, and each is below 2 * 10^cap -- the
/// digit side because it has at most cap digits, the halfway side because
/// the longest halfway point bounds (2m+1) * 5^k.  floor(cap * log2(10))
/// + 2 bits hold that (3.3220 > log2(10)); every operation asserts it.
template <typename T>
constexpr int HalfwayLimbs =
    (ElParams<T>::HalfwayDigits * 33220 / 10000 + 2) / 64 + 1;
static_assert(HalfwayLimbs<double> == 40 && HalfwayLimbs<float> == 6);

/// Natural number in a fixed number of little-endian 64-bit limbs, on the
/// stack: just the operations the halfway comparison uses.
template <int Capacity> class StackNat {
public:
  explicit StackNat(uint64_t V) {
    if (V)
      Limb[Size++] = V;
  }

  /// *this = *this * M + A, for M > 0.
  void mulAdd(uint64_t M, uint64_t A) {
    uint64_t Carry = A;
    for (int I = 0; I < Size; ++I) {
      unsigned __int128 P =
          static_cast<unsigned __int128>(Limb[I]) * M + Carry;
      Limb[I] = static_cast<uint64_t>(P);
      Carry = static_cast<uint64_t>(P >> 64);
    }
    if (Carry) {
      D4_ASSERT(Size < Capacity, "halfway comparison exceeded its limbs");
      Limb[Size++] = Carry;
    }
  }

  /// *this *= 5^K, 5^27 (the largest power below 2^63) at a time.
  void mulPow5(int64_t K) {
    constexpr uint64_t Pow5Step = 7450580596923828125u; // 5^27.
    for (; K >= 27; K -= 27)
      mulAdd(Pow5Step, 0);
    uint64_t Rest = 1;
    for (; K > 0; --K)
      Rest *= 5;
    if (Rest > 1)
      mulAdd(Rest, 0);
  }

  void shiftLeft(int64_t Bits) {
    if (Size == 0 || Bits == 0)
      return;
    D4_ASSERT(Bits < int64_t(64) * Capacity,
              "halfway comparison exceeded its limbs");
    const int Whole = static_cast<int>(Bits / 64);
    const int Part = static_cast<int>(Bits % 64);
    const uint64_t Spill = Part ? Limb[Size - 1] >> (64 - Part) : 0;
    const int NewSize = Size + Whole + (Spill != 0);
    D4_ASSERT(NewSize <= Capacity, "halfway comparison exceeded its limbs");
    if (Spill)
      Limb[NewSize - 1] = Spill;
    for (int I = Size - 1; I > 0; --I)
      Limb[I + Whole] =
          Part ? (Limb[I] << Part) | (Limb[I - 1] >> (64 - Part)) : Limb[I];
    Limb[Whole] = Limb[0] << Part;
    for (int I = 0; I < Whole; ++I)
      Limb[I] = 0;
    Size = NewSize;
  }

  friend int compare(const StackNat &A, const StackNat &B) {
    if (A.Size != B.Size)
      return A.Size < B.Size ? -1 : 1;
    for (int I = A.Size; I-- > 0;)
      if (A.Limb[I] != B.Limb[I])
        return A.Limb[I] < B.Limb[I] ? -1 : 1;
    return 0;
  }

private:
  uint64_t Limb[Capacity] = {};
  int Size = 0; ///< Limbs in use; the top one is non-zero.
};

/// The residue: the literal lies between the adjacent encodings Lower and
/// Lower + 1, and rounds to the upper one when it exceeds the halfway
/// point (2m+1) * 2^(e-1) between them, or equals it with m odd.
template <typename T>
AdjustedMantissa decideHalfway(std::string_view Text, const DecimalScan &Scan,
                               uint64_t Lower) {
  using Params = ElParams<T>;
  using Nat = StackNat<HalfwayLimbs<T>>;

  // The first HalfwayDigits significant digits, folded 19 at a time; any
  // non-zero digit past them is the sticky bit.  The span holds only
  // digits and at most one '.', and a non-zero digit (W > 0).
  size_t I = Scan.DigitsBegin;
  const size_t End = Scan.DigitsEnd;
  while (Text[I] == '0' || Text[I] == '.')
    ++I;
  Nat Digits(0);
  int Kept = 0;
  uint64_t Chunk = 0;
  uint64_t Scale = 1;
  for (; I < End && Kept < Params::HalfwayDigits; ++I) {
    if (Text[I] == '.')
      continue;
    Chunk = Chunk * 10 + static_cast<uint64_t>(Text[I] - '0');
    Scale *= 10;
    if (++Kept % MaxFastDigits == 0) {
      Digits.mulAdd(Scale, Chunk);
      Chunk = 0;
      Scale = 1;
    }
  }
  if (Scale > 1)
    Digits.mulAdd(Scale, Chunk);
  bool Sticky = false;
  for (; I < End && !Sticky; ++I)
    Sticky = Text[I] != '0' && Text[I] != '.';
  // Scan.Q is the exponent of the 19th significant digit.
  const int64_t P = Scan.Q + MaxFastDigits - Kept;

  // Lower = m * 2^e, so the halfway point is (2m+1) * 2^(e-1).
  constexpr uint64_t StoredMask = (uint64_t(1) << Params::StoredBits) - 1;
  const int Power2 = static_cast<int>(Lower >> Params::StoredBits);
  uint64_t M = Lower & StoredMask;
  if (Power2 > 0)
    M |= uint64_t(1) << Params::StoredBits;
  const int64_t G = (Power2 > 0 ? Power2 : 1) + Params::MinimumExponent -
                    Params::StoredBits - 1;
  Nat Half(2 * M + 1);

  // Digits * 10^P against Half * 2^G: the powers of five go to the side
  // where they are positive, then the powers of two.
  if (P >= 0)
    Digits.mulPow5(P);
  else
    Half.mulPow5(-P);
  if (P >= G)
    Digits.shiftLeft(P - G);
  else
    Half.shiftLeft(G - P);
  int Cmp = compare(Digits, Half);
  if (Cmp == 0 && Sticky)
    Cmp = 1;
  const bool Up = Cmp > 0 || (Cmp == 0 && (M & 1) != 0);
  const uint64_t Chosen = Lower + (Up ? 1 : 0);
  return {Chosen & StoredMask,
          static_cast<int32_t>(Chosen >> Params::StoredBits)};
}

template <typename T>
ParseResult<T> parseFloatImpl(std::string_view Text,
                              engine::EngineStats *Stats) {
  ParseResult<T> Result;
  DecimalScan Scan;
  if (!scanDecimal(Text, Scan)) {
    charge(Stats, &engine::EngineStats::FastParseRejected);
    return Result;
  }
  Result.Status = ParseStatus::Ok;
  Result.Consumed = Scan.Consumed;

  if constexpr (HasFastPath<T>::value) {
    if (Scan.IsNaN) {
      Result.Value = SpecialBits<T>::quietNaN(Scan.Negative);
      Result.Path = ParsePath::Special;
      charge(Stats, &engine::EngineStats::FastParseHits);
      return Result;
    }
    if (Scan.IsInfinity) {
      Result.Value = SpecialBits<T>::infinity(Scan.Negative);
      Result.Path = ParsePath::Special;
      charge(Stats, &engine::EngineStats::FastParseHits);
      return Result;
    }
    if (Scan.W == 0) { // All-zero digits; never flagged truncated.
      Result.Value = SpecialBits<T>::zero(Scan.Negative);
      Result.Path = ParsePath::Special;
      charge(Stats, &engine::EngineStats::FastParseHits);
      return Result;
    }
    AdjustedMantissa Am = eiselLemire<T>(Scan.Q, Scan.W);
    if (Scan.Truncated) {
      // The true value is in (W*10^Q, (W+1)*10^Q).  Rounding is monotone,
      // so identical endpoint encodings decide the whole interval.  An
      // interval 10^-18 wide holds at most one halfway point, so
      // different ones are neighbours.
      const uint64_t Lower = encodingOf<T>(Am);
      const uint64_t Upper = encodingOf<T>(eiselLemire<T>(Scan.Q, Scan.W + 1));
      if (Upper != Lower) {
        D4_ASSERT(Upper == Lower + 1, "residue brackets are not adjacent");
        Result.Value = SpecialBits<T>::compose(
            Scan.Negative, decideHalfway<T>(Text, Scan, Lower));
        Result.Path = ParsePath::ExactFallback;
        charge(Stats, &engine::EngineStats::FastParseFallbacks);
        return Result;
      }
    }
    Result.Value = SpecialBits<T>::compose(Scan.Negative, Am);
    Result.Path = ParsePath::Fast;
    charge(Stats, &engine::EngineStats::FastParseHits);
    return Result;
  } else {
    // Non-hardware formats: no certified Eisel-Lemire parameters yet, so
    // the whole literal (specials included) takes the exact reader.  It
    // is by construction inside readFloat's whole-string grammar.
    std::optional<T> Exact = readFloat<T>(Text.substr(0, Scan.Consumed));
    D4_ASSERT(Exact.has_value(),
              "scanned literal rejected by the exact reader");
    Result.Value = *Exact;
    Result.Path = ParsePath::ExactFallback;
    charge(Stats, &engine::EngineStats::FastParseFallbacks);
    return Result;
  }
}

} // namespace

template <typename T>
ParseResult<T> parseFloat(std::string_view Text, engine::EngineStats *Stats) {
  return parseFloatImpl<T>(Text, Stats);
}

template ParseResult<double> parseFloat<double>(std::string_view,
                                                engine::EngineStats *);
template ParseResult<float> parseFloat<float>(std::string_view,
                                              engine::EngineStats *);
template ParseResult<Binary16> parseFloat<Binary16>(std::string_view,
                                                    engine::EngineStats *);
template ParseResult<long double>
parseFloat<long double>(std::string_view, engine::EngineStats *);
template ParseResult<Binary128> parseFloat<Binary128>(std::string_view,
                                                      engine::EngineStats *);

template <typename T>
ParseResult<T> parseFloat(std::string_view Text, engine::Scratch &S) {
#if DRAGON4_OBS_ENABLED
  obs::ObsState &Obs = S.obsState();
  if (Obs.tick()) {
    uint64_t StartNs = obs::nowNanos();
    ParseResult<T> Result = parseFloatImpl<T>(Text, &S.counters());
    uint64_t LatencyNs = obs::nowNanos() - StartNs;
    Obs.Reg.recordPathLatency(FormatTraits<T>::Id, obs::PathClass::Parse,
                              LatencyNs);
    if (Result.ok()) {
      // Parse-side exemplar: the resulting encoding is the replayable
      // identity (the parse oracle round-trips it back through the
      // reader); digit count approximates input length, OptionsBase 0
      // marks the parse direction.
      obs::exemplar::ExemplarRecord Ex;
      FormatTraits<T>::encodingBits(Result.Value, Ex.BitsLo, Ex.BitsHi);
      Ex.LatencyNanos = LatencyNs;
      Ex.TimestampNanos = StartNs + LatencyNs;
      Ex.DigitsEmitted = static_cast<uint32_t>(Result.Consumed);
      Ex.Fmt = FormatTraits<T>::Id;
      Ex.PathC = obs::PathClass::Parse;
      Ex.OptionsBase = 0;
      Obs.Exemplars.consider(Ex, obs::config().ExemplarMarginBuckets);
    }
    return Result;
  }
#endif
  return parseFloatImpl<T>(Text, &S.counters());
}

template ParseResult<double> parseFloat<double>(std::string_view,
                                                engine::Scratch &);
template ParseResult<float> parseFloat<float>(std::string_view,
                                              engine::Scratch &);
template ParseResult<Binary16> parseFloat<Binary16>(std::string_view,
                                                    engine::Scratch &);
template ParseResult<long double> parseFloat<long double>(std::string_view,
                                                          engine::Scratch &);
template ParseResult<Binary128> parseFloat<Binary128>(std::string_view,
                                                      engine::Scratch &);

} // namespace dragon4::parse
