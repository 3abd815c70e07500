//===- verify/domain.cpp - Verification input domains -----------------------===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "verify/domain.h"

#include "fp/format_traits.h"
#include "fp/ieee_traits.h"
#include "support/checks.h"
#include "testgen/random_floats.h"
#include "testgen/schryer.h"

#include <algorithm>

using namespace dragon4;
using namespace dragon4::verify;

namespace {

/// Encoding-space geometry per format (sign + exponent + stored mantissa).
/// Extended80 stores its integer bit explicitly; StoredBits counts only
/// the 63 fraction bits below it, and assemble() sets the integer bit
/// exactly when the exponent is nonzero, so every encoding built here is
/// canonical (no unnormals or pseudo-denormals).
struct Geometry {
  int StoredBits;
  int ExponentBits;
  int MaxBiased() const { return (1 << ExponentBits) - 1; }
};

/// The biased extended80 exponents of the Ryu window: v = F * 2^E with
/// 2^63 <= F < 2^64 has biased exponent E + 63 + 16383.
constexpr uint64_t Extended80Bias = 16383;
constexpr uint64_t RyuWindowLowBiased =
    FormatTraits<long double>::RyuMinExponent + 63 + Extended80Bias;
constexpr uint64_t RyuWindowHighBiased =
    FormatTraits<long double>::RyuMaxExponent + 63 + Extended80Bias;

Geometry geometry(FloatFormat Format) {
  switch (Format) {
  case FloatFormat::Binary16:
    return {10, 5};
  case FloatFormat::Binary32:
    return {23, 8};
  case FloatFormat::Binary64:
    return {52, 11};
  case FloatFormat::Extended80:
    return {63, 15};
  case FloatFormat::Binary128:
    return {112, 15};
  }
  return {52, 11};
}

/// Assembles a (possibly 128-bit) encoding from sign / biased exponent /
/// mantissa halves.  For the narrow formats Hi is always zero.
BitPattern assemble(FloatFormat Format, bool Sign, uint64_t Biased,
                    uint64_t MantissaHi, uint64_t MantissaLo) {
  Geometry G = geometry(Format);
  BitPattern Bits;
  Bits.Format = Format;
  if (Format == FloatFormat::Binary128) {
    // Stored mantissa: 48 bits in Hi, 64 in Lo.
    Bits.Lo = MantissaLo;
    Bits.Hi = (MantissaHi & ((uint64_t(1) << 48) - 1)) | (Biased << 48) |
              (Sign ? uint64_t(1) << 63 : 0);
  } else if (Format == FloatFormat::Extended80) {
    Bits.Lo = (MantissaLo & ((uint64_t(1) << 63) - 1)) |
              (Biased != 0 ? uint64_t(1) << 63 : 0);
    Bits.Hi = Biased | (Sign ? uint64_t(1) << 15 : 0);
  } else {
    int TotalBits = G.StoredBits + G.ExponentBits;
    Bits.Lo = (MantissaLo & ((uint64_t(1) << G.StoredBits) - 1)) |
              (Biased << G.StoredBits) |
              (Sign ? uint64_t(1) << TotalBits : 0);
  }
  return Bits;
}

/// Boundary encodings: the places conversion bugs live.  Both signs.
void appendBoundaries(FloatFormat Format, std::vector<BitPattern> &Out) {
  Geometry G = geometry(Format);
  const uint64_t MantOnesLo =
      Format == FloatFormat::Binary128 ? ~uint64_t(0)
                                       : (uint64_t(1) << G.StoredBits) - 1;
  const uint64_t MantOnesHi =
      Format == FloatFormat::Binary128 ? (uint64_t(1) << 48) - 1 : 0;
  const uint64_t MaxBiased = static_cast<uint64_t>(G.MaxBiased());

  for (bool Sign : {false, true}) {
    // Zero, minimum/maximum subnormal, minimum normal and its neighbours.
    Out.push_back(assemble(Format, Sign, 0, 0, 0));
    Out.push_back(assemble(Format, Sign, 0, 0, 1));
    Out.push_back(assemble(Format, Sign, 0, MantOnesHi, MantOnesLo));
    Out.push_back(assemble(Format, Sign, 1, 0, 0));
    Out.push_back(assemble(Format, Sign, 1, 0, 1));
    // Max finite, infinity, a NaN.
    Out.push_back(assemble(Format, Sign, MaxBiased - 1, MantOnesHi, MantOnesLo));
    Out.push_back(assemble(Format, Sign, MaxBiased, 0, 0));
    Out.push_back(assemble(Format, Sign, MaxBiased, 0, 1));
    // Power-of-two neighbourhoods across the exponent range: 2^e - ulp,
    // 2^e, 2^e + ulp (the narrow-gap rule's home turf).
    for (uint64_t Biased = 1; Biased < MaxBiased;
         Biased += (MaxBiased > 64 ? MaxBiased / 32 : 3)) {
      Out.push_back(assemble(Format, Sign, Biased, 0, 0));
      Out.push_back(assemble(Format, Sign, Biased, 0, 1));
      if (Biased > 1)
        Out.push_back(assemble(Format, Sign, Biased - 1, MantOnesHi, MantOnesLo));
    }
    if (Format == FloatFormat::Extended80) {
      // Both edges of the Ryu window and one binade outside each: the
      // smallest and largest mantissa of each binade.
      for (uint64_t Biased : {RyuWindowLowBiased - 1, RyuWindowLowBiased,
                              RyuWindowHighBiased, RyuWindowHighBiased + 1}) {
        Out.push_back(assemble(Format, Sign, Biased, 0, 0));
        Out.push_back(assemble(Format, Sign, Biased, 0, MantOnesLo));
      }
    }
  }
}

/// Schryer-style hard cases: run-of-ones mantissa forms crossed with a
/// biased-exponent sweep, via testgen for the hardware formats and a
/// direct 112-bit construction for binary128.
void appendHardCases(FloatFormat Format, std::vector<BitPattern> &Out) {
  switch (Format) {
  case FloatFormat::Binary16: {
    std::vector<uint64_t> Patterns = schryerPatternsForWidth(10, true);
    for (int Biased = 1; Biased <= 30; ++Biased)
      for (uint64_t M : Patterns)
        Out.push_back(assemble(Format, false, static_cast<uint64_t>(Biased),
                               0, M));
    break;
  }
  case FloatFormat::Binary32: {
    SchryerParams Params;
    Params.ExponentStride = 8;
    for (float V : schryerFloats(Params)) {
      BitPattern Bits;
      Bits.Format = Format;
      Bits.Lo = IeeeTraits<float>::toBits(V);
      Out.push_back(Bits);
    }
    break;
  }
  case FloatFormat::Binary64: {
    SchryerParams Params;
    Params.ExponentStride = 64;
    for (double V : schryerDoubles(Params)) {
      BitPattern Bits;
      Bits.Format = Format;
      Bits.Lo = IeeeTraits<double>::toBits(V);
      Out.push_back(Bits);
    }
    break;
  }
  case FloatFormat::Extended80: {
    // Run-of-ones fractions under the explicit integer bit, at four
    // exponents spread across the Ryu window (both edges included).
    std::vector<uint64_t> Patterns = schryerPatternsForWidth(63, false);
    const uint64_t Step = (RyuWindowHighBiased - RyuWindowLowBiased) / 3;
    for (uint64_t Biased = RyuWindowLowBiased; Biased <= RyuWindowHighBiased;
         Biased += Step)
      for (uint64_t M : Patterns)
        Out.push_back(assemble(Format, false, Biased, 0, M));
    break;
  }
  case FloatFormat::Binary128: {
    // 1^A 0^mid 1^C over the 112 stored bits, built as Hi/Lo halves.
    constexpr int Widths[] = {0, 1, 2, 3, 8, 16, 32, 47, 48, 49,
                              64, 80, 96, 104, 110, 111, 112};
    auto TopRun = [](int A, uint64_t &Hi, uint64_t &Lo) {
      Hi = Lo = 0;
      for (int Bit = 112 - A; Bit < 112; ++Bit) {
        if (Bit >= 64)
          Hi |= uint64_t(1) << (Bit - 64);
        else
          Lo |= uint64_t(1) << Bit;
      }
    };
    std::vector<std::pair<uint64_t, uint64_t>> Patterns;
    for (int A : Widths)
      for (int C : Widths) {
        if (A + C > 112)
          continue;
        uint64_t Hi, Lo;
        TopRun(A, Hi, Lo);
        if (C > 0) {
          if (C >= 64) {
            Lo = ~uint64_t(0);
            Hi |= (uint64_t(1) << (C - 64)) - 1;
          } else {
            Lo |= (uint64_t(1) << C) - 1;
          }
        }
        Patterns.emplace_back(Hi, Lo);
        Patterns.emplace_back(Hi, Lo ^ 1); // +/-1-style perturbation.
      }
    for (uint64_t Biased = 1; Biased <= 32766; Biased += 1500)
      for (auto [Hi, Lo] : Patterns)
        Out.push_back(assemble(Format, false, Biased, Hi, Lo));
    break;
  }
  }
}

/// Seeded random strata (normals, subnormals, raw-bit finites).
void appendRandom(FloatFormat Format, size_t Count, uint64_t Seed,
                  std::vector<BitPattern> &Out) {
  auto Push = [&](uint64_t Hi, uint64_t Lo) {
    BitPattern Bits;
    Bits.Format = Format;
    Bits.Hi = Hi;
    Bits.Lo = Lo;
    Out.push_back(Bits);
  };
  size_t Third = Count / 3;
  switch (Format) {
  case FloatFormat::Binary16: {
    SplitMix64 Rng(Seed);
    for (size_t I = 0; I < Count; ++I)
      Push(0, Rng.next() & 0xFFFF);
    break;
  }
  case FloatFormat::Binary32:
    for (float V : randomNormalFloats(Third, Seed))
      Push(0, IeeeTraits<float>::toBits(V));
    for (float V : randomSubnormalFloats(Third, Seed + 1))
      Push(0, IeeeTraits<float>::toBits(V));
    for (float V : randomBitsFloats(Count - 2 * Third, Seed + 2))
      Push(0, IeeeTraits<float>::toBits(V));
    break;
  case FloatFormat::Binary64:
    for (double V : randomNormalDoubles(Third, Seed))
      Push(0, IeeeTraits<double>::toBits(V));
    for (double V : randomSubnormalDoubles(Third, Seed + 1))
      Push(0, IeeeTraits<double>::toBits(V));
    for (double V : randomBitsDoubles(Count - 2 * Third, Seed + 2))
      Push(0, IeeeTraits<double>::toBits(V));
    break;
  case FloatFormat::Extended80: {
    // Mostly the Ryu window, where production values live: seven in ten
    // random normals inside it, then one in ten each of normals over the
    // whole range, subnormals, and canonical encodings of any exponent.
    SplitMix64 Rng(Seed);
    for (size_t I = 0; I < Count; ++I) {
      const uint64_t Stratum = I % 10;
      uint64_t Biased;
      if (Stratum < 7)
        Biased = RyuWindowLowBiased +
                 Rng.below(RyuWindowHighBiased - RyuWindowLowBiased + 1);
      else if (Stratum == 7)
        Biased = 1 + Rng.below(32766);
      else if (Stratum == 8)
        Biased = 0;
      else
        Biased = Rng.below(32767);
      Out.push_back(assemble(Format, (Rng.next() & 1) != 0, Biased, 0,
                             Rng.next()));
    }
    break;
  }
  case FloatFormat::Binary128: {
    SplitMix64 Rng(Seed);
    for (size_t I = 0; I < Count; ++I) {
      uint64_t Lo = Rng.next();
      uint64_t MantHi = Rng.next() & ((uint64_t(1) << 48) - 1);
      // Two thirds normals, one third subnormals.
      uint64_t Biased = I % 3 == 0 ? 0 : 1 + Rng.below(32766);
      Out.push_back(assemble(Format, (I & 1) != 0, Biased, MantHi, Lo));
    }
    break;
  }
  }
}

} // namespace

BitPattern dragon4::verify::exhaustiveBits(FloatFormat Format, uint64_t Begin,
                                           uint64_t Stride, uint64_t Index) {
  uint64_t Encodings = encodingCount(Format);
  D4_ASSERT(Encodings != 0, "format is not exhaustively enumerable");
  uint64_t Value = Begin + Index * Stride;
  D4_ASSERT(Value < Encodings, "sweep index out of the encoding space");
  BitPattern Bits;
  Bits.Format = Format;
  Bits.Lo = Value;
  return Bits;
}

uint64_t dragon4::verify::exhaustiveIndexCount(uint64_t Begin, uint64_t End,
                                               uint64_t Stride) {
  D4_ASSERT(Stride >= 1, "stride must be positive");
  if (End <= Begin)
    return 0;
  return (End - Begin + Stride - 1) / Stride;
}

std::vector<BitPattern> dragon4::verify::sampledDomain(FloatFormat Format,
                                                       size_t Count,
                                                       uint64_t Seed) {
  D4_ASSERT(Count >= 1, "empty domain");
  std::vector<BitPattern> Domain;
  Domain.reserve(Count + Count / 2);
  appendBoundaries(Format, Domain);
  appendHardCases(Format, Domain);
  if (Domain.size() > Count) {
    // Deterministic subsample: keep every k-th entry so both strata stay
    // represented whatever the requested count.
    std::vector<BitPattern> Kept;
    Kept.reserve(Count);
    size_t Step = Domain.size() / Count + 1;
    for (size_t I = 0; I < Domain.size() && Kept.size() < Count; I += Step)
      Kept.push_back(Domain[I]);
    Domain.swap(Kept);
  }
  if (Domain.size() < Count)
    appendRandom(Format, Count - Domain.size(), Seed, Domain);
  Domain.resize(Count);
  return Domain;
}
