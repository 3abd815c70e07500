//===- fp/format_traits.h - Per-format pipeline traits -----------*- C++ -*-===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-format knobs the format-generic conversion pipeline needs beyond
/// the numeric parameters in IeeeTraits: a runtime FormatId, whether the
/// mantissa fits uint64_t (narrow Decomposed) or needs the BigInt view
/// (DecomposedBig), whether the Ryu rung is certified for the format, a
/// uniform 128-bit raw-encoding view for tracing/type-erasure,
/// and the worst-case shortest decimal digit count.
///
/// This is the one header that knows about all five supported formats; the
/// conversion core itself (core/, fastpath/) stays traits-generic and never
/// includes it.
///
//===----------------------------------------------------------------------===//

#ifndef DRAGON4_FP_FORMAT_TRAITS_H
#define DRAGON4_FP_FORMAT_TRAITS_H

#include "fp/binary128.h"
#include "fp/binary16.h"
#include "fp/extended80.h"
#include "fp/format_id.h"
#include "fp/ieee_traits.h"

#include <bit>
#include <cstdint>
#include <cstring>

namespace dragon4 {

namespace fp_detail {

/// ceil(p * log10(2)) + 1: the worst-case shortest decimal digit count for
/// a binary format with p significand bits (17 for binary64).  30103/100000
/// overestimates log10(2) = 0.30102999..., so the truncating division plus
/// two is exact for every p below ~50000.
constexpr int maxShortestDecimalDigits(int Precision) {
  return Precision * 30103 / 100000 + 2;
}

} // namespace fp_detail

/// Pipeline-level description of a supported format.
///
/// Specializations provide:
///   Id                 the runtime FormatId for stats/trace dimensions
///   Name               formatIdName(Id), as a compile-time constant
///   WideMantissa       true when the significand exceeds 64 bits and the
///                      conversion must take the DecomposedBig path
///   RyuCertified       true when the Ryu 128-bit cached-power table and
///                      exactness analysis cover the format (Precision <=
///                      54 and exponents inside the [-342, 342] power
///                      range); the first of the two shortest rungs
///   MaxShortestDigits  ceil(p log10 2) + 1, the free-format digit bound
///   encodingBits       raw encoding as (Lo, Hi) uint64 halves; Hi is zero
///                      for formats of 64 bits or fewer
///   fromEncoding       inverse of encodingBits (tests / type-erased batch)
template <typename T> struct FormatTraits;

template <> struct FormatTraits<Binary16> {
  static constexpr FormatId Id = FormatId::Binary16;
  static constexpr const char *Name = "binary16";
  static constexpr bool WideMantissa = false;
  static constexpr bool RyuCertified = true;
  static constexpr int MaxShortestDigits =
      fp_detail::maxShortestDecimalDigits(IeeeTraits<Binary16>::Precision);
  static void encodingBits(Binary16 Value, uint64_t &Lo, uint64_t &Hi) {
    Lo = Value.bits();
    Hi = 0;
  }
  static Binary16 fromEncoding(uint64_t Lo, uint64_t) {
    return Binary16::fromBits(static_cast<uint16_t>(Lo));
  }
};

template <> struct FormatTraits<float> {
  static constexpr FormatId Id = FormatId::Binary32;
  static constexpr const char *Name = "binary32";
  static constexpr bool WideMantissa = false;
  static constexpr bool RyuCertified = true;
  static constexpr int MaxShortestDigits =
      fp_detail::maxShortestDecimalDigits(IeeeTraits<float>::Precision);
  static void encodingBits(float Value, uint64_t &Lo, uint64_t &Hi) {
    Lo = std::bit_cast<uint32_t>(Value);
    Hi = 0;
  }
  static float fromEncoding(uint64_t Lo, uint64_t) {
    return std::bit_cast<float>(static_cast<uint32_t>(Lo));
  }
};

template <> struct FormatTraits<double> {
  static constexpr FormatId Id = FormatId::Binary64;
  static constexpr const char *Name = "binary64";
  static constexpr bool WideMantissa = false;
  static constexpr bool RyuCertified = true;
  static constexpr int MaxShortestDigits =
      fp_detail::maxShortestDecimalDigits(IeeeTraits<double>::Precision);
  static void encodingBits(double Value, uint64_t &Lo, uint64_t &Hi) {
    Lo = std::bit_cast<uint64_t>(Value);
    Hi = 0;
  }
  static double fromEncoding(uint64_t Lo, uint64_t) {
    return std::bit_cast<double>(Lo);
  }
};

template <> struct FormatTraits<long double> {
  static constexpr FormatId Id = FormatId::Extended80;
  static constexpr const char *Name = "extended80";
  static constexpr bool WideMantissa = false;
  // 64-bit mantissa: 4F + 2 overflows the Ryu interval arithmetic.
  static constexpr bool RyuCertified = false;
  static constexpr int MaxShortestDigits =
      fp_detail::maxShortestDecimalDigits(IeeeTraits<long double>::Precision);
  // The x87 encoding occupies the low 10 bytes of the 16-byte storage; the
  // remaining 6 are padding and must not leak into the canonical bits.
  static void encodingBits(long double Value, uint64_t &Lo, uint64_t &Hi) {
    unsigned char Raw[10];
    std::memcpy(Raw, &Value, sizeof(Raw));
    Lo = 0;
    Hi = 0;
    std::memcpy(&Lo, Raw, 8);
    std::memcpy(&Hi, Raw + 8, 2);
  }
  static long double fromEncoding(uint64_t Lo, uint64_t Hi) {
    long double Value = 0.0L;
    unsigned char Raw[10];
    std::memcpy(Raw, &Lo, 8);
    std::memcpy(Raw + 8, &Hi, 2);
    std::memcpy(&Value, Raw, sizeof(Raw));
    return Value;
  }
};

template <> struct FormatTraits<Binary128> {
  static constexpr FormatId Id = FormatId::Binary128;
  static constexpr const char *Name = "binary128";
  static constexpr bool WideMantissa = true;
  static constexpr bool RyuCertified = false;
  static constexpr int MaxShortestDigits =
      fp_detail::maxShortestDecimalDigits(IeeeTraits<Binary128>::Precision);
  static void encodingBits(Binary128 Value, uint64_t &Lo, uint64_t &Hi) {
    Lo = Value.lowBits();
    Hi = Value.highBits();
  }
  static Binary128 fromEncoding(uint64_t Lo, uint64_t Hi) {
    return Binary128::fromBits(Hi, Lo);
  }
};

static_assert(FormatTraits<Binary16>::MaxShortestDigits == 5 &&
                  FormatTraits<float>::MaxShortestDigits == 9 &&
                  FormatTraits<double>::MaxShortestDigits == 17 &&
                  FormatTraits<long double>::MaxShortestDigits == 21 &&
                  FormatTraits<Binary128>::MaxShortestDigits == 36,
              "shortest-digit bounds drifted from ceil(p log10 2) + 1");

} // namespace dragon4

#endif // DRAGON4_FP_FORMAT_TRAITS_H
