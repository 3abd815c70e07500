//===- verify/domain.h - Verification input domains --------------*- C++ -*-===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Domain construction for the verification sweeps.  Two regimes:
///
///  * Exhaustive: binary16 (65,536 encodings) and binary32 (2^32) are
///    enumerable; sweeps address them as a dense index range [0, N) that
///    tools/verify_exhaustive shards across BatchEngine workers.  The
///    index-to-bits mapping lives here so subranges and strides compose
///    deterministically.
///
///  * Sampled: binary64, extended80 and binary128 cannot be enumerated,
///    so their domains are deterministic stratified samples -- boundary
///    encodings first (the places conversion bugs live: zeros, subnormal
///    edges, power-of-two neighbours, max finite, specials, and for
///    extended80 the edges of the Ryu window), then Schryer-style
///    run-of-ones hard cases, then seeded random strata (normals,
///    subnormals, raw bits; extended80 draws seven in ten inside the Ryu
///    window).  The same (format, count, seed) triple always produces the
///    same vector, so a failure index is reproducible.
///
//===----------------------------------------------------------------------===//

#ifndef DRAGON4_VERIFY_DOMAIN_H
#define DRAGON4_VERIFY_DOMAIN_H

#include "verify/verify.h"

#include <vector>

namespace dragon4::verify {

/// The \p Index-th encoding of an exhaustive sweep over \p Format with the
/// given subrange/stride parameters: bits = Begin + Index * Stride.
/// Asserts the result lies within the format's encoding space.
BitPattern exhaustiveBits(FloatFormat Format, uint64_t Begin, uint64_t Stride,
                          uint64_t Index);

/// Number of sweep indices for [Begin, End) at \p Stride (End exclusive).
uint64_t exhaustiveIndexCount(uint64_t Begin, uint64_t End, uint64_t Stride);

/// Deterministic stratified + hard-case sample of \p Format with exactly
/// \p Count entries (Count >= 1).  Strata, in order: boundary encodings
/// and specials, Schryer-style mantissa patterns crossed with an exponent
/// sweep, then seeded random normals / subnormals / raw-bit finites.
std::vector<BitPattern> sampledDomain(FloatFormat Format, size_t Count,
                                      uint64_t Seed);

} // namespace dragon4::verify

#endif // DRAGON4_VERIFY_DOMAIN_H
