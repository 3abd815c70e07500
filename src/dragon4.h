//===- dragon4.h - libdragon4 umbrella header --------------------*- C++ -*-===//
//
// Part of libdragon4, a reproduction of Burger & Dybvig, "Printing
// Floating-Point Numbers Quickly and Accurately" (PLDI 1996).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Convenience umbrella: pulls in the whole public API.
///
/// Layering (each layer only depends on the ones above it).  One
/// traits-driven pipeline serves all five IEEE formats -- Binary16,
/// float, double, x87 long double, Binary128 -- from bits to bytes:
///
///   bigint/    arbitrary-precision integers and the B^k cache
///   rational/  exact rationals (the Section 2 oracle substrate)
///   fp/        IEEE-754 traits + FormatTraits<T>/FormatId, decomposition
///              (narrow f:uint64 or wide f:BigInt), Table 1 boundaries
///   core/      scaling, free-format, fixed-format, the rational oracle
///              (uint64 and BigInt digit loops behind one interface)
///   fastpath/  Ryu, the first shortest rung for binary16/32/64 (traits-
///              gated), over parse/'s powers-of-five table; DiyFp and the
///              64-bit cached powers of ten; the Gay-style fixed path.
///              Ryu's digit emission reuses render_core's digit store (the
///              one accepted fastpath -> format edge: render_core.h itself
///              depends only on core/ and support/, so there is no cycle)
///   reader/    correctly rounded text -> float (exact; verification side)
///   parse/     Eisel-Lemire text -> float (production side); one exact
///              halfway comparison on stack integers settles the residue
///              of binary32/64, reader/ serves the other formats
///   format/    the Sink concept (sink.h), the writer-generic digit
///              rendering core (render_core.h), printf and Scheme
///              notation, and the string API's declarations (dtoa.h)
///   engine/    formatInto<T, Sink> and formatFixedInto<T, Sink> -- the
///              conversion bodies every surface instantiates -- plus
///              format<T>/formatFixed<T>, the string API's definitions
///              (toShortest via format(), toFixed a StringSink one),
///              RecordStream (push-style streaming), BatchEngine<T>,
///              type-erased AnyBatch, per-format counters and bounds
///   abi/       the stable C ABI (dragon4_to_chars.h): hardened, locale-
///              and allocation-free C99 entry points over engine/ + parse/
///   baselines/ Steele-White, Grisu3, straightforward fixed-format,
///              printf shim -- named comparators, not production rungs
///   testgen/   Schryer-style, random and halfway-literal workloads
///
/// The pipeline shape, identical for every T:
///
///   bits --(fp: decompose/decomposeBig)--> DecomposedFloat
///        --(Ryu when certified, else the core digit loop)--> digits + K
///        --(format/engine: one render core over one Sink concept)--> bytes
///
//===----------------------------------------------------------------------===//

#ifndef DRAGON4_DRAGON4_H
#define DRAGON4_DRAGON4_H

#include "baselines/fixed17.h"
#include "baselines/grisu.h"
#include "baselines/printf_shim.h"
#include "baselines/steele_white.h"
#include "bigint/bigint.h"
#include "bigint/power_cache.h"
#include "core/digits.h"
#include "core/fixed_format.h"
#include "core/free_format.h"
#include "core/options.h"
#include "core/reference.h"
#include "core/scaling.h"
#include "abi/dragon4_to_chars.h"
#include "engine/batch.h"
#include "engine/engine.h"
#include "engine/scratch.h"
#include "engine/stats.h"
#include "engine/stream.h"
#include "fastpath/diyfp.h"
#include "fastpath/fixed_fast.h"
#include "format/dtoa.h"
#include "format/printf_compat.h"
#include "format/render.h"
#include "format/scheme_notation.h"
#include "format/sink.h"
#include "fp/binary128.h"
#include "fp/binary16.h"
#include "fp/boundaries.h"
#include "fp/decomposed.h"
#include "fp/extended80.h"
#include "fp/ieee_traits.h"
#include "parse/parse.h"
#include "rational/rational.h"
#include "reader/reader.h"
#include "testgen/halfway_literals.h"
#include "testgen/random_floats.h"
#include "testgen/schryer.h"

#endif // DRAGON4_DRAGON4_H
