//===- perfbench/harness/timing.cpp - Statistics and the host reference ------===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "bench.h"

#include <bit>
#include <charconv>
#include <cstdio>
#include <string>
#include <sys/resource.h>

using namespace perfbench;

namespace {
/// Keeps the host reference's conversions observable.
volatile unsigned ReferenceSink;

/// Passes (or rounds) every timing helper runs, however short its budget.
constexpr size_t MinRepeats = 5;

/// The reference kernels start on a 64-byte boundary and are never inlined,
/// so their branches keep the same alignment however the code linked before
/// them grows.  A tight loop's speed can depend on that alignment, and the
/// kernels must cost the same on every build.
#define PERFBENCH_KERNEL [[gnu::noinline, gnu::aligned(64)]]
} // namespace

double perfbench::median(std::vector<double> Values) {
  if (Values.empty())
    return 0;
  std::sort(Values.begin(), Values.end());
  return quantileSorted(Values, 0.5);
}

double perfbench::quantileSorted(std::span<const double> Sorted,
                                 double Q) {
  if (Sorted.empty())
    return 0;
  double Position = Q * static_cast<double>(Sorted.size() - 1);
  size_t Low = static_cast<size_t>(Position);
  size_t High = std::min(Low + 1, Sorted.size() - 1);
  double Weight = Position - static_cast<double>(Low);
  return Sorted[Low] * (1 - Weight) + Sorted[High] * Weight;
}

double perfbench::peakRssMiB() {
  // VmHWM is this program's own high-water mark.  getrusage's ru_maxrss
  // would not do: exec keeps the launching process's peak in it, so under
  // a Python launcher it reads the launcher's size.
  if (std::FILE *Status = std::fopen("/proc/self/status", "r")) {
    char Line[256];
    long KiB = -1;
    while (KiB < 0 && std::fgets(Line, sizeof(Line), Status))
      if (std::sscanf(Line, "VmHWM: %ld kB", &KiB) != 1)
        KiB = -1;
    std::fclose(Status);
    if (KiB > 0)
      return static_cast<double>(KiB) / 1024.0;
  }
  struct rusage Usage {};
  getrusage(RUSAGE_SELF, &Usage);
  return static_cast<double>(Usage.ru_maxrss) / 1024.0; // KiB -> MiB.
}

namespace {

HostReference Selected = HostReference::Conversions;

/// Conversions: 2048 normal doubles over binary64's whole exponent range
/// and their shortest renderings, through std::to_chars, std::from_chars
/// and snprintf("%.17f").
PERFBENCH_KERNEL int64_t runConversions() {
  struct Fixture {
    std::vector<double> Values;
    std::vector<std::string> Texts;
    Fixture() : Values(2048) {
      Rng R(0x7265'6665'7265'6e63ull);
      char Buffer[32];
      for (double &V : Values) {
        uint64_t Exponent = 1 + R.below(2046);
        V = std::bit_cast<double>((Exponent << 52) | (R.next() >> 12));
        Texts.emplace_back(
            Buffer, std::to_chars(Buffer, Buffer + sizeof(Buffer), V).ptr);
      }
    }
  };
  static const Fixture In;
  char Buffer[512];
  unsigned Check = 0;
  const int64_t Start = nowNs();
  for (double V : In.Values)
    Check += static_cast<unsigned char>(
        *(std::to_chars(Buffer, Buffer + sizeof(Buffer), V).ptr - 1));
  for (const std::string &Text : In.Texts) {
    double V = 0;
    std::from_chars(Text.data(), Text.data() + Text.size(), V);
    Check += static_cast<unsigned>(std::bit_cast<uint64_t>(V));
  }
  for (size_t I = 0; I < 256; ++I)
    Check += static_cast<unsigned>(
        std::snprintf(Buffer, sizeof(Buffer), "%.17f", In.Values[I]));
  const int64_t Elapsed = nowNs() - Start;
  ReferenceSink = Check;
  return Elapsed;
}

/// Bignum: the shape of the exact digit loop, written here on 32-bit limbs
/// so no library code runs -- 40 decimal digits of each of 64 fractions
/// R/S of three-limb integers (R *= 10; digit = how many S fit).
PERFBENCH_KERNEL int64_t runBignum() {
  struct Number {
    uint32_t Limbs[4] = {};
    int Size = 0;
  };
  struct Fraction {
    Number R, S;
  };
  static const std::vector<Fraction> Fixture = [] {
    std::vector<Fraction> Out(64);
    Rng Random(0x6269'676e'756d'0000ull);
    for (Fraction &F : Out) {
      F.R.Size = F.S.Size = 3;
      for (int I = 0; I < 3; ++I) {
        F.S.Limbs[I] = static_cast<uint32_t>(Random.next()) | 1;
        F.R.Limbs[I] = static_cast<uint32_t>(Random.next());
      }
      F.R.Limbs[2] = F.S.Limbs[2] >> 1; // R < S.
    }
    return Out;
  }();
  auto Less = [](const Number &A, const Number &B) {
    if (A.Size != B.Size)
      return A.Size < B.Size;
    for (int I = A.Size - 1; I >= 0; --I)
      if (A.Limbs[I] != B.Limbs[I])
        return A.Limbs[I] < B.Limbs[I];
    return false;
  };
  unsigned Check = 0;
  const int64_t Start = nowNs();
  for (Fraction F : Fixture) {
    for (int Digit = 0; Digit < 40; ++Digit) {
      uint64_t Carry = 0;
      for (int I = 0; I < F.R.Size; ++I) {
        uint64_t Product = uint64_t(F.R.Limbs[I]) * 10 + Carry;
        F.R.Limbs[I] = static_cast<uint32_t>(Product);
        Carry = Product >> 32;
      }
      if (Carry)
        F.R.Limbs[F.R.Size++] = static_cast<uint32_t>(Carry);
      while (!Less(F.R, F.S)) {
        int64_t Borrow = 0;
        for (int I = 0; I < F.R.Size; ++I) {
          int64_t D = int64_t(F.R.Limbs[I]) -
                      (I < F.S.Size ? F.S.Limbs[I] : 0) - Borrow;
          Borrow = D < 0;
          F.R.Limbs[I] = static_cast<uint32_t>(D + (Borrow << 32));
        }
        while (F.R.Size > 1 && F.R.Limbs[F.R.Size - 1] == 0)
          --F.R.Size;
        ++Check;
      }
    }
  }
  const int64_t Elapsed = nowNs() - Start;
  ReferenceSink = Check;
  return Elapsed;
}

} // namespace

void perfbench::selectHostReference(HostReference Kind) { Selected = Kind; }

double perfbench::hostFactor() {
  if (Selected == HostReference::Bignum)
    return static_cast<double>(runBignum()) / BignumNominalNs;
  return static_cast<double>(runConversions()) / ConversionsNominalNs;
}

double perfbench::medianNsPer(double Seconds, size_t Units,
                              const std::function<void()> &Pass) {
  std::vector<double> PerUnit;
  const double Divisor = static_cast<double>(Units ? Units : 1);
  const int64_t Deadline = nowNs() + static_cast<int64_t>(Seconds * 1e9);
  while (PerUnit.size() < MinRepeats || nowNs() < Deadline) {
    const double Factor = hostFactor();
    const int64_t T0 = nowNs();
    Pass();
    PerUnit.push_back(static_cast<double>(nowNs() - T0) / Divisor / Factor);
  }
  return median(std::move(PerUnit));
}

double perfbench::Rounds::scaledNsPer(size_t P, size_t Units) const {
  std::vector<double> Values;
  for (size_t R = 0; R < Factor.size(); ++R)
    Values.push_back(Ns[P][R] / static_cast<double>(Units) / Factor[R]);
  return median(std::move(Values));
}

double perfbench::Rounds::ratio(size_t A, size_t B) const {
  std::vector<double> Values;
  for (size_t R = 0; R < Factor.size(); ++R)
    Values.push_back(Ns[A][R] / Ns[B][R]);
  return median(std::move(Values));
}

double perfbench::Rounds::scaledDeltaPer(size_t A, size_t B,
                                         size_t Units) const {
  std::vector<double> Values;
  for (size_t R = 0; R < Factor.size(); ++R)
    Values.push_back((Ns[A][R] - Ns[B][R]) / static_cast<double>(Units) /
                     Factor[R]);
  return median(std::move(Values));
}

Rounds perfbench::interleave(double Seconds,
                             const std::vector<std::function<void()>> &Passes) {
  Rounds Out;
  Out.Ns.resize(Passes.size());
  const int64_t Deadline = nowNs() + static_cast<int64_t>(Seconds * 1e9);
  for (size_t Round = 0; Round < MinRepeats || nowNs() < Deadline; ++Round) {
    Out.Factor.push_back(hostFactor());
    for (size_t K = 0; K < Passes.size(); ++K) {
      const size_t P = (Round + K) % Passes.size();
      const int64_t T0 = nowNs();
      Passes[P]();
      Out.Ns[P].push_back(static_cast<double>(nowNs() - T0));
    }
  }
  return Out;
}
