//===- perfbench/harness/surfaces.cpp - End-to-end workload surfaces --------===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "surfaces.h"

#include <bit>
#include <cmath>
#include <cstring>
#include <span>
#include <stdexcept>

using namespace perfbench;

LatencyHistogram::LatencyHistogram(size_t PerPass)
    : Raw(PerPass, 0), Counts(size_t(Octaves) << SubBits, 0) {}

void LatencyHistogram::record(double Factor) {
  for (size_t I = 0; I < Pending; ++I) {
    // Bucket = the scaled latency's binary exponent and top SubBits
    // significand bits.
    const double Scaled = std::max(1.0, static_cast<double>(Raw[I]) / Factor);
    const uint64_t Bits = std::bit_cast<uint64_t>(Scaled);
    const size_t Index = std::min<size_t>(
        static_cast<size_t>((Bits >> (52 - SubBits)) -
                            (uint64_t(1023) << SubBits)),
        Counts.size() - 1);
    ++Counts[Index];
  }
  Total += Pending;
  Pending = 0;
}

double LatencyHistogram::quantile(double Q) const {
  const double Target = Q * static_cast<double>(Total);
  uint64_t Below = 0;
  for (size_t Index = 0; Index < Counts.size(); ++Index) {
    if (!Counts[Index] || static_cast<double>(Below + Counts[Index]) < Target) {
      Below += Counts[Index];
      continue;
    }
    const double Low = std::ldexp(
        1.0 + static_cast<double>(Index & ((1u << SubBits) - 1)) / (1u << SubBits),
        static_cast<int>(Index >> SubBits));
    const double Width = std::ldexp(1.0, static_cast<int>(Index >> SubBits) -
                                             SubBits);
    return Low + Width * (Target - static_cast<double>(Below)) /
                     static_cast<double>(Counts[Index]);
  }
  return 0;
}

namespace {

/// Outputs of one pass over a print pool: fixed-stride text slots.
struct PrintOutputs {
  static constexpr size_t Slot = 48;
  std::vector<char> Chars;
  std::vector<uint32_t> Lengths;
  std::vector<uint8_t> Status;

  void resize(size_t Count) {
    Chars.assign(Count * Slot, 0);
    Lengths.assign(Count, 0);
    Status.assign(Count, 0);
  }
  std::string_view text(size_t I) const {
    return {Chars.data() + I * Slot, std::min<size_t>(Lengths[I], Slot)};
  }
};

/// print_shortest and print_fixed: rows of 16 dragon4_to_chars[_fixed]
/// calls on a caller-owned scratch.
class PrintSurface : public Surface {
public:
  PrintSurface(const Inputs &In, bool Fixed) : In(In), Fixed(Fixed) {
    Ref.resize(values());
    Cur.resize(values());
  }
  ~PrintSurface() override { tearDown(); }

  size_t values() const override { return In.Print.size(); }

  void setUp() override {
    Scratch = dragon4_scratch_create();
    if (!Scratch)
      throw std::runtime_error("dragon4_scratch_create failed");
    run(Ref, nullptr);
  }
  void tearDown() override {
    dragon4_scratch_destroy(Scratch);
    Scratch = nullptr;
  }

  uint64_t validate() override {
    Bad.assign(values(), 0);
    uint64_t Count = 0;
    for (size_t I = 0; I < values(); ++I) {
      bool Ok = Ref.Status[I] == DRAGON4_OK &&
                (Fixed ? checkFixed(In.Print[I], Ref.text(I))
                       : checkShortest(In.Print[I], Ref.text(I)));
      Bad[I] = !Ok;
      Count += !Ok;
      if (!Ok) {
        const PrintItem &Item = In.Print[I];
        noteFailure(strprintf("format %d bits %016llx:%04llx fraction %d -> "
                              "\"%.*s\"",
                              static_cast<int>(Item.Format),
                              static_cast<unsigned long long>(Item.Lo),
                              static_cast<unsigned long long>(Item.Hi),
                              Item.Fraction,
                              static_cast<int>(Ref.text(I).size()),
                              Ref.text(I).data()));
      }
    }
    return Count;
  }

  void pass(LatencyHistogram *Lat) override { run(Cur, Lat); }

  uint64_t failures() const override {
    uint64_t Count = 0;
    for (size_t I = 0; I < values(); ++I)
      Count += Bad[I] || Cur.Status[I] != DRAGON4_OK ||
               Cur.Lengths[I] != Ref.Lengths[I] ||
               std::memcmp(Cur.Chars.data() + I * PrintOutputs::Slot,
                           Ref.Chars.data() + I * PrintOutputs::Slot,
                           std::min<size_t>(Ref.Lengths[I],
                                            PrintOutputs::Slot)) != 0;
    return Count;
  }

  std::string_view reference(size_t Index) const override {
    return Ref.text(Index);
  }

private:
  void run(PrintOutputs &Out, LatencyHistogram *Lat) {
    const size_t Count = values();
    int64_t Start = nowNs();
    for (size_t Row = 0; Row < Count; Row += RowSize) {
      const size_t End = std::min(Row + RowSize, Count);
      for (size_t I = Row; I < End; ++I) {
        const PrintItem &Item = In.Print[I];
        size_t Length = 0;
        char *Buffer = Out.Chars.data() + I * PrintOutputs::Slot;
        dragon4_status Status =
            Fixed ? dragon4_to_chars_fixed_scratch(
                        Scratch, Item.Format, Item.Lo, Item.Hi, Item.Fraction,
                        nullptr, Buffer, PrintOutputs::Slot, &Length)
                  : dragon4_to_chars_scratch(Scratch, Item.Format, Item.Lo,
                                             Item.Hi, nullptr, Buffer,
                                             PrintOutputs::Slot, &Length);
        Out.Lengths[I] = static_cast<uint32_t>(Length);
        Out.Status[I] = static_cast<uint8_t>(Status);
      }
      if (Lat) {
        int64_t Now = nowNs();
        Lat->add(Now - Start);
        Start = Now;
      }
    }
  }

  const Inputs &In;
  bool Fixed;
  dragon4_scratch *Scratch = nullptr;
  PrintOutputs Ref, Cur;
  std::vector<uint8_t> Bad;
};

/// parse_roundtrip: rows of 16 dragon4_from_chars calls.
class ParseSurface : public Surface {
public:
  explicit ParseSurface(const Inputs &In)
      : In(In), Ref(values()), Cur(values()) {}

  size_t values() const override { return In.Parse.size(); }

  void setUp() override {
    run(Ref, nullptr);
  }
  void tearDown() override {}

  uint64_t validate() override {
    Bad.assign(values(), 0);
    uint64_t Count = 0;
    for (size_t I = 0; I < values(); ++I) {
      const ParseItem &Item = In.Parse[I];
      bool Ok = Ref[I].Status == DRAGON4_OK &&
                Ref[I].Consumed == Item.Length &&
                checkParse(Item, In.literal(Item), Ref[I].Bits[0]);
      Bad[I] = !Ok;
      Count += !Ok;
      if (!Ok)
        noteFailure(strprintf("literal \"%.60s\" -> bits %016llx",
                              std::string(In.literal(Item)).c_str(),
                              static_cast<unsigned long long>(Ref[I].Bits[0])));
    }
    return Count;
  }

  void pass(LatencyHistogram *Lat) override { run(Cur, Lat); }

  uint64_t failures() const override {
    uint64_t Count = 0;
    for (size_t I = 0; I < values(); ++I)
      Count += Bad[I] || Cur[I].Status != DRAGON4_OK ||
               Cur[I].Consumed != Ref[I].Consumed ||
               Cur[I].Bits[0] != Ref[I].Bits[0] ||
               Cur[I].Bits[1] != Ref[I].Bits[1];
    return Count;
  }

  std::string_view reference(size_t Index) const override {
    return {reinterpret_cast<const char *>(Ref[Index].Bits), 16};
  }

private:
  struct Outcome {
    uint64_t Bits[2] = {0, 0};
    size_t Consumed = 0;
    dragon4_status Status = DRAGON4_OK;
  };

  void run(std::vector<Outcome> &Out, LatencyHistogram *Lat) {
    const size_t Count = values();
    int64_t Start = nowNs();
    for (size_t Row = 0; Row < Count; Row += RowSize) {
      const size_t End = std::min(Row + RowSize, Count);
      for (size_t I = Row; I < End; ++I) {
        const ParseItem &Item = In.Parse[I];
        Outcome &O = Out[I];
        O.Status = dragon4_from_chars(Item.Format, In.Text.data() + Item.Offset,
                                      Item.Length, &O.Bits[0], &O.Bits[1],
                                      &O.Consumed);
      }
      if (Lat) {
        int64_t Now = nowNs();
        Lat->add(Now - Start);
        Start = Now;
      }
    }
  }

  const Inputs &In;
  std::vector<Outcome> Ref, Cur;
  std::vector<uint8_t> Bad;
};

} // namespace

std::unique_ptr<Surface> perfbench::makeSurface(const Inputs &In) {
  if (In.Workload == "print_shortest")
    return std::make_unique<PrintSurface>(In, /*Fixed=*/false);
  if (In.Workload == "print_fixed")
    return std::make_unique<PrintSurface>(In, /*Fixed=*/true);
  return std::make_unique<ParseSurface>(In);
}
