//===- perfbench/harness/surfaces.h - End-to-end workload surfaces -*- C++ -*-===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One Surface per workload: the public entry point the workload's callers
/// use (the C ABI), driven in closed-loop requests of 16 values over the
/// input pool.
///
/// Protocol: the constructor allocates and zeroes the output buffers;
/// setUp() creates the surface's state and runs the untimed warm pass whose
/// outputs become the reference (the work setup_s times); validate() judges the
/// reference with the workload's oracle; pass() is one timed pass writing
/// the current outputs; failures() counts the operations of that pass whose
/// output failed the oracle, returned a non-OK status, or differs from the
/// reference.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HARNESS_SURFACES_H
#define PERFBENCH_HARNESS_SURFACES_H

#include "bench.h"

#include <memory>

namespace perfbench {

/// Request latencies of a whole run, reference-scaled and pooled in a
/// log-linear histogram: 64 buckets per power of two, so a bucket is at
/// most 1.6% wide, and a quantile interpolates inside its bucket.  A timed
/// pass only stores each request's raw wall latency (add); record() scales
/// and bins the pass's latencies after the pass's timing has ended.  Both
/// buffers are allocated and touched up front, so the process's memory does
/// not grow with the library's speed.
class LatencyHistogram {
public:
  /// \p PerPass is the number of requests in one pass.
  explicit LatencyHistogram(size_t PerPass);
  void add(int64_t Nanos) {
    if (Pending < Raw.size())
      Raw[Pending++] = Nanos;
  }
  /// Bins the pending latencies, each divided by \p Factor (the host
  /// factor of the pass).
  void record(double Factor);

  uint64_t samples() const { return Total; }
  /// Quantile \p Q (0..1) of the pooled scaled latencies.
  double quantile(double Q) const;

private:
  static constexpr int SubBits = 6;
  static constexpr int Octaves = 48;

  std::vector<int64_t> Raw;
  size_t Pending = 0;
  std::vector<uint64_t> Counts;
  uint64_t Total = 0;
};

class Surface {
public:
  virtual ~Surface() = default;
  /// Operations (values or literals) per pass.
  virtual size_t values() const = 0;
  virtual void setUp() = 0;
  virtual void tearDown() = 0;
  /// Judges the reference outputs; returns how many failed.
  virtual uint64_t validate() = 0;
  /// Requests (rows of RowSize operations) per pass.
  size_t requests() const { return (values() + RowSize - 1) / RowSize; }
  /// One timed pass; each request's latency goes to \p Lat when non-null.
  virtual void pass(LatencyHistogram *Lat) = 0;
  virtual uint64_t failures() const = 0;
  /// Reference output of operation \p Index: rendered bytes, or for parses
  /// the result bits as 16 raw bytes.
  virtual std::string_view reference(size_t Index) const = 0;

  /// A few reference outputs that failed validate(), for the notes.
  std::vector<std::string> Examples;

protected:
  void noteFailure(std::string Example) {
    if (Examples.size() < 3)
      Examples.push_back(std::move(Example));
  }
};

std::unique_ptr<Surface> makeSurface(const Inputs &In);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_SURFACES_H
