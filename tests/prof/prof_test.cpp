//===- tests/prof/prof_test.cpp ----------------------------------------------===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// The phase-attribution profiler's contracts:
//
//   * the counter substrate degrades to the steady clock when perf events
//     are denied (forced via the testhook, so this is covered even on
//     hosts where perf_event_open works), and keeps Ticks monotonic;
//   * nested spans attribute self time to the right phase and parent,
//     and the sum of attributed self ticks never exceeds measured gross;
//   * over the paper's Schryer workload the attribution accounts for the
//     overwhelming share of measured conversion time (the acceptance
//     criterion gates 95% through prof_report; the bound here is looser
//     so a noisy CI scheduler cannot flake the tier-1 suite);
//   * the report renderers emit the phases and the folded-stack grammar
//     downstream tooling parses.
//
//===----------------------------------------------------------------------===//

#include "engine/engine.h"
#include "prof/clock.h"
#include "prof/perf.h"
#include "prof/phase.h"
#include "prof/report.h"
#include "support/testhooks.h"
#include "testgen/schryer.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

using namespace dragon4;

namespace {

/// Clears the forced-fallback hook on scope exit.
struct FallbackGuard {
  ~FallbackGuard() { testhooks::ForceCounterFallback = false; }
};

TEST(ProfClock, NowNanosIsMonotonic) {
  uint64_t Prev = prof::nowNanos();
  for (int I = 0; I < 1000; ++I) {
    uint64_t Now = prof::nowNanos();
    ASSERT_GE(Now, Prev);
    Prev = Now;
  }
}

TEST(ProfClock, StopWatchMeasuresElapsedTime) {
  prof::StopWatch Watch;
  volatile uint64_t Spin = 0;
  for (int I = 0; I < 100000; ++I)
    Spin = Spin + static_cast<uint64_t>(I);
  uint64_t First = Watch.elapsedNanos();
  EXPECT_GT(First, 0u);
  EXPECT_GE(Watch.elapsedNanos(), First);
  EXPECT_LE(Watch.startNanos(), prof::nowNanos());
}

TEST(ProfPerf, ForcedFallbackDegradesToSteadyClock) {
  FallbackGuard Guard;
  testhooks::ForceCounterFallback = true;

  EXPECT_EQ(prof::backend(), prof::CounterBackend::SteadyClock);
  EXPECT_FALSE(prof::backendIsPerf());
  EXPECT_STREQ(prof::backendName(prof::backend()), "steady_clock");

  // On the fallback, a group read is one clock read: ticks advance
  // monotonically in nanoseconds and the derived counters stay zero.
  prof::PerfGroup Group;
  prof::CounterSample A, B;
  Group.read(A);
  Group.read(B);
  EXPECT_FALSE(Group.usingPerf());
  EXPECT_GE(B.Ticks, A.Ticks);
  EXPECT_GT(A.Ticks, 0u);
  EXPECT_EQ(A.Instructions, 0u);
  EXPECT_EQ(A.BranchMisses, 0u);
  EXPECT_EQ(A.CacheMisses, 0u);
}

TEST(ProfPerf, BackendNamesAreStableExportKeys) {
  EXPECT_STREQ(prof::backendName(prof::CounterBackend::PerfEvent),
               "perf_event");
  EXPECT_STREQ(prof::backendName(prof::CounterBackend::SteadyClock),
               "steady_clock");
}

#if DRAGON4_OBS_ENABLED

TEST(ProfPhase, UnboundCollectorDropsSpans) {
  prof::PhaseCollector C;
  EXPECT_FALSE(C.enter(prof::Phase::Total));
  EXPECT_EQ(C.depth(), 0);
}

TEST(ProfPhase, NestedSpansAttributeSelfToPhaseAndParent) {
  obs::Registry Reg;
  prof::PhaseCollector C;
  C.bind(&Reg);

  ASSERT_TRUE(C.enter(prof::Phase::Total));
  ASSERT_TRUE(C.enter(prof::Phase::DigitLoop));
  volatile uint64_t Spin = 0;
  for (int I = 0; I < 50000; ++I)
    Spin = Spin + static_cast<uint64_t>(I);
  C.exit();
  C.exit();
  EXPECT_EQ(C.depth(), 0);

  const obs::PhaseStats &Total = Reg.phase(prof::Phase::Total);
  const obs::PhaseStats &Loop = Reg.phase(prof::Phase::DigitLoop);
  EXPECT_EQ(Total.Spans, 1u);
  EXPECT_EQ(Loop.Spans, 1u);
  EXPECT_GT(Loop.SelfTicksTotal, 0u);
  EXPECT_GE(Loop.GrossTicksTotal, Loop.SelfTicksTotal);
  EXPECT_GE(Total.GrossTicksTotal, Loop.GrossTicksTotal);

  // The accounting identity: attributed self (Total's glue + the child +
  // explicit measurement overhead) never exceeds Total's measured gross.
  const obs::PhaseStats &Overhead = Reg.phase(prof::Phase::Overhead);
  EXPECT_LE(Total.SelfTicksTotal + Loop.SelfTicksTotal +
                Overhead.SelfTicksTotal,
            Total.GrossTicksTotal);

  // Parent attribution: the digit loop nested under Total, Total at the
  // root -- exactly what folded stacks are reconstructed from.
  EXPECT_EQ(Reg.phaseParentTicks(static_cast<size_t>(prof::Phase::Total),
                                 prof::Phase::DigitLoop),
            Loop.SelfTicksTotal);
  EXPECT_EQ(Reg.phaseParentTicks(prof::PhaseRootIndex, prof::Phase::Total),
            Total.SelfTicksTotal);
  EXPECT_EQ(Reg.phaseParentTicks(prof::PhaseRootIndex,
                                 prof::Phase::DigitLoop),
            0u);
}

TEST(ProfPhase, OverflowingTheSpanStackDropsNotCorrupts) {
  obs::Registry Reg;
  prof::PhaseCollector C;
  C.bind(&Reg);
  for (int I = 0; I < prof::PhaseCollector::MaxDepth; ++I)
    ASSERT_TRUE(C.enter(prof::Phase::Total));
  EXPECT_FALSE(C.enter(prof::Phase::DigitLoop));
  for (int I = 0; I < prof::PhaseCollector::MaxDepth; ++I)
    C.exit();
  EXPECT_EQ(C.depth(), 0);
  EXPECT_EQ(Reg.phase(prof::Phase::Total).Spans,
            static_cast<uint64_t>(prof::PhaseCollector::MaxDepth));
  EXPECT_EQ(Reg.phase(prof::Phase::DigitLoop).Spans, 0u);
}

TEST(ProfPhase, PhaseScopeInstallsAndRestoresTheCollector) {
  prof::PhaseCollector C;
  EXPECT_EQ(prof::activePhaseCollector(), nullptr);
  {
    prof::PhaseScope Outer(&C);
    EXPECT_EQ(prof::activePhaseCollector(), &C);
    {
      prof::PhaseScope Suppress(nullptr);
      EXPECT_EQ(prof::activePhaseCollector(), nullptr);
    }
    EXPECT_EQ(prof::activePhaseCollector(), &C);
  }
  EXPECT_EQ(prof::activePhaseCollector(), nullptr);
}

TEST(ProfPhase, SpanMacroIsANoOpWithoutACollector) {
  // No collector installed: the span must not crash or record anything.
  { D4_PROF_SPAN(DigitLoop); }
  SUCCEED();
}

/// Restores the process-global obs config on scope exit.
struct ConfigGuard {
  obs::Config Saved = obs::config();
  ~ConfigGuard() { obs::config() = Saved; }
};

/// Runs a Schryer subsample through the engine at SampleEvery = 1 and
/// returns the scratch whose registry carries the phase attribution.
/// Each value converts twice -- default options ride the Ryu front line,
/// the asymmetric LowInclusive reader model bypasses Ryu --
/// so every phase of the ladder records spans (mirrors prof_report).
void runProfiledWorkload(engine::Scratch &S) {
  char Buf[64];
  PrintOptions ExactOnly;
  ExactOnly.Boundaries = BoundaryMode::LowInclusive;
  std::vector<double> Values = schryerDoubles();
  for (size_t I = 0; I < Values.size(); I += 8) {
    engine::format(Values[I], Buf, sizeof(Buf), PrintOptions{}, S);
    engine::format(Values[I], Buf, sizeof(Buf), ExactOnly, S);
  }
}

TEST(ProfReport, AttributionCoversTheSchryerWorkload) {
  ConfigGuard Guard;
  obs::config().SampleEvery = 1;
  obs::config().Trace = false;

  engine::Scratch S;
  runProfiledWorkload(S);
  const obs::Registry &Reg = S.obsState().Reg;

  ASSERT_GT(Reg.phase(prof::Phase::Total).Spans, 0u);
  // The acceptance criterion is 95% on the full workload (gated by
  // prof_report --check-coverage); a slightly looser bound keeps tier-1
  // robust against scheduler noise on loaded CI machines.
  double Coverage = prof::attributionCoverage(Reg);
  EXPECT_GE(Coverage, 0.90) << "unattributed conversion time";
  EXPECT_LE(Coverage, 1.0);

  // The pipeline phases the paper's cost model names must all appear,
  // plus the Ryu front line that now serves the default reader model.
  for (prof::Phase P :
       {prof::Phase::DigitLoop, prof::Phase::ScaleSetup,
        prof::Phase::BigIntDivMod, prof::Phase::Render,
        prof::Phase::RyuPath})
    EXPECT_GT(Reg.phase(P).Spans, 0u)
        << "phase " << prof::phaseName(P) << " never recorded";
}

TEST(ProfReport, CostReportNamesPhasesBackendAndCoverage) {
  ConfigGuard Guard;
  obs::config().SampleEvery = 1;

  engine::Scratch S;
  runProfiledWorkload(S);
  std::string Report = prof::renderCostReport(S.obsState().Reg);

  EXPECT_NE(Report.find(prof::backendName(prof::backend())),
            std::string::npos);
  EXPECT_NE(Report.find("coverage"), std::string::npos);
  for (prof::Phase P :
       {prof::Phase::DigitLoop, prof::Phase::ScaleSetup,
        prof::Phase::BigIntDivMod, prof::Phase::Render,
        prof::Phase::RyuPath, prof::Phase::Overhead})
    EXPECT_NE(Report.find(prof::phaseLabel(P)), std::string::npos)
        << prof::phaseLabel(P);
}

TEST(ProfReport, FoldedStacksParseAndNestUnderTotal) {
  ConfigGuard Guard;
  obs::config().SampleEvery = 1;

  engine::Scratch S;
  runProfiledWorkload(S);
  std::string Folded = prof::renderFoldedStacks(S.obsState().Reg);
  ASSERT_FALSE(Folded.empty());

  // Grammar: "frame(;frame)* <weight>\n" with every stack rooted at
  // dragon4 -- exactly what flamegraph.pl consumes.
  std::istringstream Lines(Folded);
  std::string Line;
  bool SawDigitLoop = false;
  bool SawRyu = false;
  while (std::getline(Lines, Line)) {
    size_t Space = Line.rfind(' ');
    ASSERT_NE(Space, std::string::npos) << Line;
    std::string Stack = Line.substr(0, Space);
    uint64_t Weight = 0;
    ASSERT_NO_THROW(Weight = std::stoull(Line.substr(Space + 1))) << Line;
    EXPECT_GT(Weight, 0u) << Line;
    EXPECT_EQ(Stack.rfind("dragon4", 0), 0u) << Line;
    if (Stack.find("total;digit_loop") != std::string::npos)
      SawDigitLoop = true;
    if (Stack.find("total;ryu_path") != std::string::npos)
      SawRyu = true;
  }
  EXPECT_TRUE(SawDigitLoop) << "digit loop missing from folded stacks";
  EXPECT_TRUE(SawRyu) << "ryu path missing from folded stacks";
}

#endif // DRAGON4_OBS_ENABLED

} // namespace
