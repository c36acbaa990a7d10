/**
 * @file
 * Unit tests for the programmable counter hardware (PmcBank) and the
 * daemon-side time multiplexer (PmcMultiplexer) — the mechanism behind
 * the paper's dedup/IS/DC outliers.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "ppep/sim/chip.hpp"
#include "ppep/sim/pmc.hpp"
#include "ppep/workloads/microbench.hpp"

namespace {

using namespace ppep::sim;

EventVector
constantCounts(double value)
{
    EventVector v{};
    for (auto &x : v)
        x = value;
    return v;
}

std::vector<Event>
allEventList()
{
    return {allEvents().begin(), allEvents().end()};
}

TEST(PmcBank, SlotsStartDisabled)
{
    PmcBank bank(6);
    EXPECT_EQ(bank.counterCount(), 6u);
    for (std::size_t s = 0; s < 6; ++s) {
        EXPECT_FALSE(bank.programmed(s).has_value());
        EXPECT_DOUBLE_EQ(bank.read(s), 0.0);
    }
}

TEST(PmcBank, DisabledSlotsDoNotCount)
{
    PmcBank bank(6);
    bank.observe(constantCounts(100.0));
    for (std::size_t s = 0; s < 6; ++s)
        EXPECT_DOUBLE_EQ(bank.read(s), 0.0);
}

TEST(PmcBank, ProgrammedSlotCountsItsEvent)
{
    PmcBank bank(6);
    bank.program(0, Event::RetiredInst);
    bank.program(1, Event::MabWaitCycles);
    EventVector counts{};
    counts[eventIndex(Event::RetiredInst)] = 42.0;
    counts[eventIndex(Event::MabWaitCycles)] = 7.0;
    bank.observe(counts);
    bank.observe(counts);
    EXPECT_DOUBLE_EQ(bank.read(0), 84.0);
    EXPECT_DOUBLE_EQ(bank.read(1), 14.0);
    EXPECT_DOUBLE_EQ(bank.read(2), 0.0);
}

TEST(PmcBank, ReprogramKeepsCountUntilWritten)
{
    PmcBank bank(2);
    bank.program(0, Event::RetiredInst);
    EventVector counts{};
    counts[eventIndex(Event::RetiredInst)] = 10.0;
    bank.observe(counts);
    bank.program(0, Event::RetiredBranch); // select changes
    EXPECT_DOUBLE_EQ(bank.read(0), 10.0);  // count register persists
    bank.write(0, 0.0);
    EXPECT_DOUBLE_EQ(bank.read(0), 0.0);
}

TEST(PmcBank, RawCountsOfAChipsEventsEqualItsTruth)
{
    // Raw counting, no multiplexer: two selects programmed by hand on a
    // bank fed one core's per-tick events read back exactly the chip's
    // ground-truth instructions and unhalted cycles.
    Chip chip(fx8320Config(), 1);
    chip.setJob(0, ppep::workloads::makeBenchA());
    PmcBank bank(6);
    bank.program(0, Event::RetiredInst);
    bank.program(1, Event::ClocksNotHalted);
    double truth_inst = 0.0, truth_cyc = 0.0;
    for (int t = 0; t < 10; ++t) {
        const auto r = chip.step();
        bank.observe(r.truth.core_events[0]);
        truth_inst += r.truth.activity[0].instructions;
        truth_cyc += r.truth.activity[0].cycles;
    }
    EXPECT_GT(truth_inst, 0.0);
    EXPECT_NEAR(bank.read(0), truth_inst, 1.0);
    EXPECT_NEAR(bank.read(1), truth_cyc, 1.0);
}

TEST(PmcBankDeath, SlotBoundsChecked)
{
    PmcBank bank(2);
    EXPECT_DEATH(bank.read(2), "out of range");
    EXPECT_DEATH(bank.program(5, Event::RetiredUop), "out of range");
    EXPECT_DEATH(bank.write(0, -1.0), "non-negative");
}

TEST(Mux, TwoGroupsWithSixCounters)
{
    PmcBank bank(6);
    PmcMultiplexer mux(bank, allEventList());
    EXPECT_EQ(mux.groupCount(), 2u);
    EXPECT_EQ(mux.groupOf(Event::RetiredUop), 0u);        // E1
    EXPECT_EQ(mux.groupOf(Event::RetiredBranch), 0u);     // E6
    EXPECT_EQ(mux.groupOf(Event::RetiredMispBranch), 1u); // E7
    EXPECT_EQ(mux.groupOf(Event::MabWaitCycles), 1u);     // E12
}

TEST(Mux, ProgramsCurrentGroupIntoBank)
{
    PmcBank bank(6);
    PmcMultiplexer mux(bank, allEventList(), /*stagger=*/0);
    // Group 0 = E1..E6 should be selected right away.
    EXPECT_EQ(bank.programmed(0), Event::RetiredUop);
    EXPECT_EQ(bank.programmed(5), Event::RetiredBranch);
}

TEST(Mux, SteadyCountsExtrapolateExactly)
{
    PmcBank bank(6);
    PmcMultiplexer mux(bank, allEventList());
    for (int t = 0; t < 10; ++t) {
        bank.observe(constantCounts(100.0));
        mux.afterTick();
    }
    const auto read = mux.readAndReset();
    // Each group saw 5 of 10 ticks at 100/tick -> extrapolated to 1000.
    for (std::size_t i = 0; i < kNumEvents; ++i)
        EXPECT_NEAR(read[i], 1000.0, 1e-9) << "event " << i;
}

TEST(Mux, ReadResetsState)
{
    PmcBank bank(6);
    PmcMultiplexer mux(bank, allEventList());
    bank.observe(constantCounts(50.0));
    mux.afterTick();
    bank.observe(constantCounts(50.0));
    mux.afterTick();
    mux.readAndReset();
    EXPECT_EQ(mux.ticksSinceReset(), 0u);
    const auto read = mux.readAndReset();
    for (double v : read)
        EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(Mux, UnobservedGroupReadsZero)
{
    PmcBank bank(6);
    PmcMultiplexer mux(bank, allEventList());
    bank.observe(constantCounts(100.0)); // only group 0 observed
    mux.afterTick();
    const auto read = mux.readAndReset();
    EXPECT_GT(read[0], 0.0);
    EXPECT_DOUBLE_EQ(read[11], 0.0);
}

TEST(Mux, PhaseFlipCausesExtrapolationError)
{
    // A workload alternating 200/0 per tick in sync with the rotation:
    // group 0 sees only the hot ticks, group 1 only the cold ones. The
    // extrapolated totals are badly wrong for both groups — the paper's
    // rapid-phase outlier mechanism, reproduced exactly.
    PmcBank bank(6);
    PmcMultiplexer mux(bank, allEventList());
    double truth = 0.0;
    for (int t = 0; t < 10; ++t) {
        const double v = (t % 2 == 0) ? 200.0 : 0.0;
        truth += v;
        bank.observe(constantCounts(v));
        mux.afterTick();
    }
    const auto read = mux.readAndReset();
    EXPECT_NEAR(read[0], 2.0 * truth, 1e-9); // group 0 doubles
    EXPECT_DOUBLE_EQ(read[11], 0.0);         // group 1 sees nothing
}

TEST(Mux, StaggerShiftsRotation)
{
    PmcBank bank_a(6), bank_b(6);
    PmcMultiplexer a(bank_a, allEventList(), 0);
    PmcMultiplexer b(bank_b, allEventList(), 1);
    bank_a.observe(constantCounts(100.0));
    a.afterTick();
    bank_b.observe(constantCounts(100.0));
    b.afterTick();
    const auto ra = a.readAndReset();
    const auto rb = b.readAndReset();
    EXPECT_GT(ra[0], 0.0);
    EXPECT_DOUBLE_EQ(ra[11], 0.0);
    EXPECT_DOUBLE_EQ(rb[0], 0.0);
    EXPECT_GT(rb[11], 0.0);
}

TEST(Mux, TwelveCountersNeedNoMultiplexing)
{
    PmcBank bank(12);
    PmcMultiplexer mux(bank, allEventList());
    EXPECT_EQ(mux.groupCount(), 1u);
    for (int t = 0; t < 7; ++t) {
        bank.observe(constantCounts(10.0));
        mux.afterTick();
    }
    const auto read = mux.readAndReset();
    for (double v : read)
        EXPECT_DOUBLE_EQ(v, 70.0);
}

TEST(Mux, SubsetOfEventsCoverable)
{
    // The daemon can choose to cover only the three performance events
    // with zero multiplexing on a six-slot bank.
    PmcBank bank(6);
    PmcMultiplexer mux(bank,
                       {Event::ClocksNotHalted, Event::RetiredInst,
                        Event::MabWaitCycles});
    EXPECT_EQ(mux.groupCount(), 1u);
    for (int t = 0; t < 5; ++t) {
        bank.observe(constantCounts(3.0));
        mux.afterTick();
    }
    const auto read = mux.readAndReset();
    EXPECT_DOUBLE_EQ(read[eventIndex(Event::RetiredInst)], 15.0);
    EXPECT_DOUBLE_EQ(read[eventIndex(Event::RetiredUop)], 0.0);
}

// --- the zero-coverage contract (documented on readAndReset) ------------

TEST(MuxZeroCoverage, ZeroTickGroupReadsExactlyZero)
{
    // Contract: a group that accumulated zero ticks since the last
    // reset reads exactly 0.0 for all its events — never a division
    // by zero coverage. Here group 1 is starved for the whole window.
    PmcBank bank(6);
    PmcMultiplexer mux(bank, allEventList(), /*stagger=*/0);
    bank.observe(constantCounts(100.0)); // one tick: group 0 only
    mux.afterTick();
    ASSERT_EQ(mux.ticksSinceReset(), 1u);
    const auto read = mux.readAndReset();
    for (std::size_t i = 0; i < kNumEvents; ++i) {
        if (mux.groupOf(static_cast<Event>(i)) == 1u) {
            EXPECT_DOUBLE_EQ(read[i], 0.0) << "event " << i;
        }
    }
}

TEST(MuxZeroCoverage, ZeroTickWindowReadsAllZero)
{
    // Degenerate window: readAndReset with no ticks at all returns the
    // all-zero vector and leaves the multiplexer usable.
    PmcBank bank(6);
    PmcMultiplexer mux(bank, allEventList());
    const auto read = mux.readAndReset();
    for (double v : read)
        EXPECT_DOUBLE_EQ(v, 0.0);
    EXPECT_EQ(mux.ticksSinceReset(), 0u);
    bank.observe(constantCounts(5.0));
    mux.afterTick();
    EXPECT_GT(mux.readAndReset()[0], 0.0);
}

TEST(MuxZeroCoverage, NoNanEverEscapes)
{
    // Whatever mixture of starved and covered groups, the extrapolated
    // vector is always finite.
    PmcBank bank(6);
    PmcMultiplexer mux(bank, allEventList());
    for (int t = 0; t < 3; ++t) {
        bank.observe(constantCounts(11.0));
        mux.afterTick();
        const auto read = mux.readAndReset();
        for (double v : read)
            EXPECT_TRUE(std::isfinite(v));
    }
}

// --- counter wraparound -------------------------------------------------

TEST(WrapDelta, IdentityWithoutWrap)
{
    EXPECT_EQ(wrapCounterDelta(100, 250, 48), 150u);
    EXPECT_EQ(wrapCounterDelta(0, 0, 48), 0u);
}

TEST(WrapDelta, RecoversIncrementAcrossWrap)
{
    // prev near full scale, cur small: the true increment assuming at
    // most one wrap.
    const std::uint64_t max = (1ULL << 16) - 1;
    EXPECT_EQ(wrapCounterDelta(max - 10, 5, 16), 16u);
    EXPECT_EQ(wrapCounterDelta(max, 0, 16), 1u);
}

TEST(WrapDelta, FullWidthBoundary)
{
    const std::uint64_t max = (1ULL << 48) - 1;
    EXPECT_EQ(wrapCounterDelta(max, 0, 48), 1u);
    EXPECT_EQ(wrapCounterDelta(0, max, 48), max);
}

TEST(WrapDeltaDeath, RejectsOutOfRangeInputs)
{
    EXPECT_DEATH(wrapCounterDelta(0, 1, 0), "width");
    EXPECT_DEATH(wrapCounterDelta(0, 1, 64), "width");
    EXPECT_DEATH(wrapCounterDelta(1ULL << 20, 0, 16), "exceed");
}

TEST(PmcBankWrap, UnboundedByDefault)
{
    PmcBank bank(6);
    EXPECT_EQ(bank.wrapBits(), 0u);
    EXPECT_EQ(bank.wrapEvents(), 0u);
}

TEST(PmcBankWrap, CountWrapsAtConfiguredWidth)
{
    PmcBank bank(6);
    bank.setWrapBits(8); // wraps at 256
    bank.program(0, Event::RetiredInst);
    EventVector counts{};
    counts[eventIndex(Event::RetiredInst)] = 100.0;
    bank.observe(counts);
    bank.observe(counts);
    EXPECT_DOUBLE_EQ(bank.read(0), 200.0);
    bank.observe(counts); // 300 -> wraps to 44
    EXPECT_DOUBLE_EQ(bank.read(0), 44.0);
    EXPECT_EQ(bank.wrapEvents(), 1u);
    EXPECT_DOUBLE_EQ(bank.maxCount(), 255.0);
}

TEST(PmcBankWrap, WrappedCountRecoverableViaWrapDelta)
{
    // The raw-MSR polling discipline: remember the previous raw value,
    // recover the true increment with wrapCounterDelta.
    PmcBank bank(6);
    bank.setWrapBits(8);
    bank.program(0, Event::RetiredInst);
    EventVector counts{};
    counts[eventIndex(Event::RetiredInst)] = 100.0;
    std::uint64_t prev = 0;
    std::uint64_t recovered = 0;
    for (int t = 0; t < 5; ++t) {
        bank.observe(counts);
        const auto cur = static_cast<std::uint64_t>(bank.read(0));
        recovered += wrapCounterDelta(prev, cur, 8);
        prev = cur;
    }
    EXPECT_EQ(recovered, 500u);
}

// Property sweep: with steady per-tick counts, extrapolation is exact
// for any counter-bank width once every group has been observed.
class WidthSweep : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(WidthSweep, SteadyExtrapolationExact)
{
    const std::size_t width = GetParam();
    PmcBank bank(width);
    PmcMultiplexer mux(bank, allEventList());
    const std::size_t groups = mux.groupCount();
    const std::size_t ticks = groups * 6; // every group observed equally
    for (std::size_t t = 0; t < ticks; ++t) {
        bank.observe(constantCounts(7.0));
        mux.afterTick();
    }
    const auto read = mux.readAndReset();
    for (std::size_t i = 0; i < kNumEvents; ++i)
        EXPECT_NEAR(read[i], 7.0 * static_cast<double>(ticks), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Widths, WidthSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 6u, 12u));

} // namespace
