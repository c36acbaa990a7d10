/**
 * @file
 * Unit tests for the interval-analysis core model: the place where the
 * paper's Eq. 4-6 identities and Observations 1/2 must *emerge*.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "ppep/sim/core_model.hpp"

namespace {

using namespace ppep::sim;

ChipConfig
quietConfig()
{
    ChipConfig cfg = fx8320Config();
    cfg.rate_jitter_sd = 0.0; // deterministic rates for identity checks
    cfg.event_freq_sens = {}; // perfect Observation 1
    return cfg;
}

/** Instructions per second at the given rates, frequency and memory
 *  latency: the expression CoreModel::execute() evaluates inline. */
double
instRate(const PerInstRates &rates, double f_ghz, double mem_lat_ns)
{
    const double mcpi = rates.leading_per_inst * mem_lat_ns * f_ghz;
    const double cpi = rates.ccpi + mcpi;
    return f_ghz * 1e9 / cpi;
}

Phase
memPhase()
{
    Phase p;
    p.l2req_per_inst = 0.05;
    p.l2miss_per_inst = 0.02;
    p.leading_per_inst = 0.006;
    p.l3_miss_rate = 0.7;
    return p;
}

TEST(CoreModel, CcpiDecomposition)
{
    const auto cfg = quietConfig();
    ppep::util::Rng rng(1);
    Phase p;
    p.mispred_per_inst = 0.005;
    p.resource_stall_cpi = 0.4;
    const auto rates = CoreModel::effectiveRates(cfg, p, 3.5, rng);
    // CCPI = 1/IW + penalty * mispred + resource stalls.
    EXPECT_NEAR(rates.ccpi, 0.25 + 20.0 * 0.005 + 0.4, 1e-12);
    EXPECT_NEAR(rates.obs2_gap, 0.25 + 20.0 * 0.005, 1e-12);
}

TEST(CoreModel, Observation1ExactWithoutSensitivity)
{
    const auto cfg = quietConfig();
    ppep::util::Rng rng_a(1), rng_b(1);
    const Phase p = memPhase();
    const auto hi = CoreModel::effectiveRates(cfg, p, 3.5, rng_a);
    const auto lo = CoreModel::effectiveRates(cfg, p, 1.4, rng_b);
    for (std::size_t i = 0; i < 8; ++i)
        EXPECT_NEAR(hi.power_events[i], lo.power_events[i], 1e-12)
            << "event E" << i + 1;
}

TEST(CoreModel, Observation1ApproximateWithSensitivity)
{
    ChipConfig cfg = fx8320Config();
    cfg.rate_jitter_sd = 0.0;
    ppep::util::Rng rng_a(1), rng_b(1);
    const Phase p = memPhase();
    const auto hi = CoreModel::effectiveRates(cfg, p, 3.5, rng_a);
    const auto lo = CoreModel::effectiveRates(cfg, p, 1.7, rng_b);
    // E4 (data cache) carries the paper's largest delta, ~5% VF5 vs VF2.
    const double delta_e4 =
        std::fabs(hi.power_events[3] - lo.power_events[3]) /
        hi.power_events[3];
    EXPECT_GT(delta_e4, 0.02);
    EXPECT_LT(delta_e4, 0.09);
    // E1 stays within ~1%.
    const double delta_e1 =
        std::fabs(hi.power_events[0] - lo.power_events[0]) /
        hi.power_events[0];
    EXPECT_LT(delta_e1, 0.015);
}

TEST(CoreModel, McpiScalesWithFrequencyAtFixedLatency)
{
    const auto cfg = quietConfig();
    ppep::util::Rng rng(1);
    const Phase p = memPhase();
    const auto rates = CoreModel::effectiveRates(cfg, p, 3.5, rng);
    const auto hi = CoreModel::execute(cfg, rates, 3.5, 80.0, 0.02, 1e18);
    const auto lo = CoreModel::execute(cfg, rates, 1.4, 80.0, 0.02, 1e18);
    const double mcpi_hi = hi.mcpi;
    const double mcpi_lo = lo.mcpi;
    EXPECT_NEAR(mcpi_hi / mcpi_lo, 3.5 / 1.4, 1e-9);
}

TEST(CoreModel, Observation2GapFrequencyInvariant)
{
    const auto cfg = quietConfig();
    ppep::util::Rng rng(1);
    const Phase p = memPhase();
    const auto rates = CoreModel::effectiveRates(cfg, p, 3.5, rng);
    for (double f : {1.4, 1.7, 2.3, 2.9, 3.5}) {
        const auto act = CoreModel::execute(cfg, rates, f, 80.0, 0.02,
                                            1e18);
        const double cpi = act.cycles / act.instructions;
        const double ds_per_inst =
            act.events[eventIndex(Event::DispatchStall)] /
            act.instructions;
        EXPECT_NEAR(cpi - ds_per_inst, rates.obs2_gap, 1e-9)
            << "f = " << f;
    }
}

TEST(CoreModel, Equation4CycleAccounting)
{
    // unhalted = retiring + stalls + discarded (Eq. 4/5).
    const auto cfg = quietConfig();
    ppep::util::Rng rng(1);
    Phase p = memPhase();
    p.mispred_per_inst = 0.004;
    const auto rates = CoreModel::effectiveRates(cfg, p, 3.5, rng);
    const auto act = CoreModel::execute(cfg, rates, 3.5, 80.0, 0.02, 1e18);
    const double retiring =
        act.events[eventIndex(Event::RetiredInst)] / cfg.issue_width;
    const double stalls =
        act.events[eventIndex(Event::DispatchStall)];
    const double discarded =
        act.events[eventIndex(Event::RetiredMispBranch)] *
        cfg.mispredict_penalty;
    EXPECT_NEAR(act.events[eventIndex(Event::ClocksNotHalted)],
                retiring + stalls + discarded,
                act.cycles * 1e-9);
}

TEST(CoreModel, MabWaitEqualsMemoryCycles)
{
    const auto cfg = quietConfig();
    ppep::util::Rng rng(1);
    const auto rates =
        CoreModel::effectiveRates(cfg, memPhase(), 2.9, rng);
    const auto act = CoreModel::execute(cfg, rates, 2.9, 95.0, 0.02, 1e18);
    EXPECT_NEAR(act.events[eventIndex(Event::MabWaitCycles)],
                act.mcpi * act.instructions, 1e-6);
}

TEST(CoreModel, InstructionsBoundedByJobRemainder)
{
    const auto cfg = quietConfig();
    ppep::util::Rng rng(1);
    const auto rates =
        CoreModel::effectiveRates(cfg, Phase{}, 3.5, rng);
    const auto act = CoreModel::execute(cfg, rates, 3.5, 80.0, 0.02,
                                        1000.0);
    EXPECT_DOUBLE_EQ(act.instructions, 1000.0);
}

TEST(CoreModel, HigherLatencyLowersThroughput)
{
    const auto cfg = quietConfig();
    ppep::util::Rng rng(1);
    const auto rates =
        CoreModel::effectiveRates(cfg, memPhase(), 3.5, rng);
    const double fast = instRate(rates, 3.5, 70.0);
    const double slow = instRate(rates, 3.5, 140.0);
    EXPECT_GT(fast, slow);
}

TEST(CoreModel, CpuBoundInsensitiveToLatency)
{
    const auto cfg = quietConfig();
    ppep::util::Rng rng(1);
    Phase p;
    p.l2req_per_inst = 0.001;
    p.l2miss_per_inst = 0.0;
    p.leading_per_inst = 0.0;
    const auto rates = CoreModel::effectiveRates(cfg, p, 3.5, rng);
    const double fast = instRate(rates, 3.5, 70.0);
    const double slow = instRate(rates, 3.5, 700.0);
    EXPECT_DOUBLE_EQ(fast, slow);
}

TEST(CoreModel, IdleTickIsSilent)
{
    const auto act = CoreModel::idleTick();
    EXPECT_FALSE(act.busy);
    EXPECT_DOUBLE_EQ(act.instructions, 0.0);
    EXPECT_DOUBLE_EQ(act.cycles, 0.0);
    for (double e : act.events)
        EXPECT_DOUBLE_EQ(e, 0.0);
}

// Property sweep: event counts scale linearly with executed instructions
// across VF states and latencies.
struct ExecCase
{
    double f_ghz;
    double lat_ns;
};

class ExecSweep : public ::testing::TestWithParam<ExecCase>
{
};

TEST_P(ExecSweep, EventCountsProportionalToInstructions)
{
    const auto cfg = quietConfig();
    ppep::util::Rng rng(1);
    const auto rates =
        CoreModel::effectiveRates(cfg, memPhase(), GetParam().f_ghz, rng);
    const auto act = CoreModel::execute(cfg, rates, GetParam().f_ghz,
                                        GetParam().lat_ns, 0.02, 1e18);
    ASSERT_GT(act.instructions, 0.0);
    for (std::size_t i = 0; i < 8; ++i) {
        EXPECT_NEAR(act.events[i] / act.instructions,
                    rates.power_events[i], 1e-9)
            << "event E" << i + 1;
    }
    EXPECT_NEAR(act.l3_accesses / act.instructions, rates.l3_per_inst,
                1e-9);
    EXPECT_NEAR(act.dram_accesses / act.instructions,
                rates.dram_per_inst, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ExecSweep,
    ::testing::Values(ExecCase{1.4, 70.0}, ExecCase{1.4, 140.0},
                      ExecCase{2.3, 90.0}, ExecCase{3.5, 70.0},
                      ExecCase{3.5, 200.0}));

} // namespace
