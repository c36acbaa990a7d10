/**
 * @file
 * ChipBatch bit-identity tests: the tick-locked batch must reproduce
 * the scalar Chip::stepInto() stream bit for bit — per tick, per lane —
 * for homogeneous, heterogeneous, power-gated and fault-injected chips.
 * The fleet drive that steps through it is covered by
 * test_runtime_arbiter.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ppep/sim/chip.hpp"
#include "ppep/sim/chip_batch.hpp"
#include "ppep/sim/chip_config.hpp"
#include "ppep/sim/fault.hpp"
#include "ppep/workloads/suite.hpp"

namespace {

using namespace ppep;

/** Exact bit-pattern equality — injected sensor faults are NaN, and a
 *  NaN reading must survive the batch bit-identically too. */
void
expectBitsEqual(double batched, double scalar)
{
    EXPECT_EQ(std::bit_cast<std::uint64_t>(batched),
              std::bit_cast<std::uint64_t>(scalar))
        << batched << " vs " << scalar;
}

/** Bitwise equality of one tick across the batched and scalar paths. */
void
expectTickEqual(const sim::TickResult &batched,
                const sim::TickResult &scalar)
{
    expectBitsEqual(batched.sensor_power_w, scalar.sensor_power_w);
    expectBitsEqual(batched.diode_temp_k, scalar.diode_temp_k);

    const sim::TickTruth &b = batched.truth;
    const sim::TickTruth &s = scalar.truth;
    EXPECT_EQ(b.power.total, s.power.total);
    EXPECT_EQ(b.power.base, s.power.base);
    EXPECT_EQ(b.power.housekeeping, s.power.housekeeping);
    EXPECT_EQ(b.power.nb_static, s.power.nb_static);
    EXPECT_EQ(b.power.nb_dynamic, s.power.nb_dynamic);
    EXPECT_EQ(b.power.cu_idle, s.power.cu_idle);
    EXPECT_EQ(b.power.core_dynamic, s.power.core_dynamic);
    EXPECT_EQ(b.core_events, s.core_events);
    EXPECT_EQ(b.cu_gated, s.cu_gated);
    EXPECT_EQ(b.nb_gated, s.nb_gated);
    EXPECT_EQ(b.nb_utilization, s.nb_utilization);
    EXPECT_EQ(b.temperature_k, s.temperature_k);

    ASSERT_EQ(b.activity.size(), s.activity.size());
    for (std::size_t c = 0; c < s.activity.size(); ++c) {
        EXPECT_EQ(b.activity[c].busy, s.activity[c].busy) << "core " << c;
        EXPECT_EQ(b.activity[c].instructions, s.activity[c].instructions)
            << "core " << c;
        EXPECT_EQ(b.activity[c].cycles, s.activity[c].cycles)
            << "core " << c;
        EXPECT_EQ(b.activity[c].events, s.activity[c].events)
            << "core " << c;
        EXPECT_EQ(b.activity[c].l3_accesses, s.activity[c].l3_accesses)
            << "core " << c;
        EXPECT_EQ(b.activity[c].dram_accesses, s.activity[c].dram_accesses)
            << "core " << c;
        EXPECT_EQ(b.activity[c].cpi, s.activity[c].cpi) << "core " << c;
        EXPECT_EQ(b.activity[c].mcpi, s.activity[c].mcpi) << "core " << c;
    }
}

TEST(ChipBatch, LaneIsBitIdenticalToScalarStep)
{
    const sim::ChipConfig cfg = sim::fx8320Config();
    sim::Chip scalar(cfg, 11);
    sim::Chip lane(cfg, 11);
    for (sim::Chip *c : {&scalar, &lane}) {
        c->setPowerGatingEnabled(true);
        workloads::launch(*c, workloads::replicate("433.milc", 4), true);
    }

    sim::ChipBatch batch;
    ASSERT_EQ(batch.attach(lane), 0u);
    EXPECT_EQ(batch.laneCount(), 1u);
    EXPECT_EQ(batch.coreLaneCount(), cfg.coreCount());
    EXPECT_TRUE(batch.laneActive(0));

    sim::TickResult ref;
    for (std::size_t t = 0; t < 60; ++t) {
        SCOPED_TRACE("tick " + std::to_string(t));
        // Sweep the whole VF table (including boost indices) so the
        // pricing pass sees every operating point.
        const std::size_t vf = (t / 8) % scalar.stateCount();
        scalar.setAllVf(vf);
        lane.setAllVf(vf);
        scalar.stepInto(ref);
        batch.step();
        expectTickEqual(batch.result(0), ref);
    }
    EXPECT_EQ(lane.timeS(), scalar.timeS());
}

TEST(ChipBatch, HeterogeneousAndFaultyLanesShareThePass)
{
    // Four lanes over three platforms; lane 0 additionally runs with a
    // fault plan installed, so injected sensor/diode faults must stay
    // bit-identical through the batch too.
    struct Setup
    {
        sim::ChipConfig cfg;
        const char *program;
        std::size_t jobs;
        bool pg;
        bool faulty;
        std::uint64_t seed;
    };
    const Setup setups[] = {
        {sim::fx8320Config(), "433.milc", 6, true, true, 21},
        {sim::phenomIIConfig(), "EP", 4, false, false, 22},
        {sim::fx8320NbDvfsConfig(), "CG", 8, false, false, 23},
        {sim::fx8320Config(), "458.sjeng", 2, true, false, 24},
    };
    const sim::FaultPlan plan = sim::FaultPlan::parse(
        "msr=0.3,sensor_drop=0.2,diode_spike=0.1,jitter=0.3");

    std::vector<std::unique_ptr<sim::Chip>> scalars;
    std::vector<std::unique_ptr<sim::Chip>> lanes;
    sim::ChipBatch batch;
    std::size_t total_cores = 0;
    for (const Setup &s : setups) {
        scalars.push_back(std::make_unique<sim::Chip>(s.cfg, s.seed));
        lanes.push_back(std::make_unique<sim::Chip>(s.cfg, s.seed));
        for (sim::Chip *c : {scalars.back().get(), lanes.back().get()}) {
            c->setPowerGatingEnabled(s.pg);
            workloads::launch(*c, workloads::replicate(s.program, s.jobs),
                              true);
            if (s.faulty)
                c->setFaultPlan(plan, 7);
        }
        const std::size_t lane = batch.attach(*lanes.back());
        EXPECT_EQ(lane, lanes.size() - 1);
        total_cores += s.cfg.coreCount();
    }
    EXPECT_EQ(batch.laneCount(), 4u);
    EXPECT_EQ(batch.coreLaneCount(), total_cores);

    sim::TickResult ref;
    for (std::size_t t = 0; t < 50; ++t) {
        for (std::size_t i = 0; i < lanes.size(); ++i) {
            const std::size_t vf =
                (t / 10 + i) % scalars[i]->stateCount();
            scalars[i]->setAllVf(vf);
            lanes[i]->setAllVf(vf);
        }
        batch.step();
        for (std::size_t i = 0; i < lanes.size(); ++i) {
            SCOPED_TRACE("tick " + std::to_string(t) + " lane " +
                         std::to_string(i));
            scalars[i]->stepInto(ref);
            expectTickEqual(batch.result(i), ref);
        }
    }
}

TEST(ChipBatch, InactiveLanesAreLeftUntouched)
{
    // The fleet's lockstep drive deactivates a lane whose jittered
    // interval ran out of ticks before its peers; the lane's chip must
    // not advance, and reactivation must resume bit-identically.
    const sim::ChipConfig cfg = sim::fx8320Config();
    sim::Chip a_scalar(cfg, 5);
    sim::Chip b_scalar(cfg, 6);
    sim::Chip a_lane(cfg, 5);
    sim::Chip b_lane(cfg, 6);
    for (sim::Chip *c : {&a_scalar, &a_lane})
        workloads::launch(*c, workloads::replicate("EP", 4), true);
    for (sim::Chip *c : {&b_scalar, &b_lane})
        workloads::launch(*c, workloads::replicate("CG", 4), true);

    sim::ChipBatch batch;
    ASSERT_EQ(batch.attach(a_lane), 0u);
    ASSERT_EQ(batch.attach(b_lane), 1u);

    sim::TickResult ref;
    for (std::size_t t = 0; t < 25; ++t) {
        SCOPED_TRACE("tick " + std::to_string(t));
        const bool b_active = t < 10 || t >= 15;
        batch.setActive(1, b_active);
        EXPECT_EQ(batch.laneActive(1), b_active);
        batch.step();
        a_scalar.stepInto(ref);
        expectTickEqual(batch.result(0), ref);
        if (b_active) {
            b_scalar.stepInto(ref);
            expectTickEqual(batch.result(1), ref);
        }
        EXPECT_EQ(b_lane.timeS(), b_scalar.timeS());
    }
    EXPECT_EQ(a_lane.timeS(), a_scalar.timeS());
    EXPECT_GT(a_lane.timeS(), b_lane.timeS());
}

} // namespace
