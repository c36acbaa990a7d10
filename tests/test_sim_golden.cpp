/**
 * @file
 * Golden pins of the simulator's exact output.
 *
 * Replay files, telemetry digests and every paper figure depend on the
 * simulated chip's numbers bit for bit, so a change to the tick path
 * that only claims to be faster must leave them untouched. Each test
 * below drives fixed-seed chips through a few hundred ticks and
 * FNV-1a-hashes the bit pattern of every TickResult field and every
 * multiplexed PMC read; the literals were recorded before the tick
 * path was last optimised and must never be regenerated to make a
 * change pass. The scenarios cover each branch of the tick: power
 * gating, the shared and per-CU voltage rails, Phenom II, NB DVFS,
 * boost grants and clamps, every chip-side fault, and jobs that change
 * phase and finish mid-tick. A last pin hashes the serialized output of
 * the --quick training run, since training is simulation too.
 *
 * Skipped under PPEP_NATIVE: ppep_util (the RNG's Box-Muller transform)
 * is not contraction-pinned, so -march=native may fuse its arithmetic.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "ppep/model/serialization.hpp"
#include "ppep/model/trainer.hpp"
#include "ppep/sim/chip.hpp"
#include "ppep/sim/chip_config.hpp"
#include "ppep/sim/fault.hpp"
#include "ppep/sim/phase.hpp"
#include "ppep/workloads/suite.hpp"

namespace {

using namespace ppep;

#ifdef PPEP_NATIVE
#define PPEP_SKIP_IF_NATIVE()                                          \
    GTEST_SKIP() << "PPEP_NATIVE: ppep_util is not contraction-pinned"
#else
#define PPEP_SKIP_IF_NATIVE() (void)0
#endif

/** FNV-1a 64 over bit patterns. */
class Fnv
{
  public:
    void bytes(const void *p, std::size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h_ ^= b[i];
            h_ *= 1099511628211ull;
        }
    }
    void u64(std::uint64_t v) { bytes(&v, sizeof(v)); }
    void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
    void events(const sim::EventVector &e)
    {
        for (double v : e)
            f64(v);
    }
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 14695981039346656037ull;
};

void
hashTick(Fnv &f, const sim::TickResult &r)
{
    f.f64(r.sensor_power_w);
    f.f64(r.diode_temp_k);
    const sim::TickTruth &t = r.truth;
    const sim::PowerBreakdown &p = t.power;
    for (double v : {p.total, p.base, p.housekeeping, p.nb_static,
                     p.nb_dynamic})
        f.f64(v);
    for (double v : p.cu_idle)
        f.f64(v);
    for (double v : p.core_dynamic)
        f.f64(v);
    for (const auto &e : t.core_events)
        f.events(e);
    for (const auto &a : t.activity) {
        f.u64(a.busy);
        for (double v : {a.instructions, a.cycles, a.l3_accesses,
                         a.dram_accesses, a.cpi, a.mcpi})
            f.f64(v);
        f.events(a.events);
    }
    for (bool g : t.cu_gated)
        f.u64(g);
    f.u64(t.nb_gated);
    f.f64(t.nb_utilization);
    f.f64(t.temperature_k);
}

/** Read every core's multiplexed counters (the daemon's interval read). */
void
hashPmcReads(Fnv &f, sim::Chip &chip)
{
    for (std::size_t c = 0; c < chip.config().coreCount(); ++c) {
        f.u64(chip.pmcTicksSinceReset(c));
        if (chip.faultInjector() != nullptr) {
            sim::EventVector out{};
            const bool ok = chip.tryReadPmc(c, out);
            f.u64(ok);
            if (ok)
                f.events(out);
        } else {
            f.events(chip.readPmc(c));
        }
    }
}

/**
 * Step @p chip for @p intervals intervals of @p ticks_per_interval ticks
 * each (jittered when the chip carries a fault plan), calling
 * @p before_interval(i) first and reading the PMCs after each interval.
 */
template <typename Hook>
std::uint64_t
drive(sim::Chip &chip, std::size_t intervals, Hook before_interval,
      std::size_t ticks_per_interval = 10)
{
    Fnv f;
    sim::TickResult res;
    for (std::size_t i = 0; i < intervals; ++i) {
        before_interval(i);
        std::size_t ticks = ticks_per_interval;
        if (sim::FaultInjector *inj = chip.faultInjector())
            ticks = inj->jitterTicks(ticks);
        f.u64(ticks);
        for (std::size_t t = 0; t < ticks; ++t) {
            chip.stepInto(res);
            hashTick(f, res);
        }
        hashPmcReads(f, chip);
    }
    f.u64(chip.pmcWrapEvents());
    return f.value();
}

/** Cycle a CU's VF request with the interval index so every state runs. */
void
cycleVf(sim::Chip &chip, std::size_t interval)
{
    const std::size_t n = chip.stateCount();
    for (std::size_t cu = 0; cu < chip.config().n_cus; ++cu)
        chip.setCuVf(cu, (interval + 2 * cu) % n);
}

sim::Phase
phase(double inst, double l2miss, double leading, double miss_rate,
      double stall)
{
    sim::Phase p;
    p.inst_count = inst;
    p.l2miss_per_inst = l2miss;
    p.leading_per_inst = leading;
    p.l3_miss_rate = miss_rate;
    p.resource_stall_cpi = stall;
    return p;
}

TEST(SimGolden, Fx8320PowerGatingOff)
{
    PPEP_SKIP_IF_NATIVE();
    sim::Chip chip(sim::fx8320Config(), 11);
    workloads::launch(chip, workloads::replicate("433.milc", 3), true);
    const auto h = drive(chip, 30, [&](std::size_t i) { cycleVf(chip, i); });
    EXPECT_EQ(h, 0x49be0ce6ca42fa15ull);
}

TEST(SimGolden, Fx8320PowerGatingOn)
{
    PPEP_SKIP_IF_NATIVE();
    sim::Chip chip(sim::fx8320Config(), 12);
    chip.setPowerGatingEnabled(true);
    workloads::launch(chip, workloads::replicate("429.mcf", 2), true);
    const auto h = drive(chip, 30, [&](std::size_t i) {
        cycleVf(chip, i);
        // Idle the whole chip for a stretch so the NB gates too.
        if (i == 12) {
            for (std::size_t c = 0; c < chip.config().coreCount(); ++c)
                chip.clearJob(c);
        }
        if (i == 18)
            workloads::launch(chip, workloads::replicate("470.lbm", 1),
                              true);
    });
    EXPECT_EQ(h, 0xd59d6aa49b61efaaull);
}

TEST(SimGolden, Fx8320PerCuVoltagePowerGated)
{
    PPEP_SKIP_IF_NATIVE();
    sim::ChipConfig cfg = sim::fx8320Config();
    cfg.per_cu_voltage = true;
    sim::Chip chip(cfg, 13);
    chip.setPowerGatingEnabled(true);
    workloads::launch(chip, workloads::replicate("458.sjeng", 3), true);
    const auto h = drive(chip, 30, [&](std::size_t i) { cycleVf(chip, i); });
    EXPECT_EQ(h, 0xa596872e944b247eull);
}

TEST(SimGolden, PhenomII)
{
    PPEP_SKIP_IF_NATIVE();
    sim::Chip chip(sim::phenomIIConfig(), 14);
    workloads::launch(chip, workloads::replicate("462.libquantum", 4),
                      true);
    const auto h = drive(chip, 30, [&](std::size_t i) { cycleVf(chip, i); });
    EXPECT_EQ(h, 0xf413474990b3e22dull);
}

TEST(SimGolden, NbDvfsChangesMidRun)
{
    PPEP_SKIP_IF_NATIVE();
    const sim::ChipConfig cfg = sim::fx8320NbDvfsConfig();
    sim::Chip chip(cfg, 15);
    workloads::launch(chip, workloads::replicate("433.milc", 4), true);
    const auto h = drive(chip, 30, [&](std::size_t i) {
        cycleVf(chip, i);
        if (i == 10)
            chip.setNbVf(cfg.nb.vf_lo);
        if (i == 20)
            chip.setNbVf(cfg.nb.vf_hi);
    });
    EXPECT_EQ(h, 0x304115f1c2b25e3bull);
}

TEST(SimGolden, BoostGrantedAndClamped)
{
    PPEP_SKIP_IF_NATIVE();
    const sim::ChipConfig cfg = sim::fx8320ConfigWithBoost();
    sim::Chip chip(cfg, 16);
    chip.setPowerGatingEnabled(true);
    workloads::launch(chip, workloads::replicate("456.hmmer", 2), true);
    std::size_t granted = 0;
    std::size_t clamped = 0;
    const auto h = drive(chip, 30, [&](std::size_t i) {
        // Request the top boost state everywhere; the hardware grants
        // it only while few CUs are busy and the die is cool.
        chip.setAllVf(chip.stateCount() - 1 - (i % 2));
        if (i == 8)
            chip.setTemperatureK(cfg.boost_temp_limit_k - 25.0);
        if (i == 12)
            workloads::launch(chip, workloads::replicate("456.hmmer", 4),
                              true);
        if (i == 18)
            chip.setTemperatureK(cfg.boost_temp_limit_k + 5.0);
        if (i == 22)
            workloads::launch(chip, workloads::replicate("456.hmmer", 1),
                              true);
        ++(chip.grantedVf(0) >= cfg.vf_table.size() ? granted : clamped);
    });
    EXPECT_EQ(h, 0xbfd8ca75c5d42d00ull);
    EXPECT_GT(granted, 0u);
    EXPECT_GT(clamped, 0u);
}

TEST(SimGolden, FaultPlanEveryChipSideFault)
{
    PPEP_SKIP_IF_NATIVE();
    sim::Chip chip(sim::fx8320Config(), 17);
    chip.setPowerGatingEnabled(true);
    chip.setFaultPlan(
        sim::FaultPlan::parse("msr=0.05,wrap=24,saturate=0.02,mux=0.05,"
                              "vf_delay=0.2,vf_reject=0.1,jitter=0.3,"
                              "power_drift=2e-3,diode_spike=0.02,"
                              "sensor_drop=0.02"),
        99);
    workloads::launch(chip, workloads::replicate("470.lbm", 3), true);
    const auto h = drive(chip, 40, [&](std::size_t i) { cycleVf(chip, i); });
    EXPECT_EQ(h, 0x45b68a8eb27c0dd3ull);
    // Every fault the plan names fired at least once.
    const sim::FaultCounters &n = chip.faultInjector()->counters();
    EXPECT_GT(n.msr_read_failures, 0u);
    EXPECT_GT(n.pmc_slot_saturations, 0u);
    EXPECT_GT(n.mux_dropped_ticks, 0u);
    EXPECT_GT(n.vf_rejects, 0u);
    EXPECT_GT(n.vf_delays, 0u);
    EXPECT_GT(n.jittered_intervals, 0u);
    EXPECT_GT(n.drift_ticks, 0u);
    EXPECT_GT(chip.pmcWrapEvents(), 0u);
}

TEST(SimGolden, TwoProgramJobsChangePhaseAndFinishMidTick)
{
    PPEP_SKIP_IF_NATIVE();
    sim::Chip chip(sim::fx8320Config(), 18);
    chip.setPowerGatingEnabled(true);
    // Phases no longer than a few ticks' instruction budget, so ticks
    // cross phase boundaries and the jobs end mid-tick.
    chip.setJob(0, std::make_unique<sim::Job>(
                       "golden.a",
                       std::vector<sim::Phase>{
                           phase(3e7, 0.001, 0.0005, 0.3, 0.3),
                           phase(9e7, 0.02, 0.008, 0.7, 0.5),
                           phase(2e7, 0.0, 0.0, 0.3, 0.1),
                           phase(6e8, 0.01, 0.004, 0.5, 0.4)}));
    chip.setJob(2, std::make_unique<sim::Job>(
                       "golden.b",
                       std::vector<sim::Phase>{
                           phase(1.1e8, 0.015, 0.006, 0.8, 0.6),
                           phase(4e7, 0.0005, 0.0002, 0.2, 0.2),
                           phase(9e8, 0.004, 0.002, 0.4, 0.35)}));
    const auto h = drive(chip, 30, [&](std::size_t i) {
        chip.setAllVf(i % chip.stateCount());
        if (i == 15) {
            chip.setJob(1, std::make_unique<sim::Job>(
                               "golden.c",
                               std::vector<sim::Phase>{
                                   phase(5e7, 0.008, 0.003, 0.6, 0.3),
                                   phase(7e7, 0.0, 0.0, 0.3, 0.2)}));
        }
    });
    EXPECT_EQ(h, 0xf5db010e253daa71ull);
    for (std::size_t c : {0u, 1u, 2u})
        EXPECT_TRUE(chip.job(c)->finished()) << "core " << c;
}

/** The CLI's --quick training set: the first ten single-program combos. */
std::vector<const workloads::Combination *>
quickTrainingSet()
{
    std::vector<const workloads::Combination *> out;
    for (const auto &c : workloads::allCombinations())
        if (c.instances.size() == 1 && out.size() < 10)
            out.push_back(&c);
    return out;
}

std::uint64_t
trainedModelHash(const sim::ChipConfig &cfg)
{
    const model::Trainer trainer(cfg, 42);
    std::ostringstream os;
    model::saveModels(trainer.trainAll(quickTrainingSet()), os);
    Fnv f;
    const std::string s = os.str();
    f.bytes(s.data(), s.size());
    return f.value();
}

TEST(SimGolden, QuickTrainingOutputFx8320)
{
    PPEP_SKIP_IF_NATIVE();
    EXPECT_EQ(trainedModelHash(sim::fx8320Config()), 0xa821bd3169bb15b8ull);
}

TEST(SimGolden, QuickTrainingOutputPhenomII)
{
    PPEP_SKIP_IF_NATIVE();
    EXPECT_EQ(trainedModelHash(sim::phenomIIConfig()), 0x5812db6ba479923bull);
}

} // namespace
