/**
 * @file
 * Tests for the power-capping governors (the Fig. 7 experiment) and the
 * control-loop machinery.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "ppep/governor/governor.hpp"
#include "ppep/governor/iterative_capping.hpp"
#include "ppep/governor/ppep_capping.hpp"
#include "ppep/model/event_predictor.hpp"
#include "ppep/model/trainer.hpp"
#include "ppep/trace/collector.hpp"
#include "ppep/util/rng.hpp"
#include "ppep/workloads/suite.hpp"

namespace {

using namespace ppep::governor;
namespace sim = ppep::sim;
namespace wl = ppep::workloads;
namespace model = ppep::model;
namespace trace = ppep::trace;

TEST(CapSchedule, ConstantCap)
{
    CapSchedule s(100.0);
    EXPECT_DOUBLE_EQ(s.capAt(0), 100.0);
    EXPECT_DOUBLE_EQ(s.capAt(999), 100.0);
}

TEST(CapSchedule, PiecewiseSteps)
{
    CapSchedule s({{0, 120.0}, {10, 60.0}, {20, 90.0}});
    EXPECT_DOUBLE_EQ(s.capAt(0), 120.0);
    EXPECT_DOUBLE_EQ(s.capAt(9), 120.0);
    EXPECT_DOUBLE_EQ(s.capAt(10), 60.0);
    EXPECT_DOUBLE_EQ(s.capAt(19), 60.0);
    EXPECT_DOUBLE_EQ(s.capAt(25), 90.0);
}

TEST(CapSchedule, UnlimitedIsHuge)
{
    EXPECT_GT(CapSchedule::unlimited().capAt(0), 1e9);
}

TEST(CapScheduleDeath, MustStartAtZero)
{
    EXPECT_DEATH(CapSchedule({{5, 100.0}}), "start at interval 0");
}

TEST(Metrics, AdherenceCountsUnderCap)
{
    std::vector<GovernorStep> steps(4);
    for (auto &s : steps)
        s.cap_w = 100.0;
    steps[0].rec.sensor_power_w = 90.0;
    steps[1].rec.sensor_power_w = 101.0; // within 2% grace
    steps[2].rec.sensor_power_w = 110.0; // violation
    steps[3].rec.sensor_power_w = 95.0;
    EXPECT_DOUBLE_EQ(capAdherence(steps), 0.75);
}

TEST(Metrics, SettleCountsIntervalsAfterDrop)
{
    std::vector<GovernorStep> steps(6);
    for (auto &s : steps) {
        s.cap_w = 120.0;
        s.rec.sensor_power_w = 100.0;
    }
    // Cap drops at step 3; power falls under it at step 5.
    steps[3].cap_w = steps[4].cap_w = steps[5].cap_w = 80.0;
    steps[3].rec.sensor_power_w = 100.0;
    steps[4].rec.sensor_power_w = 95.0;
    steps[5].rec.sensor_power_w = 75.0;
    EXPECT_DOUBLE_EQ(meanSettleIntervals(steps), 3.0);
}

/** Shared trained models for governor tests. */
struct Shared
{
    sim::ChipConfig cfg;
    model::TrainedModels models;

    Shared() : cfg(sim::fx8320Config())
    {
        cfg.per_cu_voltage = true; // the Sec. V-B assumption
        model::Trainer trainer(cfg, 51);
        std::vector<const wl::Combination *> training;
        for (const auto &c : wl::allCombinations())
            if (c.instances.size() == 1 && training.size() < 12)
                training.push_back(&c);
        models = trainer.trainAll(training);
    }

    static const Shared &
    get()
    {
        static const Shared s;
        return s;
    }

    /** The paper's Fig. 7 workload on four CUs, PG enabled. */
    sim::Chip
    makeLoadedChip(std::uint64_t seed) const
    {
        sim::Chip chip(cfg, seed);
        chip.setPowerGatingEnabled(true);
        chip.setJob(0, wl::Suite::byName("429.mcf").makeLoopingJob());
        chip.setJob(2, wl::Suite::byName("458.sjeng").makeLoopingJob());
        chip.setJob(4, wl::Suite::byName("416.gamess").makeLoopingJob());
        chip.setJob(6, wl::Suite::byName("swaptions").makeLoopingJob());
        return chip;
    }
};

TEST(Iterative, LowersUnderTightCap)
{
    const auto &s = Shared::get();
    auto chip = s.makeLoadedChip(1);
    IterativeCappingGovernor gov(s.cfg);
    GovernorLoop loop(chip, gov);
    const auto steps = loop.run(40, CapSchedule(55.0));
    // Eventually under the cap...
    EXPECT_LE(steps.back().rec.sensor_power_w, 57.0);
    // ...but only after several intervals (one VF step per interval).
    std::size_t settle = 0;
    for (const auto &st : steps) {
        ++settle;
        if (st.rec.sensor_power_w <= st.cap_w)
            break;
    }
    EXPECT_GT(settle, 3u);
}

TEST(Iterative, RecoversPerformanceUnderLooseCap)
{
    const auto &s = Shared::get();
    auto chip = s.makeLoadedChip(2);
    chip.setAllVf(0); // start slow
    IterativeCappingGovernor gov(s.cfg);
    GovernorLoop loop(chip, gov);
    const auto steps = loop.run(40, CapSchedule(200.0));
    // With a generous cap the governor must climb back up.
    double sum_vf = 0.0;
    for (std::size_t vf : steps.back().cu_vf)
        sum_vf += static_cast<double>(vf);
    EXPECT_GT(sum_vf, 8.0); // well above all-VF1 (sum 0)
}

TEST(PpepCapping, MeetsCapInOneStep)
{
    const auto &s = Shared::get();
    auto chip = s.makeLoadedChip(3);
    model::Ppep ppep(s.cfg, s.models.chip, s.models.pg);
    PpepCappingGovernor gov(s.cfg, ppep);
    GovernorLoop loop(chip, gov);
    // Warm cap, then a hard drop.
    const auto steps =
        loop.run(20, CapSchedule({{0, 120.0}, {8, 55.0}}));
    // Settle within ~1 interval of the drop (paper: single step).
    EXPECT_LE(meanSettleIntervals(steps), 2.0);
    // Everything after the drop (given one interval to act) is capped.
    for (std::size_t i = 10; i < steps.size(); ++i)
        EXPECT_LE(steps[i].rec.sensor_power_w, 55.0 * 1.05)
            << "interval " << i;
}

TEST(PpepCapping, FasterThanIterative)
{
    const auto &s = Shared::get();
    const CapSchedule swing(
        {{0, 120.0}, {10, 50.0}, {30, 120.0}, {40, 50.0}});

    auto chip_i = s.makeLoadedChip(4);
    IterativeCappingGovernor it(s.cfg);
    GovernorLoop loop_i(chip_i, it);
    const auto steps_i = loop_i.run(60, swing);

    auto chip_p = s.makeLoadedChip(4);
    model::Ppep ppep(s.cfg, s.models.chip, s.models.pg);
    PpepCappingGovernor pg(s.cfg, ppep);
    GovernorLoop loop_p(chip_p, pg);
    const auto steps_p = loop_p.run(60, swing);

    EXPECT_LT(meanSettleIntervals(steps_p),
              meanSettleIntervals(steps_i));
    EXPECT_GT(capAdherence(steps_p), capAdherence(steps_i));
}

TEST(PpepCapping, MaximisesPerformanceUnderCap)
{
    // Under a loose cap, the one-step policy should sit at (or near)
    // the top VF, not sandbag.
    const auto &s = Shared::get();
    auto chip = s.makeLoadedChip(5);
    model::Ppep ppep(s.cfg, s.models.chip, s.models.pg);
    PpepCappingGovernor gov(s.cfg, ppep);
    GovernorLoop loop(chip, gov);
    const auto steps = loop.run(10, CapSchedule(300.0));
    for (std::size_t vf : steps.back().cu_vf)
        EXPECT_EQ(vf, s.cfg.vf_table.top());
}

TEST(PpepCapping, InfeasibleCapFallsToLowest)
{
    const auto &s = Shared::get();
    auto chip = s.makeLoadedChip(6);
    model::Ppep ppep(s.cfg, s.models.chip, s.models.pg);
    PpepCappingGovernor gov(s.cfg, ppep);
    GovernorLoop loop(chip, gov);
    const auto steps = loop.run(6, CapSchedule(5.0)); // impossible
    for (std::size_t vf : steps.back().cu_vf)
        EXPECT_EQ(vf, 0u);
}

/**
 * Test oracle: the plain odometer over all n_vf^n_cus per-CU
 * assignments, pricing every one term by term. PpepCappingGovernor's
 * pruned search must return the same assignment and predicted power
 * bit for bit.
 */
struct OracleDecision
{
    std::vector<std::size_t> cu_vf;
    double power_w = 0.0;
};

OracleDecision
odometerDecide(const sim::ChipConfig &cfg, const model::Ppep &ppep,
               const trace::IntervalRecord &rec, double cap_w,
               double guard_band = 0.02)
{
    const std::size_t n_vf = cfg.vf_table.size();
    const std::size_t n_cores = cfg.coreCount();
    const auto &dyn_model = ppep.powerModel().dynamicModel();
    const double v_train = dyn_model.trainingVoltage();

    std::vector<double> ips(n_cores * n_vf, 0.0);
    std::vector<double> core_base(n_cores * n_vf, 0.0);
    std::vector<double> nb_part(n_cores * n_vf, 0.0);
    std::vector<std::size_t> busy_per_cu(cfg.n_cus, 0);
    for (std::size_t c = 0; c < n_cores; ++c) {
        const std::size_t cu = c / cfg.cores_per_cu;
        const auto obs = model::EventPredictor::observe(
            rec.pmc[c], rec.duration_s,
            cfg.vf_table.state(rec.cu_vf[cu]).freq_ghz);
        bool busy = false;
        for (std::size_t vf = 0; vf < n_vf; ++vf) {
            const auto pred = model::EventPredictor::predictAt(
                obs, cfg.vf_table.state(vf).freq_ghz);
            ips[c * n_vf + vf] = pred.rates_per_s[sim::eventIndex(
                sim::Event::RetiredInst)];
            std::array<double, sim::kNumPowerEvents> rates{};
            for (std::size_t i = 0; i < sim::kNumPowerEvents; ++i)
                rates[i] = pred.rates_per_s[i];
            dyn_model.split(rates, v_train, core_base[c * n_vf + vf],
                            nb_part[c * n_vf + vf]);
            busy = busy || pred.ips > 0.0;
        }
        if (busy)
            ++busy_per_cu[cu];
    }

    std::vector<double> vscale_by_vf(n_vf);
    for (std::size_t vf = 0; vf < n_vf; ++vf)
        vscale_by_vf[vf] =
            dyn_model.voltageScale(cfg.vf_table.state(vf).voltage);

    const double budget = cap_w * (1.0 - guard_band);
    const auto &pg = ppep.pgModel();
    OracleDecision best{std::vector<std::size_t>(cfg.n_cus, 0),
                        std::numeric_limits<double>::quiet_NaN()};
    double best_ips = -1.0;
    double all_lowest_power = std::numeric_limits<double>::quiet_NaN();
    bool first_assignment = true;
    std::vector<std::size_t> assign(cfg.n_cus, 0);
    std::vector<std::size_t> priced(cfg.n_cus, 0);
    while (true) {
        // A shared rail runs every CU at the highest busy request.
        std::size_t max_idx = 0;
        if (!cfg.per_cu_voltage)
            for (std::size_t cu = 0; cu < cfg.n_cus; ++cu)
                if (busy_per_cu[cu] > 0)
                    max_idx = std::max(max_idx, assign[cu]);

        double total_dyn = 0.0;
        double total_ips = 0.0;
        for (std::size_t c = 0; c < n_cores; ++c) {
            const std::size_t vf = assign[c / cfg.cores_per_cu];
            const double vscale =
                vscale_by_vf[cfg.per_cu_voltage ? vf : max_idx];
            total_dyn += core_base[c * n_vf + vf] * vscale +
                         nb_part[c * n_vf + vf];
            total_ips += ips[c * n_vf + vf];
        }
        // Idle pricing: on a shared rail every CU leaks at the rail
        // state.
        for (std::size_t cu = 0; cu < cfg.n_cus; ++cu)
            priced[cu] = cfg.per_cu_voltage ? assign[cu]
                                            : std::max(assign[cu], max_idx);
        const double power =
            pg.chipIdleMixed(priced, busy_per_cu, true) + total_dyn;

        if (first_assignment) {
            all_lowest_power = power;
            first_assignment = false;
        }
        if (power <= budget && total_ips > best_ips) {
            best_ips = total_ips;
            best.cu_vf = assign;
            best.power_w = power;
        }

        std::size_t pos = 0;
        while (pos < cfg.n_cus) {
            if (++assign[pos] < n_vf)
                break;
            assign[pos] = 0;
            ++pos;
        }
        if (pos == cfg.n_cus)
            break;
    }
    if (best_ips < 0.0)
        best.power_w = all_lowest_power;
    return best;
}

/** One trained platform for the oracle property test. */
struct OracleStack
{
    sim::ChipConfig cfg;
    model::TrainedModels models;
    /** Busy-core counter vectors sampled from simulated chips. */
    std::vector<sim::EventVector> busy_pmc;

    explicit OracleStack(sim::ChipConfig c) : cfg(std::move(c))
    {
        model::Trainer trainer(cfg, 77);
        std::vector<const wl::Combination *> training;
        for (const auto &combo : wl::allCombinations())
            if (combo.instances.size() == 1 && training.size() < 8)
                training.push_back(&combo);
        models = trainer.trainAll(training);

        // Two chips, every core busy, on different programs and VFs.
        const std::vector<std::vector<std::string>> programs = {
            {"429.mcf", "458.sjeng", "416.gamess", "swaptions"},
            {"EP", "CG", "433.milc", "blackscholes"},
        };
        for (std::size_t k = 0; k < programs.size(); ++k) {
            sim::Chip chip(cfg, 300 + k);
            chip.setPowerGatingEnabled(true);
            for (std::size_t c = 0; c < cfg.coreCount(); ++c)
                chip.setJob(c, wl::Suite::byName(
                                   programs[k][c % programs[k].size()])
                                   .makeLoopingJob());
            chip.setAllVf(k == 0 ? cfg.vf_table.top() : 1);
            trace::Collector col(chip);
            col.collect(1);
            for (const auto &ev : col.collectInterval().pmc)
                busy_pmc.push_back(ev);
        }
    }
};

/** Which cores carry work in a random record. */
enum class Occupancy
{
    AllIdle,
    OneBusyCore,
    TwoBusyCus,
    FullyBusy,
    Random,
};

/**
 * A random record: busy cores draw a sampled counter vector, scaled and
 * possibly corrupted (zeroed, NaN or wrapped counters); idle cores are
 * all zero, or NaN. Twin records give every busy core the same vector,
 * so symmetric assignments tie on predicted IPS.
 */
trace::IntervalRecord
randomRecord(const OracleStack &s, ppep::util::Rng &rng, Occupancy occ)
{
    const sim::ChipConfig &cfg = s.cfg;
    trace::IntervalRecord rec;
    rec.duration_s = cfg.tick_s * cfg.ticks_per_interval;
    rec.cu_vf.resize(cfg.n_cus);
    for (auto &vf : rec.cu_vf)
        vf = rng.uniformInt(cfg.vf_table.size());
    rec.pmc.assign(cfg.coreCount(), sim::EventVector{});

    std::vector<bool> busy(cfg.coreCount(), false);
    switch (occ) {
    case Occupancy::AllIdle:
        break;
    case Occupancy::OneBusyCore:
        busy[rng.uniformInt(cfg.coreCount())] = true;
        break;
    case Occupancy::TwoBusyCus: {
        const std::size_t a = rng.uniformInt(cfg.n_cus);
        const std::size_t b =
            (a + 1 + rng.uniformInt(cfg.n_cus - 1)) % cfg.n_cus;
        for (const std::size_t cu : {a, b})
            for (std::size_t k = 0; k < cfg.cores_per_cu; ++k)
                busy[cu * cfg.cores_per_cu + k] =
                    k == 0 || rng.bernoulli(0.5);
        break;
    }
    case Occupancy::FullyBusy:
        busy.assign(cfg.coreCount(), true);
        break;
    case Occupancy::Random:
        for (std::size_t c = 0; c < cfg.coreCount(); ++c)
            busy[c] = rng.bernoulli(0.5);
        break;
    }

    const bool twin = rng.bernoulli(0.2);
    const sim::EventVector &twin_ev =
        s.busy_pmc[rng.uniformInt(s.busy_pmc.size())];
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (std::size_t c = 0; c < cfg.coreCount(); ++c) {
        auto &ev = rec.pmc[c];
        if (!busy[c]) {
            if (rng.bernoulli(0.1))
                ev[rng.uniformInt(ev.size())] = nan;
            continue;
        }
        ev = twin ? twin_ev
                  : s.busy_pmc[rng.uniformInt(s.busy_pmc.size())];
        if (!twin)
            for (auto &x : ev)
                x *= rng.uniform(0.5, 1.5);
        if (rng.bernoulli(0.1)) // a zeroed counter
            ev[rng.uniformInt(ev.size())] = 0.0;
        if (rng.bernoulli(0.05)) // a NaN counter
            ev[rng.uniformInt(ev.size())] = nan;
        if (rng.bernoulli(0.1)) { // a narrow PERF_CTR wrapped
            auto &x = ev[rng.uniformInt(ev.size())];
            x = std::fmod(x, 67108864.0); // 2^26
        }
    }
    return rec;
}

void
expectOracleAgreement(const OracleStack &s, bool per_cu_voltage)
{
    sim::ChipConfig cfg = s.cfg;
    cfg.per_cu_voltage = per_cu_voltage;
    const model::Ppep ppep(s.cfg, s.models.chip, s.models.pg);
    PpepCappingGovernor gov(cfg, ppep);
    ppep::util::Rng rng(per_cu_voltage ? 11 : 12);

    const Occupancy kinds[] = {Occupancy::AllIdle, Occupancy::OneBusyCore,
                               Occupancy::TwoBusyCus, Occupancy::FullyBusy,
                               Occupancy::Random};
    std::vector<std::size_t> out;
    std::size_t fallbacks = 0;
    std::size_t top_picks = 0;
    for (int trial = 0; trial < 40; ++trial) {
        for (const Occupancy occ : kinds) {
            const auto rec = randomRecord(s, rng, occ);
            // Below the all-lowest power (the fallback), above the
            // all-highest, and anywhere in between.
            for (const double cap : {1.0, 1e6, rng.uniform(20.0, 200.0)}) {
                const OracleDecision want =
                    odometerDecide(cfg, ppep, rec, cap);
                gov.decideInto(rec, cap, out);
                EXPECT_EQ(out, want.cu_vf)
                    << "trial " << trial << " occupancy "
                    << static_cast<int>(occ) << " cap " << cap;
                EXPECT_EQ(std::bit_cast<std::uint64_t>(
                              gov.lastPredictedPower()),
                          std::bit_cast<std::uint64_t>(want.power_w))
                    << "trial " << trial << " occupancy "
                    << static_cast<int>(occ) << " cap " << cap;
                fallbacks += cap == 1.0 && want.power_w > cap;
                for (const std::size_t vf : want.cu_vf)
                    top_picks += cap == 1e6 && vf == cfg.vf_table.top();
            }
        }
    }
    // Both extremes were really exercised: the infeasible cap fell back
    // to all-lowest, and the unlimited cap ran busy CUs at the top.
    EXPECT_GT(fallbacks, 0u);
    EXPECT_GT(top_picks, 0u);
}

const OracleStack &
fourCuStack()
{
    static const OracleStack s(sim::fx8320Config());
    return s;
}

const OracleStack &
sixCuStack()
{
    sim::ChipConfig cfg = sim::fx8320Config();
    cfg.name = "six-CU FX-8320 variant (test)";
    cfg.n_cus = 6;
    static const OracleStack s(cfg);
    return s;
}

TEST(PpepCappingOracle, FourCuSharedRailMatchesOdometer)
{
    expectOracleAgreement(fourCuStack(), false);
}

TEST(PpepCappingOracle, FourCuPerCuPlanesMatchOdometer)
{
    expectOracleAgreement(fourCuStack(), true);
}

TEST(PpepCappingOracle, SixCuSharedRailMatchesOdometer)
{
    expectOracleAgreement(sixCuStack(), false);
}

TEST(PpepCappingOracle, SixCuPerCuPlanesMatchOdometer)
{
    expectOracleAgreement(sixCuStack(), true);
}

} // namespace
