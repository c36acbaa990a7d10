/**
 * @file
 * Tests for the offline training protocols themselves (Fig. 1 cooling,
 * alpha calibration, dataset collection, trainAll assembly).
 */

#include <gtest/gtest.h>

#include <sstream>

#include "ppep/model/serialization.hpp"
#include "ppep/model/trainer.hpp"

namespace {

using namespace ppep::model;
namespace sim = ppep::sim;
namespace wl = ppep::workloads;

const wl::Combination &
comboNamed(const std::string &name)
{
    for (const auto &c : wl::allCombinations())
        if (c.name == name)
            return c;
    ADD_FAILURE() << "no combo " << name;
    static wl::Combination dummy;
    return dummy;
}

TEST(Trainer, CoolingTraceHasBothPhases)
{
    Trainer trainer(sim::fx8320Config(), 1);
    const auto trace = trainer.collectCoolingTrace(4, 100, 150);
    EXPECT_EQ(trace.cool_start, 100u);
    EXPECT_EQ(trace.power_curve_w.size(), 250u);
    EXPECT_EQ(trace.idle_samples.size(), 150u);
    // Heating raises power well above the cooled idle level.
    EXPECT_GT(trace.power_curve_w[trace.cool_start - 1],
              2.0 * trace.power_curve_w.back());
}

TEST(Trainer, CoolingSamplesCarryTheRightVoltage)
{
    const auto cfg = sim::fx8320Config();
    Trainer trainer(cfg, 1);
    for (std::size_t vf : {0u, 2u, 4u}) {
        const auto trace = trainer.collectCoolingTrace(vf, 30, 40);
        for (const auto &s : trace.idle_samples)
            EXPECT_DOUBLE_EQ(s.voltage,
                             cfg.vf_table.state(vf).voltage);
    }
}

TEST(Trainer, AlphaEstimateNearGroundTruth)
{
    const auto cfg = sim::fx8320Config();
    Trainer trainer(cfg, 2);
    const auto idle = trainer.trainIdle();
    const double alpha = trainer.estimateAlpha(idle);
    EXPECT_NEAR(alpha, cfg.power.alpha_true, 0.25);
}

TEST(Trainer, AlphaEstimateStableAcrossSeeds)
{
    const auto cfg = sim::fx8320Config();
    Trainer a(cfg, 3), b(cfg, 4);
    const double alpha_a = a.estimateAlpha(a.trainIdle());
    const double alpha_b = b.estimateAlpha(b.trainIdle());
    EXPECT_NEAR(alpha_a, alpha_b, 0.1);
}

TEST(Trainer, CollectComboIsDeterministic)
{
    const auto cfg = sim::fx8320Config();
    Trainer trainer(cfg, 5);
    const auto &combo = comboNamed("456");
    const auto a = trainer.collectCombo(combo, 4, 30);
    const auto b = trainer.collectCombo(combo, 4, 30);
    ASSERT_EQ(a.recs.size(), b.recs.size());
    for (std::size_t i = 0; i < a.recs.size(); ++i)
        EXPECT_DOUBLE_EQ(a.recs[i].sensor_power_w,
                         b.recs[i].sensor_power_w);
}

TEST(Trainer, CollectComboHonoursCapAndVf)
{
    const auto cfg = sim::fx8320Config();
    Trainer trainer(cfg, 6);
    const auto t = trainer.collectCombo(comboNamed("470"), 0, 15);
    EXPECT_LE(t.recs.size(), 15u);
    EXPECT_EQ(t.vf_index, 0u);
    for (const auto &rec : t.recs)
        for (std::size_t vf : rec.cu_vf)
            EXPECT_EQ(vf, 0u);
}

TEST(Trainer, CollectComboDropsIdleTail)
{
    const auto cfg = sim::fx8320Config();
    Trainer trainer(cfg, 7);
    const auto t = trainer.collectCombo(comboNamed("456"), 4, 120);
    EXPECT_GT(t.recs.back().busy_cores, 0u);
}

TEST(Trainer, DatasetCoversCrossProduct)
{
    const auto cfg = sim::fx8320Config();
    Trainer trainer(cfg, 8);
    std::vector<const wl::Combination *> combos{&comboNamed("456"),
                                                &comboNamed("EP.x2")};
    const auto dataset = trainer.collectDataset(combos, {1, 4}, 25);
    ASSERT_EQ(dataset.size(), 4u);
    EXPECT_EQ(dataset[0].combo, combos[0]);
    EXPECT_EQ(dataset[0].vf_index, 1u);
    EXPECT_EQ(dataset[3].combo, combos[1]);
    EXPECT_EQ(dataset[3].vf_index, 4u);
}

TEST(Trainer, TrainAllReusesProvidedDataset)
{
    const auto cfg = sim::fx8320Config();
    Trainer trainer(cfg, 9);
    std::vector<const wl::Combination *> combos;
    for (const auto &c : wl::allCombinations())
        if (c.instances.size() == 1 && combos.size() < 8)
            combos.push_back(&c);
    std::vector<std::size_t> vfs{0, 1, 2, 3, 4};
    const auto dataset = trainer.collectDataset(combos, vfs, 40);

    const auto with = trainer.trainAll(combos, &dataset);
    const auto without = trainer.trainAll(combos);
    // Both paths must produce the same regression (same underlying
    // deterministic traces).
    for (std::size_t i = 0; i < sim::kNumPowerEvents; ++i)
        EXPECT_NEAR(with.dynamic.weights()[i],
                    without.dynamic.weights()[i],
                    std::abs(without.dynamic.weights()[i]) * 1e-9 +
                        1e-18)
            << i;
}

TEST(Trainer, TrainAllProducesUsableStack)
{
    const auto cfg = sim::fx8320Config();
    Trainer trainer(cfg, 10);
    std::vector<const wl::Combination *> combos;
    for (const auto &c : wl::allCombinations())
        if (c.instances.size() == 1 && combos.size() < 8)
            combos.push_back(&c);
    const auto models = trainer.trainAll(combos);
    EXPECT_TRUE(models.idle.trained());
    EXPECT_TRUE(models.dynamic.trained());
    EXPECT_TRUE(models.chip.trained());
    EXPECT_TRUE(models.pg.trained());
    EXPECT_TRUE(models.gg.trained());
    EXPECT_GT(models.alpha, 1.5);
    EXPECT_LT(models.alpha, 3.0);
}

TEST(Trainer, PhenomHasNoPgModel)
{
    Trainer trainer(sim::phenomIIConfig(), 11);
    std::vector<const wl::Combination *> combos;
    for (const auto &c : wl::allCombinations())
        if (c.instances.size() == 1 &&
            c.suite != wl::SuiteId::Spec && combos.size() < 8)
            combos.push_back(&c);
    const auto models = trainer.trainAll(combos);
    EXPECT_FALSE(models.pg.trained());
    EXPECT_TRUE(models.chip.trained());
}

TEST(Trainer, TrainAllSkipsCombinationsTheChipCannotFit)
{
    // A training set shared across platforms may hold 8-thread
    // combinations; the 6-core Phenom II trains on the rest, exactly as
    // if they had never been listed.
    const auto cfg = sim::phenomIIConfig();
    ASSERT_EQ(cfg.coreCount(), 6u);
    std::vector<const wl::Combination *> fitting;
    for (const auto &c : wl::allCombinations())
        if (c.instances.size() == 1 &&
            c.suite != wl::SuiteId::Spec && fitting.size() < 4)
            fitting.push_back(&c);
    auto with_oversized = fitting;
    with_oversized.insert(with_oversized.begin() + 1,
                          &comboNamed("blackscholes.x8"));
    ASSERT_GT(with_oversized[1]->instances.size(), cfg.coreCount());

    const auto save = [](const TrainedModels &m) {
        std::ostringstream out;
        saveModels(m, out);
        return out.str();
    };
    EXPECT_EQ(save(Trainer(cfg, 13).trainAll(with_oversized)),
              save(Trainer(cfg, 13).trainAll(fitting)));
}

TEST(TrainerDeath, PgSweepNeedsPgSupport)
{
    Trainer trainer(sim::phenomIIConfig(), 12);
    EXPECT_DEATH(trainer.collectPgSweeps(), "no power gating");
}

} // namespace
