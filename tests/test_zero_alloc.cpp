/**
 * @file
 * Steady-state allocation audit: once warm, a governed interval on the
 * GovernorLoop::drive() path must perform zero heap allocations — the
 * property that keeps fleet-scale governing free of allocator
 * contention and latency spikes.
 *
 * The audit replaces global operator new in this binary with a counting
 * wrapper; counting is switched on only around the intervals under
 * test.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include <ostream>
#include <streambuf>

#include "ppep/governor/energy_governor.hpp"
#include "ppep/governor/governor.hpp"
#include "ppep/governor/ppep_capping.hpp"
#include "ppep/model/ppep.hpp"
#include "ppep/model/trainer.hpp"
#include "ppep/runtime/arbiter.hpp"
#include "ppep/runtime/fleet.hpp"
#include "ppep/runtime/session.hpp"
#include "ppep/runtime/telemetry.hpp"
#include "ppep/runtime/tenant.hpp"
#include "ppep/sim/chip.hpp"
#include "ppep/sim/chip_batch.hpp"
#include "ppep/sim/fault.hpp"
#include "ppep/trace/collector.hpp"
#include "ppep/workloads/suite.hpp"

namespace {
std::atomic<std::size_t> g_news{0};
std::atomic<bool> g_counting{false};

void *
countedAlloc(std::size_t size)
{
    if (g_counting.load(std::memory_order_relaxed))
        g_news.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}
} // namespace

void *
operator new(std::size_t size)
{
    return countedAlloc(size);
}

void *
operator new[](std::size_t size)
{
    return countedAlloc(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace {

using namespace ppep;

std::vector<const workloads::Combination *>
smallTrainingSet(std::size_t n = 8)
{
    std::vector<const workloads::Combination *> out;
    for (const auto &c : workloads::allCombinations())
        if (c.instances.size() == 1 && out.size() < n)
            out.push_back(&c);
    return out;
}

struct Stack
{
    sim::ChipConfig cfg = sim::fx8320Config();
    model::TrainedModels models;
    model::Ppep ppep;

    Stack()
        : models([this] {
              model::Trainer trainer(cfg, 91);
              return trainer.trainAll(smallTrainingSet());
          }()),
          ppep(cfg, models.chip, models.pg)
    {
    }
};

/** Allocations observed during one drive() interval. */
std::size_t
allocationsPerInterval(governor::GovernorLoop &loop,
                       const governor::CapSchedule &schedule)
{
    g_news.store(0, std::memory_order_relaxed);
    g_counting.store(true, std::memory_order_relaxed);
    loop.drive(1, schedule);
    g_counting.store(false, std::memory_order_relaxed);
    return g_news.load(std::memory_order_relaxed);
}

TEST(ZeroAlloc, EnergyGovernorSteadyStateIntervalIsAllocationFree)
{
    const Stack stack;
    sim::Chip chip(stack.cfg, 5);
    workloads::launch(chip, workloads::replicate("433.milc", 4), true);
    governor::EnergyOptimalGovernor gov(stack.cfg, stack.ppep,
                                        governor::EnergyObjective::Edp);
    governor::GovernorLoop loop(chip, gov);
    const auto schedule = governor::CapSchedule::unlimited();

    loop.drive(5, schedule); // warm every scratch buffer
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(allocationsPerInterval(loop, schedule), 0u)
            << "interval " << i;
}

TEST(ZeroAlloc, CappingGovernorSteadyStateIntervalIsAllocationFree)
{
    Stack stack;
    stack.cfg.per_cu_voltage = true;
    sim::Chip chip(stack.cfg, 5);
    workloads::launch(chip, workloads::replicate("433.milc", 4), true);
    governor::PpepCappingGovernor gov(stack.cfg, stack.ppep);
    governor::GovernorLoop loop(chip, gov);
    const governor::CapSchedule schedule(60.0);

    loop.drive(5, schedule);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(allocationsPerInterval(loop, schedule), 0u)
            << "interval " << i;
}

TEST(ZeroAlloc, CappingGovernorPartiallyIdleIntervalIsAllocationFree)
{
    // Two busy CUs of four: the search pins the idle CUs at VF 0 and
    // enumerates the busy ones only, on a shared rail and on per-CU
    // planes alike.
    const Stack stack;
    for (const bool per_cu_voltage : {false, true}) {
        sim::ChipConfig cfg = stack.cfg;
        cfg.per_cu_voltage = per_cu_voltage;
        sim::Chip chip(cfg, 5);
        chip.setPowerGatingEnabled(true);
        workloads::launch(chip, workloads::replicate("433.milc", 2), true);
        governor::PpepCappingGovernor gov(cfg, stack.ppep);
        governor::GovernorLoop loop(chip, gov);
        const governor::CapSchedule schedule(60.0);

        loop.drive(5, schedule);
        for (int i = 0; i < 10; ++i)
            EXPECT_EQ(allocationsPerInterval(loop, schedule), 0u)
                << "interval " << i << " per-CU planes " << per_cu_voltage;
    }
}

/** Discards everything without ever touching the heap. */
class NullStreambuf : public std::streambuf
{
  protected:
    int
    overflow(int c) override
    {
        return c == traits_type::eof() ? 0 : c;
    }

    std::streamsize
    xsputn(const char *, std::streamsize n) override
    {
        return n;
    }
};

/** A warmed telemetry sink must encode an interval allocation-free. */
template <typename Sink>
void
expectEncodeIsAllocationFree()
{
    const Stack stack;
    sim::Chip chip(stack.cfg, 5);
    workloads::launch(chip, workloads::replicate("433.milc", 4), true);
    trace::Collector col(chip);
    col.collect(2);
    const trace::IntervalRecord rec = col.collectInterval();
    const std::vector<std::size_t> cu_vf(stack.cfg.n_cus, 2);

    runtime::IntervalTelemetry t;
    t.index = 0;
    t.time_s = 0.2;
    t.rec = &rec;
    t.cu_vf = &cu_vf;
    t.cap_w = 80.0;
    t.predicted_power_w = 41.25;
    t.decision_latency_s = 3e-6;

    NullStreambuf null;
    std::ostream out(&null);
    Sink sink(out);
    for (int i = 0; i < 3; ++i) // warm the row buffer
        sink.onInterval(t);

    for (int i = 0; i < 10; ++i) {
        ++t.index;
        t.time_s += 0.2;
        g_news.store(0, std::memory_order_relaxed);
        g_counting.store(true, std::memory_order_relaxed);
        sink.onInterval(t);
        g_counting.store(false, std::memory_order_relaxed);
        EXPECT_EQ(g_news.load(std::memory_order_relaxed), 0u)
            << "interval " << i;
    }
}

TEST(ZeroAlloc, CsvSinkEncodeIsAllocationFreeOnceWarm)
{
    expectEncodeIsAllocationFree<runtime::CsvSink>();
}

TEST(ZeroAlloc, JsonlSinkEncodeIsAllocationFreeOnceWarm)
{
    expectEncodeIsAllocationFree<runtime::JsonlSink>();
}

TEST(ZeroAlloc, TenantAttributionIsAllocationFree)
{
    const Stack stack;
    sim::Chip chip(stack.cfg, 5);
    workloads::launch(chip, workloads::replicate("433.milc", 4), true);
    trace::Collector col(chip);
    col.collect(2);
    const trace::IntervalRecord rec = col.collectInterval();

    const runtime::TenantAttributor attr(
        stack.cfg, stack.models.dynamic, stack.models.pg,
        {{"alpha", {0, 1, 2, 3}, {}}, {"beta", {4, 5, 6, 7}, {}}});
    auto out = attr.makeAttribution();
    attr.attributeInto(rec, true, out); // warm (nothing to warm, but)

    for (int i = 0; i < 10; ++i) {
        g_news.store(0, std::memory_order_relaxed);
        g_counting.store(true, std::memory_order_relaxed);
        attr.attributeInto(rec, (i % 2) == 0, out);
        g_counting.store(false, std::memory_order_relaxed);
        EXPECT_EQ(g_news.load(std::memory_order_relaxed), 0u)
            << "interval " << i;
    }
}

TEST(ZeroAlloc, TenantSessionSteadyStateIntervalIsAllocationFree)
{
    // The full fleet path with tenants attached: drive() with per-
    // interval attribution and digest fan-out must stay allocation-free
    // once warm, or a mixed fleet would contend on the allocator.
    runtime::DigestSink digest;
    auto session =
        runtime::Session::builder(sim::fx8320Config())
            .seed(5)
            .pg(true)
            .trainingSeed(91)
            .trainingCombos(smallTrainingSet())
            .tenants({{"alpha", {0, 1, 2, 3}, {{0, "EP", true}}},
                      {"beta", {4, 5, 6, 7}, {{4, "CG", true}}}})
            .sink(digest)
            .build();

    session.drive(5); // warm every scratch buffer

    // Session::drive() pays a fixed setup cost per call (loop and
    // observer construction) that sits outside the warm path. The
    // contract under test is the per-interval work: attribution,
    // encoding, and digest fan-out. Driving 1 interval and then 21
    // must allocate identically — the 20 extra warm intervals touch
    // the heap zero times.
    g_news.store(0, std::memory_order_relaxed);
    g_counting.store(true, std::memory_order_relaxed);
    session.drive(1);
    g_counting.store(false, std::memory_order_relaxed);
    const std::size_t setup = g_news.load(std::memory_order_relaxed);

    g_news.store(0, std::memory_order_relaxed);
    g_counting.store(true, std::memory_order_relaxed);
    session.drive(21);
    g_counting.store(false, std::memory_order_relaxed);
    EXPECT_EQ(g_news.load(std::memory_order_relaxed), setup)
        << "a warm governed interval with tenant attribution "
           "allocated";
}

TEST(ZeroAlloc, RecalibratedSessionSteadyStateIntervalIsAllocationFree)
{
    // The reader side of the RCU swap: after a refit has been adopted,
    // the governed loop runs on the swapped-in generation — ring
    // snapshotting, the adoptIfDue fast path, and the rebuilt (worker-
    // pre-warmed) governor must all stay off the heap. max_generations=1
    // plus an effectively-infinite cooldown make the post-swap steady
    // state quiescent, so the background worker (whose allocations the
    // global counting hook would also see) is parked in its cv-wait for
    // the whole counted window.
    sim::FaultPlan plan;
    plan.power_drift_bias = 5e-4;
    plan.drift_clamp = 0.4;
    runtime::RecalibrationPolicy pol;
    pol.recal_divergence_w = 6.0;
    pol.ring_capacity = 64;
    pol.min_ring_fill = 32;
    pol.adopt_latency_intervals = 4;
    pol.max_generations = 1;
    pol.cooldown_intervals = 1000000;
    runtime::DigestSink digest;
    auto session = runtime::Session::builder(sim::fx8320Config())
                       .seed(5)
                       .trainingSeed(91)
                       .trainingCombos(smallTrainingSet())
                       .onePerCu({"EP", "CG", "458.sjeng", "EP"})
                       .faults(plan)
                       .recalibration(pol)
                       .sink(digest)
                       .build();

    session.drive(300); // drift, trigger, refit, adopt
    const runtime::Recalibrator *rc = session.recalibrator();
    ASSERT_NE(rc, nullptr);
    ASSERT_EQ(rc->generation(), 1u)
        << "the audit needs the swap to have happened";
    ASSERT_FALSE(rc->refitPending());

    session.drive(5); // warm the post-swap scratch

    g_news.store(0, std::memory_order_relaxed);
    g_counting.store(true, std::memory_order_relaxed);
    session.drive(1);
    g_counting.store(false, std::memory_order_relaxed);
    const std::size_t setup = g_news.load(std::memory_order_relaxed);

    g_news.store(0, std::memory_order_relaxed);
    g_counting.store(true, std::memory_order_relaxed);
    session.drive(21);
    g_counting.store(false, std::memory_order_relaxed);
    EXPECT_EQ(g_news.load(std::memory_order_relaxed), setup)
        << "a warm governed interval on a recalibrated session "
           "allocated";
}

TEST(ZeroAlloc, ArbiterGatherDecideIsAllocationFreeOnceConfigured)
{
    // The fleet arbiter's whole hot path — depositing every session's
    // per-VF exploration into the SoA lanes and solving the global
    // allocation (hull build, sort, sweep, leftover split, hysteresis)
    // — runs inside the fleet's barrier completion step every
    // interval. configure() is the only allocating phase by contract.
    runtime::ArbiterSpec spec;
    spec.budget =
        ppep::governor::CapSchedule({{0, 400.0}, {64, 280.0}});
    spec.tiers = {{"rack0", 250.0}, {"rack1", 250.0}};
    constexpr std::size_t kLanes = 16;
    constexpr std::size_t kVf = 8;
    std::vector<runtime::FleetArbiter::SessionSetup> setups(kLanes);
    for (std::size_t s = 0; s < kLanes; ++s) {
        setups[s].n_vf = kVf;
        setups[s].priority = 1.0 + static_cast<double>(s % 3) * 0.5;
        setups[s].slo_floor_w = 4.0;
    }
    const auto arb = runtime::makeArbiter(spec, setups);

    std::vector<model::VfPrediction> rows(kLanes * kVf);
    for (std::size_t s = 0; s < kLanes; ++s)
        for (std::size_t k = 0; k < kVf; ++k) {
            auto &r = rows[s * kVf + k];
            r.chip_power_w = 8.0 + 3.0 * static_cast<double>(k) +
                             0.1 * static_cast<double>(s);
            r.total_ips = 1e9 * static_cast<double>(k + 1) /
                          (1.0 + 0.1 * static_cast<double>(k));
        }
    const auto oneInterval = [&](std::size_t i) {
        for (std::size_t s = 0; s < kLanes; ++s)
            arb->gather(s, rows.data() + s * kVf,
                        s % 5 == 4 ? 0 : kVf, // a blind lane too
                        18.0 + static_cast<double>(s));
        arb->decide(i);
    };
    for (std::size_t i = 0; i < 8; ++i) // warm (nothing to warm, but)
        oneInterval(i);

    for (std::size_t i = 0; i < 80; ++i) {
        g_news.store(0, std::memory_order_relaxed);
        g_counting.store(true, std::memory_order_relaxed);
        oneInterval(8 + i); // crosses the budget drop at 64
        g_counting.store(false, std::memory_order_relaxed);
        EXPECT_EQ(g_news.load(std::memory_order_relaxed), 0u)
            << "interval " << i;
    }
}

/**
 * Warm Chip::stepInto() — NB fixed-point terms, PMC group rows, the
 * activity-factor memo, tabulated power terms — allocates nothing, on
 * every platform shape: power-gated FX-8320 (CUs and the NB gate as
 * jobs come and go), Phenom II, and boost requests the hardware grants
 * and clamps. The counted ticks cross VF changes (boost requests
 * included), NB VF changes and interval-boundary PMC reads.
 */
TEST(ZeroAlloc, ChipStepIntoIsAllocationFreeOnceWarm)
{
    struct Case
    {
        const char *name;
        sim::ChipConfig cfg;
        bool pg;
    };
    const std::vector<Case> cases = {
        {"fx8320+pg", sim::fx8320Config(), true},
        {"phenom2", sim::phenomIIConfig(), false},
        {"fx8320+boost+pg", sim::fx8320ConfigWithBoost(), true},
        {"fx8320+faults", sim::fx8320Config(), true},
    };
    for (const Case &c : cases) {
        sim::Chip chip(c.cfg, 5);
        chip.setPowerGatingEnabled(c.pg);
        if (std::string(c.name) == "fx8320+faults")
            chip.setFaultPlan(
                sim::FaultPlan::parse("msr=0.05,wrap=24,saturate=0.02,"
                                      "mux=0.05,vf_delay=0.2,"
                                      "vf_reject=0.1,power_drift=1e-3"),
                3);
        // Two programs on separate CUs; with PG the idle CUs stay gated.
        workloads::launch(chip, workloads::replicate("470.lbm", 2), true);
        const std::size_t n_states = chip.stateCount();
        sim::TickResult res;
        const auto interval = [&](std::size_t i) {
            chip.setAllVf((n_states - 1 + i) % n_states);
            if (i % 7 == 3)
                chip.setNbVf(i % 2 ? c.cfg.nb.vf_lo : c.cfg.nb.vf_hi);
            for (std::size_t t = 0; t < 10; ++t)
                chip.stepInto(res);
            for (std::size_t k = 0; k < c.cfg.coreCount(); ++k) {
                sim::EventVector ev{};
                (void)chip.tryReadPmc(k, ev);
            }
        };
        for (std::size_t i = 0; i < 10; ++i) // warm every buffer
            interval(i);
        for (std::size_t i = 10; i < 40; ++i) {
            g_news.store(0, std::memory_order_relaxed);
            g_counting.store(true, std::memory_order_relaxed);
            interval(i);
            g_counting.store(false, std::memory_order_relaxed);
            EXPECT_EQ(g_news.load(std::memory_order_relaxed), 0u)
                << c.name << " interval " << i;
        }
    }
}

/**
 * A warm ChipBatch::step() — the demand halves, the interleaved NB
 * solve over every active lane, and the rest of each tick — allocates
 * nothing, across platforms, a fault plan, VF changes and lanes that
 * drop out of and rejoin the lockstep.
 */
TEST(ZeroAlloc, ChipBatchStepIsAllocationFreeOnceWarm)
{
    std::vector<std::unique_ptr<sim::Chip>> chips;
    chips.push_back(std::make_unique<sim::Chip>(sim::fx8320Config(), 5));
    chips.push_back(std::make_unique<sim::Chip>(sim::phenomIIConfig(), 6));
    chips.push_back(
        std::make_unique<sim::Chip>(sim::fx8320NbDvfsConfig(), 7));
    chips[0]->setPowerGatingEnabled(true);
    chips[2]->setFaultPlan(
        sim::FaultPlan::parse("msr=0.05,wrap=24,saturate=0.02,mux=0.05,"
                              "vf_delay=0.2,vf_reject=0.1"),
        3);
    sim::ChipBatch batch;
    for (auto &c : chips) {
        workloads::launch(*c, workloads::replicate("470.lbm", 3), true);
        batch.attach(*c);
    }
    const auto tick = [&](std::size_t t) {
        for (auto &c : chips)
            c->setAllVf(t / 10 % c->stateCount());
        batch.setActive(1, t % 25 < 20);
        batch.step();
    };
    for (std::size_t t = 0; t < 60; ++t) // warm every buffer
        tick(t);
    for (std::size_t t = 60; t < 260; ++t) {
        g_news.store(0, std::memory_order_relaxed);
        g_counting.store(true, std::memory_order_relaxed);
        tick(t);
        g_counting.store(false, std::memory_order_relaxed);
        EXPECT_EQ(g_news.load(std::memory_order_relaxed), 0u)
            << "tick " << t;
    }
}

/**
 * One warm interval of an arbitrated fleet worker — its slice's
 * tick-locked collect, the gather, the arbiter's decide, and every
 * session's decide phase with telemetry fan-out — allocates nothing.
 * One session runs a jittering fault plan, so its lane sits out tail
 * ticks on some intervals.
 */
TEST(ZeroAlloc, ArbitratedWorkerIntervalIsAllocationFreeOnceWarm)
{
    Stack stack;
    constexpr std::size_t kSessions = 4;
    std::vector<runtime::DigestSink> digests(kSessions);
    std::vector<std::optional<runtime::Session>> sessions(kSessions);
    std::vector<runtime::Session::LockstepDriver *> drivers(kSessions);
    std::vector<runtime::FleetArbiter::SessionSetup> setups(kSessions);
    runtime::LockstepSlice slice;
    const std::vector<std::string> programs = {"EP", "CG", "458.sjeng",
                                               "470.lbm"};
    for (std::size_t i = 0; i < kSessions; ++i) {
        auto b = runtime::Session::builder(stack.cfg)
                     .seed(11 + i)
                     .pg(i % 2 == 0)
                     .sharedModels(stack.models, stack.ppep)
                     .governor(runtime::cappingGovernor())
                     .warmup(1)
                     .sink(digests[i])
                     .onePerCu({programs[i], programs[(i + 1) % 4]});
        if (i == 1)
            b.faults(sim::FaultPlan::parse("msr=0.1,jitter=0.3"));
        sessions[i].emplace(b.build());
        drivers[i] = &sessions[i]->driver();
        slice.add(*drivers[i]);
        setups[i].n_vf = stack.cfg.vf_table.size();
    }
    runtime::ArbiterSpec spec;
    spec.budget = ppep::governor::CapSchedule({{0, 400.0}, {20, 200.0}});
    const auto arb = runtime::makeArbiter(spec, setups);

    const auto interval = [&](std::size_t iv) {
        slice.collect();
        for (std::size_t i = 0; i < kSessions; ++i) {
            const auto *ex = drivers[i]->exploration();
            arb->gather(i, ex ? ex->data() : nullptr, ex ? ex->size() : 0,
                        drivers[i]->measuredPowerW());
        }
        arb->decide(iv);
        for (std::size_t i = 0; i < kSessions; ++i) {
            drivers[i]->setCapLimitW(arb->capOf(i));
            drivers[i]->decidePhase();
        }
    };
    for (std::size_t iv = 0; iv < 6; ++iv) // warm every buffer
        interval(iv);
    for (std::size_t iv = 6; iv < 36; ++iv) { // crosses the drop at 20
        g_news.store(0, std::memory_order_relaxed);
        g_counting.store(true, std::memory_order_relaxed);
        interval(iv);
        g_counting.store(false, std::memory_order_relaxed);
        EXPECT_EQ(g_news.load(std::memory_order_relaxed), 0u)
            << "interval " << iv;
    }
    for (auto &d : drivers)
        d->finish();
}

TEST(ZeroAlloc, CountingHookIsLive)
{
    // Sanity: the audit must actually observe allocations, or the
    // zero-counts above would be vacuous.
    g_news.store(0, std::memory_order_relaxed);
    g_counting.store(true, std::memory_order_relaxed);
    auto *p = new std::vector<double>(1024);
    g_counting.store(false, std::memory_order_relaxed);
    delete p;
    EXPECT_GE(g_news.load(std::memory_order_relaxed), 1u);
}

} // namespace
