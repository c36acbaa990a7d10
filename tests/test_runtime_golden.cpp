/**
 * @file
 * Golden pins of the governed runtime's exact output.
 *
 * Every drive of a session — Session::run(), Session::drive(), replay,
 * the free-running fleet pool and the budget-arbitrated lockstep —
 * must emit the same telemetry stream bit for bit, whichever loop
 * carries it. Each test below runs one fixed-seed scenario in a single
 * call and compares DigestSink digests (and, for run(), an FNV-1a hash
 * of the returned steps) against literals recorded before the session
 * loops were merged. The literals must never be regenerated to make a
 * change pass: a changed digest means changed output.
 *
 * Skipped under PPEP_NATIVE, like test_sim_golden: ppep_util is not
 * contraction-pinned, so -march=native may fuse its arithmetic.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "ppep/governor/governor.hpp"
#include "ppep/runtime/fleet.hpp"
#include "ppep/runtime/recorder.hpp"
#include "ppep/runtime/session.hpp"
#include "ppep/runtime/telemetry.hpp"
#include "ppep/trace/replay.hpp"
#include "ppep/workloads/suite.hpp"

namespace {

using namespace ppep;
using governor::CapSchedule;
using runtime::Fleet;
using runtime::FleetSessionSpec;
using runtime::FleetSpec;
using runtime::Session;

#ifdef PPEP_NATIVE
#define PPEP_SKIP_IF_NATIVE()                                          \
    GTEST_SKIP() << "PPEP_NATIVE: ppep_util is not contraction-pinned"
#else
#define PPEP_SKIP_IF_NATIVE() (void)0
#endif

std::vector<const workloads::Combination *>
smallTrainingSet()
{
    std::vector<const workloads::Combination *> out;
    for (const auto &c : workloads::allCombinations())
        if (c.instances.size() == 1 && out.size() < 8)
            out.push_back(&c);
    return out;
}

/** FX-8320 models trained once per test process. */
const model::TrainedModels &
fxModels()
{
    static const model::TrainedModels m = [] {
        model::Trainer trainer(sim::fx8320Config(), 91);
        return trainer.trainAll(smallTrainingSet());
    }();
    return m;
}

const std::vector<std::string> kMix = {"433.milc", "458.sjeng", "CG",
                                       "EP"};

/** A stepped cap schedule: unconstrained, then a drop at interval 12. */
CapSchedule
steppedCaps()
{
    return CapSchedule({{0, 1000.0}, {12, 70.0}});
}

Session::Builder
fxSession(std::uint64_t seed)
{
    auto b = Session::builder(sim::fx8320Config());
    b.seed(seed).pg(true).onePerCu(kMix).models(fxModels()).warmup(2);
    return b;
}

/** FNV-1a 64 over the bit patterns of run()'s returned steps. */
std::uint64_t
hashSteps(const std::vector<governor::GovernorStep> &steps)
{
    std::uint64_t h = 14695981039346656037ull;
    const auto mix = [&h](std::uint64_t v) {
        for (int b = 0; b < 8; ++b) {
            h ^= (v >> (8 * b)) & 0xFF;
            h *= 1099511628211ull;
        }
    };
    const auto mixd = [&mix](double v) {
        mix(std::bit_cast<std::uint64_t>(v));
    };
    for (const auto &s : steps) {
        mixd(s.cap_w);
        for (std::size_t v : s.cu_vf)
            mix(v);
        mixd(s.rec.duration_s);
        mixd(s.rec.sensor_power_w);
        mixd(s.rec.diode_temp_k);
        mixd(s.rec.true_power_w);
        mix(s.rec.busy_cores);
        for (const auto &core : s.rec.pmc)
            for (double e : core)
                mixd(e);
    }
    return h;
}

std::string
tracePath(const std::string &tag)
{
    return ::testing::TempDir() + "ppep_golden_" + tag + "_" +
           std::to_string(::getpid()) + ".trc";
}

std::vector<std::uint64_t>
digestsOf(const runtime::FleetResult &res)
{
    std::vector<std::uint64_t> out;
    for (const auto &s : res.sessions) {
        EXPECT_TRUE(s.completed) << s.name << ": " << s.error;
        out.push_back(s.telemetry_digest);
    }
    return out;
}

TEST(RuntimeGolden, PlainFx8320Session)
{
    PPEP_SKIP_IF_NATIVE();
    runtime::DigestSink digest;
    auto session = fxSession(5).schedule(steppedCaps()).sink(digest)
                       .build();
    EXPECT_EQ(session.drive(30), 30u);
    EXPECT_EQ(digest.intervals(), 30u);
    EXPECT_EQ(digest.digest(), 0x814977b4ca5f97cbull);
}

TEST(RuntimeGolden, HardenedSessionWithFaults)
{
    PPEP_SKIP_IF_NATIVE();
    runtime::DigestSink digest;
    auto session = fxSession(6)
                       .schedule(steppedCaps())
                       .governor(runtime::cappingGovernor())
                       .faults(sim::FaultPlan::parse(
                           "jitter=0.3,msr=0.1,mux=0.05"))
                       .sink(digest)
                       .build();
    EXPECT_EQ(session.drive(30), 30u);
    EXPECT_EQ(digest.intervals(), 30u);
    EXPECT_EQ(digest.digest(), 0x4f04ccad919e4da8ull);
}

TEST(RuntimeGolden, ReplayedSession)
{
    PPEP_SKIP_IF_NATIVE();
    const sim::ChipConfig cfg = sim::fx8320Config();
    const std::uint64_t fp = runtime::platformFingerprint(cfg);
    const std::string path = tracePath("replay");
    const sim::FaultPlan faults =
        sim::FaultPlan::parse("msr=0.2,sensor_drop=0.1");

    runtime::DigestSink live_digest;
    runtime::RecorderSink recorder("solo", fp, cfg.coreCount(),
                                   cfg.n_cus, true);
    auto live = fxSession(7)
                    .schedule(steppedCaps())
                    .faults(faults)
                    .sink(live_digest)
                    .sink(recorder)
                    .build();
    EXPECT_EQ(live.drive(24), 24u);
    trace::writeReplayFile(path, {&recorder.stream()});

    trace::ReplayFile file(path);
    trace::ReplaySource src(file, 0, fp);
    runtime::DigestSink digest;
    auto replayed = fxSession(7)
                        .schedule(steppedCaps())
                        .faults(faults)
                        .replay(src)
                        .sink(digest)
                        .build();
    EXPECT_EQ(replayed.drive(24), 24u);
    EXPECT_EQ(digest.digest(), live_digest.digest());
    EXPECT_EQ(digest.digest(), 0x91f106ecb4c111c8ull);
    std::filesystem::remove(path);
}

TEST(RuntimeGolden, SessionRunSteps)
{
    PPEP_SKIP_IF_NATIVE();
    runtime::DigestSink digest;
    auto session = fxSession(8)
                       .schedule(steppedCaps())
                       .governor(runtime::cappingGovernor())
                       .sink(digest)
                       .build();
    const auto steps = session.run(30);
    ASSERT_EQ(steps.size(), 30u);
    EXPECT_EQ(hashSteps(steps), 0xf5b2b0f73d0bf4f1ull);
    EXPECT_EQ(digest.digest(), 0x38306505d014a37aull);
}

FleetSpec
poolSpec()
{
    static const std::vector<std::string> programs = {"EP", "CG",
                                                      "458.sjeng"};
    FleetSpec spec;
    spec.cfg = sim::fx8320Config();
    spec.training_seed = 91;
    spec.training_combos = smallTrainingSet();
    spec.warmup = 1;
    spec.intervals = 20;
    for (std::size_t i = 0; i < 6; ++i) {
        FleetSessionSpec ss;
        ss.seed = 31 + i;
        ss.pg = (i % 2) == 0;
        ss.one_per_cu = {programs[i % 3], programs[(i + 1) % 3]};
        spec.sessions.push_back(std::move(ss));
    }
    return spec;
}

TEST(RuntimeGolden, FreePoolFleet)
{
    PPEP_SKIP_IF_NATIVE();
    FleetSpec spec = poolSpec();
    spec.sessions[1].faults = sim::FaultPlan::parse("msr=0.1,jitter=0.2");
    spec.sessions[4].schedule = steppedCaps();
    spec.sessions[4].governor = runtime::cappingGovernor();
    Fleet fleet(std::move(spec));
    const auto res = fleet.run(2);
    ASSERT_EQ(res.failed, 0u);
    const std::vector<std::uint64_t> want = {
        0xe9f3a62df0959b22ull, 0x1126988f6063bb82ull,
        0x64f1539e583f3efdull, 0x54923b8bf9c739e0ull,
        0xe2883c113347fa64ull, 0x4e8871246dc965d7ull};
    EXPECT_EQ(digestsOf(res), want);
}

TEST(RuntimeGolden, ArbitratedThreePlatformFleetWithBudgetDrop)
{
    PPEP_SKIP_IF_NATIVE();
    FleetSpec spec = poolSpec();
    for (const std::size_t i : {2u, 3u}) {
        spec.sessions[i].cfg = sim::phenomIIConfig();
        spec.sessions[i].pg = false;
    }
    for (const std::size_t i : {4u, 5u})
        spec.sessions[i].cfg = sim::fx8320NbDvfsConfig();
    spec.sessions[3].faults = sim::FaultPlan::parse(
        "msr=0.05,mux=0.05,vf_delay=0.1,jitter=0.2");
    runtime::ArbiterSpec a;
    a.budget = CapSchedule({{0, 400.0}, {8, 180.0}});
    spec.arbiter = std::move(a);
    spec.sessions[1].priority = 2.0;
    Fleet fleet(std::move(spec));
    const auto res = fleet.run(3);
    ASSERT_EQ(res.failed, 0u);
    EXPECT_EQ(res.arbiter.cap_sum_violations, 0u);
    const std::vector<std::uint64_t> want = {
        0x572036cb82806cd1ull, 0xfb8fe7bb4b7926daull,
        0xee672ba59b40a6a5ull, 0x3cd65e4422ca7839ull,
        0x4112a820d7021326ull, 0xb935917e0ba84f85ull};
    EXPECT_EQ(digestsOf(res), want);
}

} // namespace
