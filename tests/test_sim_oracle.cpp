/**
 * @file
 * Bitwise oracle tests for the simulator's per-tick kernels.
 *
 * The NB contention fixed point, the PMC bank + software multiplexer,
 * ground-truth power and the per-CU operating-point rules were made
 * cheaper by evaluating loop invariants and pure terms once. Each
 * section below keeps the straightforward formulation those kernels
 * replaced as a test-only reference and drives both with randomized
 * inputs, comparing every output bit for bit. This binary is built
 * with -ffp-contract=off like ppep_sim, so the references round every
 * operation exactly as the library does.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ppep/sim/chip.hpp"
#include "ppep/sim/chip_config.hpp"
#include "ppep/sim/hw_power_model.hpp"
#include "ppep/sim/northbridge.hpp"
#include "ppep/sim/pmc.hpp"
#include "ppep/util/rng.hpp"
#include "ppep/workloads/suite.hpp"

namespace {

using namespace ppep;
using sim::Event;
using sim::EventVector;

std::uint64_t
bits(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

#define EXPECT_BITS_EQ(a, b)                                           \
    EXPECT_EQ(bits(a), bits(b)) << (a) << " vs " << (b)

// ---------------------------------------------------------------------------
// NB contention fixed point
// ---------------------------------------------------------------------------

/**
 * The fixed point with every term evaluated in place each round, as
 * NorthBridge::resolveInto() did before its invariants were hoisted.
 * Returns the number of rounds run.
 */
int
referenceResolve(const sim::ChipConfig &cfg, const sim::VfState &nb_vf,
                 const std::vector<sim::CoreDemand> &demands,
                 sim::NbResolution &res)
{
    const auto l3_ns = [&] {
        return cfg.nb.l3_latency_cycles / nb_vf.freq_ghz;
    };
    const auto dram_ns = [&] {
        return cfg.nb.dram_fixed_ns +
               cfg.nb.mc_latency_cycles / nb_vf.freq_ghz;
    };
    res.mem_lat_ns.assign(demands.size(), 0.0);
    res.utilization = 0.0;
    res.queue_factor = 1.0;
    if (demands.empty())
        return 0;
    const double bw_max = cfg.nb.dram_bw_gbs * 1e9;
    double queue_factor = 1.0;
    double utilization = 0.0;
    int iter = 0;
    while (iter < 100) {
        ++iter;
        const double mlp_scale =
            1.0 + cfg.nb.mlp_collapse * utilization * utilization;
        double bytes_per_s = 0.0;
        for (std::size_t i = 0; i < demands.size(); ++i) {
            const auto &d = demands[i];
            const double miss =
                d.rates.l3_per_inst > 0.0
                    ? d.rates.dram_per_inst / d.rates.l3_per_inst
                    : 0.0;
            const double lat =
                (l3_ns() * (1.0 - miss) + dram_ns() * queue_factor * miss) *
                mlp_scale;
            res.mem_lat_ns[i] = lat;
            const double mcpi = d.rates.leading_per_inst * lat * d.f_ghz;
            const double cpi = d.rates.ccpi + mcpi;
            const double ips = d.f_ghz * 1e9 / cpi;
            bytes_per_s += ips * d.rates.dram_per_inst * cfg.nb.line_bytes;
        }
        const double rho =
            std::min(bytes_per_s / bw_max, cfg.nb.max_utilization);
        const double target_qf = 1.0 / (1.0 - rho);
        const double next_qf = 0.5 * queue_factor + 0.5 * target_qf;
        const bool converged = std::fabs(next_qf - queue_factor) < 1e-12;
        queue_factor = next_qf;
        utilization = rho;
        if (converged)
            break;
    }
    res.utilization = utilization;
    res.queue_factor = queue_factor;
    return iter;
}

sim::CoreDemand
randomDemand(util::Rng &rng, double traffic_scale)
{
    sim::CoreDemand d;
    d.f_ghz = rng.uniform(0.8, 4.0);
    d.rates.ccpi = rng.uniform(0.3, 2.0);
    d.rates.leading_per_inst = rng.uniform(0.0, 0.01);
    // Every fifth demand has no L3 traffic at all (the miss-ratio guard).
    d.rates.l3_per_inst =
        rng.bernoulli(0.2) ? 0.0 : rng.uniform(0.0, 0.05) * traffic_scale;
    d.rates.dram_per_inst =
        d.rates.l3_per_inst * rng.uniform(0.0, 1.0);
    return d;
}

void
expectResolutionEqual(const sim::NbResolution &got,
                      const sim::NbResolution &want)
{
    ASSERT_EQ(got.mem_lat_ns.size(), want.mem_lat_ns.size());
    for (std::size_t i = 0; i < got.mem_lat_ns.size(); ++i)
        EXPECT_BITS_EQ(got.mem_lat_ns[i], want.mem_lat_ns[i]);
    EXPECT_BITS_EQ(got.utilization, want.utilization);
    EXPECT_BITS_EQ(got.queue_factor, want.queue_factor);
}

TEST(SimOracle, NbResolveMatchesInPlaceFixedPointOnRandomDemandSets)
{
    const sim::ChipConfig cfg = sim::fx8320NbDvfsConfig();
    sim::NorthBridge nb(cfg);
    util::Rng rng(2024);
    sim::NbResolution got; // reused across trials, like the chip's scratch
    std::size_t clamped = 0;
    std::size_t unloaded = 0;
    for (int trial = 0; trial < 3000; ++trial) {
        sim::VfState vf = trial % 3 == 0 ? cfg.nb.vf_lo : cfg.nb.vf_hi;
        if (trial % 3 == 2)
            vf = {rng.uniform(0.9, 1.3), rng.uniform(1.0, 2.6)};
        nb.setVf(vf);
        // Every fourth trial is memory-heavy enough to hit the
        // max_utilization clamp.
        const double scale = trial % 4 == 0 ? 40.0 : 1.0;
        std::vector<sim::CoreDemand> demands(
            static_cast<std::size_t>(trial % 9));
        for (auto &d : demands)
            d = randomDemand(rng, scale);
        sim::NbResolution want;
        referenceResolve(cfg, vf, demands, want);
        nb.resolveInto(demands, got);
        expectResolutionEqual(got, want);
        expectResolutionEqual(nb.resolve(demands), want);
        clamped += want.utilization == cfg.nb.max_utilization;
        unloaded += want.utilization == 0.0;
    }
    EXPECT_GT(clamped, 100u) << "the clamp branch was never exercised";
    EXPECT_GT(unloaded, 100u);
}

TEST(SimOracle, NbResolveMatchesAtTheIterationCap)
{
    // A violent MLP collapse makes the undamped utilisation oscillate
    // between two regimes, so the fixed point never meets its
    // tolerance and stops at the 100-round cap.
    sim::ChipConfig cfg = sim::fx8320Config();
    cfg.nb.mlp_collapse = 400.0;
    sim::NorthBridge nb(cfg);
    util::Rng rng(7);
    std::size_t capped = 0;
    sim::NbResolution got;
    for (int trial = 0; trial < 200; ++trial) {
        std::vector<sim::CoreDemand> demands(
            1 + static_cast<std::size_t>(trial % 8));
        for (auto &d : demands) {
            d = randomDemand(rng, 40.0);
            d.rates.l3_per_inst = rng.uniform(0.5, 2.0);
            d.rates.dram_per_inst =
                d.rates.l3_per_inst * rng.uniform(0.5, 1.0);
            d.rates.leading_per_inst = rng.uniform(0.001, 0.01);
        }
        sim::NbResolution want;
        capped += referenceResolve(cfg, nb.vf(), demands, want) == 100;
        nb.resolveInto(demands, got);
        expectResolutionEqual(got, want);
    }
    EXPECT_GT(capped, 0u) << "no trial reached the iteration cap";
}

// ---------------------------------------------------------------------------
// Interleaved NB fixed points (NorthBridge::resolveBatchInto)
// ---------------------------------------------------------------------------

/** Demands violent enough (on a config with cfg.nb.mlp_collapse = 400)
 *  to oscillate until the 100-round cap; see the test above. */
std::vector<sim::CoreDemand>
oscillatingDemands(util::Rng &rng)
{
    std::vector<sim::CoreDemand> demands(
        1 + static_cast<std::size_t>(rng.uniform(0.0, 7.99)));
    for (auto &d : demands) {
        d = randomDemand(rng, 40.0);
        d.rates.l3_per_inst = rng.uniform(0.5, 2.0);
        d.rates.dram_per_inst = d.rates.l3_per_inst * rng.uniform(0.5, 1.0);
        d.rates.leading_per_inst = rng.uniform(0.001, 0.01);
    }
    return demands;
}

TEST(NbBatch, MatchesPerItemResolveIntoBitForBit)
{
    // Every platform's NB, each item at its own NB VF state, with 0-8
    // demands; the sizes cross the batch's internal chunking.
    sim::ChipConfig collapse = sim::fx8320Config();
    collapse.nb.mlp_collapse = 400.0;
    const std::vector<sim::ChipConfig> cfgs = {
        sim::fx8320Config(), sim::phenomIIConfig(),
        sim::fx8320NbDvfsConfig(), collapse};
    util::Rng rng(4242);

    // One demand set the reference runs into the round cap on the
    // collapse config; every batch below carries it as its last item.
    std::vector<sim::CoreDemand> capped_demands;
    for (int tries = 0; tries < 1000 && capped_demands.empty(); ++tries) {
        auto d = oscillatingDemands(rng);
        sim::NbResolution scratch;
        if (referenceResolve(collapse, collapse.nb.vf_hi, d, scratch) ==
            100)
            capped_demands = std::move(d);
    }
    ASSERT_FALSE(capped_demands.empty()) << "no demand set hit the cap";

    // Results reused across batches, like a ChipBatch's chips' scratch.
    std::vector<sim::NbResolution> got(64);
    std::size_t batches = 0;
    for (const std::size_t n_items :
         {1u, 2u, 3u, 5u, 8u, 13u, 31u, 32u, 33u, 47u, 64u}) {
        for (int rep = 0; rep < 3; ++rep, ++batches) {
            SCOPED_TRACE(std::to_string(n_items) + " items, rep " +
                         std::to_string(rep));
            std::vector<std::unique_ptr<sim::NorthBridge>> nbs;
            std::vector<std::vector<sim::CoreDemand>> demands(n_items);
            std::vector<sim::NbBatchItem> items(n_items);
            std::vector<int> rounds(n_items, 0);
            for (std::size_t k = 0; k < n_items; ++k) {
                const bool cap_item = k + 1 == n_items;
                const sim::ChipConfig &cfg =
                    cap_item ? cfgs[3] : cfgs[(k + batches) % 3];
                nbs.push_back(std::make_unique<sim::NorthBridge>(cfg));
                sim::VfState vf = cfg.nb.vf_hi;
                if (!cap_item && k % 3 == 1)
                    vf = cfg.nb.vf_lo;
                else if (!cap_item && k % 3 == 2)
                    vf = {rng.uniform(0.9, 1.3), rng.uniform(1.0, 2.6)};
                nbs.back()->setVf(vf);
                if (cap_item) {
                    demands[k] = capped_demands;
                } else {
                    demands[k].resize((k + batches) % 9);
                    const double scale = k % 4 == 0 ? 40.0 : 1.0;
                    for (auto &d : demands[k])
                        d = randomDemand(rng, scale);
                }
                items[k] = {nbs.back().get(), &demands[k], &got[k]};
                sim::NbResolution scratch;
                rounds[k] = referenceResolve(cfg, vf, demands[k], scratch);
            }

            sim::NorthBridge::resolveBatchInto(items.data(), n_items);

            for (std::size_t k = 0; k < n_items; ++k) {
                SCOPED_TRACE("item " + std::to_string(k));
                sim::NbResolution want;
                nbs[k]->resolveInto(demands[k], want);
                expectResolutionEqual(got[k], want);
            }
            // Non-vacuous: the items really stop in different rounds
            // (empty items run none), and one of them at the cap.
            EXPECT_EQ(rounds.back(), 100);
            if (n_items >= 8) {
                std::vector<int> distinct = rounds;
                std::sort(distinct.begin(), distinct.end());
                distinct.erase(
                    std::unique(distinct.begin(), distinct.end()),
                    distinct.end());
                EXPECT_GE(distinct.size(), 4u);
            }
        }
    }
}

TEST(NbBatch, EmptyBatchAndEmptyItemsAreIdle)
{
    sim::NorthBridge::resolveBatchInto(nullptr, 0);

    const sim::ChipConfig cfg = sim::phenomIIConfig();
    sim::NorthBridge nb(cfg);
    const std::vector<sim::CoreDemand> none;
    sim::NbResolution res;
    res.mem_lat_ns.assign(3, 7.0); // stale state from a busier tick
    res.utilization = 0.5;
    res.queue_factor = 2.0;
    const sim::NbBatchItem item{&nb, &none, &res};
    sim::NorthBridge::resolveBatchInto(&item, 1);
    EXPECT_TRUE(res.mem_lat_ns.empty());
    EXPECT_BITS_EQ(res.utilization, 0.0);
    EXPECT_BITS_EQ(res.queue_factor, 1.0);
}

// ---------------------------------------------------------------------------
// PMC bank + software multiplexer
// ---------------------------------------------------------------------------

/** The counter bank with std::optional selects and per-slot accessors. */
class RefPmcBank
{
  public:
    explicit RefPmcBank(std::size_t n) : slots_(n) {}
    std::size_t counterCount() const { return slots_.size(); }
    void setWrapBits(unsigned bits)
    {
        wrap_modulus_ = bits ? static_cast<double>(1ULL << bits) : 0.0;
    }
    double maxCount() const { return wrap_modulus_ - 1.0; }
    std::size_t wrapEvents() const { return wrap_events_; }
    void program(std::size_t s, std::optional<Event> e)
    {
        slots_[s].event = e;
    }
    std::optional<Event> programmed(std::size_t s) const
    {
        return slots_[s].event;
    }
    double read(std::size_t s) const { return slots_[s].count; }
    void write(std::size_t s, double v) { slots_[s].count = v; }
    void observe(const EventVector &true_counts)
    {
        for (auto &slot : slots_) {
            if (!slot.event)
                continue;
            slot.count += true_counts[sim::eventIndex(*slot.event)];
            if (wrap_modulus_ > 0.0) {
                while (slot.count >= wrap_modulus_) {
                    slot.count -= wrap_modulus_;
                    ++wrap_events_;
                }
            }
        }
    }

  private:
    struct Slot
    {
        std::optional<Event> event;
        double count = 0.0;
    };
    std::vector<Slot> slots_;
    double wrap_modulus_ = 0.0;
    std::size_t wrap_events_ = 0;
};

/** The multiplexer that reprograms and harvests slot by slot. */
class RefPmcMux
{
  public:
    RefPmcMux(RefPmcBank &bank, std::vector<Event> events, std::size_t stagger)
        : bank_(bank), events_(std::move(events)),
          n_groups_((events_.size() + bank.counterCount() - 1) /
                    bank.counterCount()),
          current_group_(stagger % n_groups_), group_ticks_(n_groups_, 0)
    {
        programCurrentGroup();
    }
    void programCurrentGroup()
    {
        const std::size_t width = bank_.counterCount();
        const std::size_t lo = current_group_ * width;
        for (std::size_t s = 0; s < width; ++s) {
            const std::size_t idx = lo + s;
            bank_.program(s, idx < events_.size()
                                 ? std::optional<Event>(events_[idx])
                                 : std::nullopt);
            bank_.write(s, 0.0);
        }
    }
    void afterTick()
    {
        const std::size_t width = bank_.counterCount();
        const std::size_t lo = current_group_ * width;
        for (std::size_t s = 0; s < width; ++s) {
            const std::size_t idx = lo + s;
            if (idx < events_.size())
                accum_[sim::eventIndex(events_[idx])] += bank_.read(s);
        }
        ++group_ticks_[current_group_];
        ++total_ticks_;
        current_group_ = (current_group_ + 1) % n_groups_;
        programCurrentGroup();
    }
    EventVector readAndReset()
    {
        EventVector out{};
        for (std::size_t i = 0; i < events_.size(); ++i) {
            const std::size_t g = i / bank_.counterCount();
            if (group_ticks_[g] > 0) {
                const std::size_t e = sim::eventIndex(events_[i]);
                out[e] = accum_[e] * static_cast<double>(total_ticks_) /
                         static_cast<double>(group_ticks_[g]);
            }
        }
        accum_ = EventVector{};
        group_ticks_.assign(n_groups_, 0);
        total_ticks_ = 0;
        return out;
    }
    std::size_t ticksSinceReset() const { return total_ticks_; }

  private:
    RefPmcBank &bank_;
    std::vector<Event> events_;
    std::size_t n_groups_;
    std::size_t current_group_;
    std::size_t total_ticks_ = 0;
    EventVector accum_{};
    std::vector<std::size_t> group_ticks_;
};

/** A random non-empty, duplicate-free event list in random order. */
std::vector<Event>
randomEventList(util::Rng &rng)
{
    std::vector<Event> all(sim::allEvents().begin(), sim::allEvents().end());
    for (std::size_t i = all.size() - 1; i > 0; --i)
        std::swap(all[i], all[rng.uniformInt(i + 1)]);
    all.resize(1 + rng.uniformInt(all.size()));
    return all;
}

TEST(SimOracle, PmcBankAndMultiplexerMatchSlotBySlotReference)
{
    util::Rng rng(31337);
    std::size_t wraps = 0;
    std::size_t partial_reads = 0;
    for (int trial = 0; trial < 400; ++trial) {
        const std::size_t width = 1 + rng.uniformInt(7);
        const std::vector<Event> events =
            trial % 3 == 0 ? std::vector<Event>(sim::allEvents().begin(),
                                                sim::allEvents().end())
                           : randomEventList(rng);
        const std::size_t stagger = rng.uniformInt(5);
        // 0 = unbounded counters; otherwise 8..48-bit wraparound.
        const unsigned wrap_bits =
            trial % 5 == 0 ? 0u
                           : static_cast<unsigned>(8 + rng.uniformInt(41));
        const double full_scale =
            wrap_bits ? static_cast<double>(1ULL << wrap_bits) : 1e12;

        sim::PmcBank bank(width);
        RefPmcBank ref_bank(width);
        bank.setWrapBits(wrap_bits);
        ref_bank.setWrapBits(wrap_bits);
        sim::PmcMultiplexer mux(bank, events, stagger);
        RefPmcMux ref_mux(ref_bank, events, stagger);
        ASSERT_EQ(mux.groupCount(), (events.size() + width - 1) / width);

        for (int tick = 0; tick < 300; ++tick) {
            EventVector counts{};
            for (double &c : counts)
                c = std::floor(rng.uniform(0.0, 1.0) * full_scale * 0.7);
            bank.observe(counts);
            ref_bank.observe(counts);
            // A slot saturating between the observe and the harvest.
            if (wrap_bits && rng.bernoulli(0.05)) {
                const std::size_t s = rng.uniformInt(width);
                bank.write(s, bank.maxCount());
                ref_bank.write(s, ref_bank.maxCount());
            }
            // A dropped harvest: counts bleed into the next one.
            if (!rng.bernoulli(0.1)) {
                mux.afterTick();
                ref_mux.afterTick();
            }
            for (std::size_t s = 0; s < width; ++s) {
                ASSERT_EQ(bank.programmed(s), ref_bank.programmed(s));
                EXPECT_BITS_EQ(bank.read(s), ref_bank.read(s));
            }
            EXPECT_EQ(mux.ticksSinceReset(), ref_mux.ticksSinceReset());
            // Reads at random points, often before a full rotation.
            if (rng.bernoulli(0.15)) {
                partial_reads += mux.ticksSinceReset() < mux.groupCount();
                const EventVector got = mux.readAndReset();
                const EventVector want = ref_mux.readAndReset();
                for (std::size_t e = 0; e < sim::kNumEvents; ++e)
                    EXPECT_BITS_EQ(got[e], want[e]);
            }
        }
        EXPECT_EQ(bank.wrapEvents(), ref_bank.wrapEvents());
        wraps += bank.wrapEvents();
        if (testing::Test::HasFailure())
            FAIL() << "trial " << trial << ": width " << width << ", "
                   << events.size() << " events, wrap " << wrap_bits;
    }
    EXPECT_GT(wraps, 0u);
    EXPECT_GT(partial_reads, 0u);
}

// ---------------------------------------------------------------------------
// Ground-truth power
// ---------------------------------------------------------------------------

/** HwPowerModel::computeInto() with every exp/pow evaluated in place. */
void
referencePower(const sim::ChipConfig &cfg,
               const std::vector<sim::CorePowerInput> &cores,
               const std::vector<bool> &cu_gated, bool nb_gated,
               const std::vector<double> &cu_voltage,
               const std::vector<double> &cu_freq,
               const sim::VfState &nb_vf, double temp_k, double dt_s,
               sim::PowerBreakdown &out)
{
    const auto &p = cfg.power;
    const double vref = cfg.vf_table.state(cfg.vf_table.top()).voltage;
    const double nb_vref = cfg.nb.vf_hi.voltage;
    out.base = p.base_power_w;
    out.cu_idle.assign(cfg.n_cus, 0.0);
    bool any_cu_alive = false;
    for (std::size_t cu = 0; cu < cfg.n_cus; ++cu) {
        const double v = cu_voltage[cu];
        const double leak =
            p.cu_leak_ref_w * std::exp(p.leak_volt_k * (v - vref)) *
            std::exp(p.leak_temp_k * (temp_k - p.leak_temp_ref_k));
        const double clock = p.cu_clock_coeff * cu_freq[cu] * v * v;
        const double full = leak + clock;
        out.cu_idle[cu] = cu_gated[cu] ? full * p.pg_residual : full;
        any_cu_alive = any_cu_alive || !cu_gated[cu];
    }
    out.housekeeping = any_cu_alive ? p.housekeeping_w : 0.0;
    const double nb_leak =
        p.nb_leak_ref_w *
        std::exp(p.leak_volt_k * (nb_vf.voltage - nb_vref)) *
        std::exp(p.leak_temp_k * (temp_k - p.leak_temp_ref_k));
    const double nb_full = nb_leak + p.nb_clock_coeff * nb_vf.freq_ghz *
                                         nb_vf.voltage * nb_vf.voltage;
    out.nb_static = nb_gated ? nb_full * p.pg_residual : nb_full;
    out.core_dynamic.assign(cores.size(), 0.0);
    double l3_rate = 0.0;
    double dram_rate = 0.0;
    for (std::size_t c = 0; c < cores.size(); ++c) {
        const auto &act = *cores[c].activity;
        if (!act.busy)
            continue;
        const double active_cycles = std::max(
            0.0,
            act.cycles - act.events[sim::eventIndex(Event::DispatchStall)]);
        double energy_nj = active_cycles * p.busy_cycle_energy_nj;
        for (std::size_t i = 0; i < sim::kNumPowerEvents; ++i)
            energy_nj += act.events[i] * p.event_energy_nj[i];
        out.core_dynamic[c] = energy_nj * 1e-9 / dt_s *
                              std::pow(cores[c].voltage / vref, p.alpha_true) *
                              cores[c].activity_factor;
        l3_rate += act.l3_accesses / dt_s;
        dram_rate += act.dram_accesses / dt_s;
    }
    const double nb_vscale =
        (nb_vf.voltage / nb_vref) * (nb_vf.voltage / nb_vref);
    out.nb_dynamic = (l3_rate * p.l3_access_energy_nj +
                      dram_rate * p.dram_access_energy_nj) *
                     1e-9 * nb_vscale;
    out.total = out.base + out.housekeeping + out.nb_static + out.nb_dynamic +
                out.cuIdleTotal() + out.coreDynamicTotal();
}

void
expectPowerEqual(const sim::PowerBreakdown &got,
                 const sim::PowerBreakdown &want)
{
    EXPECT_BITS_EQ(got.total, want.total);
    EXPECT_BITS_EQ(got.base, want.base);
    EXPECT_BITS_EQ(got.housekeeping, want.housekeeping);
    EXPECT_BITS_EQ(got.nb_static, want.nb_static);
    EXPECT_BITS_EQ(got.nb_dynamic, want.nb_dynamic);
    ASSERT_EQ(got.cu_idle.size(), want.cu_idle.size());
    for (std::size_t i = 0; i < got.cu_idle.size(); ++i)
        EXPECT_BITS_EQ(got.cu_idle[i], want.cu_idle[i]);
    ASSERT_EQ(got.core_dynamic.size(), want.core_dynamic.size());
    for (std::size_t i = 0; i < got.core_dynamic.size(); ++i)
        EXPECT_BITS_EQ(got.core_dynamic[i], want.core_dynamic[i]);
}

TEST(SimOracle, TabulatedPowerTermsMatchInPlaceEvaluation)
{
    const sim::ChipConfig cfg = [] {
        sim::ChipConfig c = sim::fx8320ConfigWithBoost();
        c.nb = sim::fx8320NbDvfsConfig().nb;
        return c;
    }();
    const sim::HwPowerModel kept(cfg); // one model for the whole run
    util::Rng rng(99);
    const std::size_t n_cores = cfg.coreCount();
    std::vector<double> table_v;
    for (std::size_t i = 0; i < cfg.vf_table.size(); ++i)
        table_v.push_back(cfg.vf_table.state(i).voltage);
    for (const auto &b : cfg.boost_states)
        table_v.push_back(b.voltage);

    sim::PowerBreakdown got_kept;
    sim::PowerBreakdown got_fresh;
    for (int tick = 0; tick < 2000; ++tick) {
        // Alternate tabulated voltages with off-table ones, the two NB
        // points with an arbitrary one, and the temperature every tick.
        const auto voltage = [&] {
            return rng.bernoulli(0.8) ? table_v[rng.uniformInt(table_v.size())]
                                      : rng.uniform(0.7, 1.5);
        };
        sim::VfState nb_vf = tick % 3 == 0 ? cfg.nb.vf_hi : cfg.nb.vf_lo;
        if (tick % 3 == 2)
            nb_vf = {rng.uniform(0.85, 1.25), rng.uniform(1.0, 2.4)};
        const double temp_k = tick % 2 ? rng.uniform(300.0, 360.0) : 318.0;
        const bool shared = tick % 4 != 0;
        std::vector<double> cu_v(cfg.n_cus);
        std::vector<double> cu_f(cfg.n_cus);
        std::vector<bool> gated(cfg.n_cus);
        const double rail = voltage();
        for (std::size_t cu = 0; cu < cfg.n_cus; ++cu) {
            cu_v[cu] = shared ? rail : voltage();
            cu_f[cu] = rng.uniform(1.4, 4.0);
            gated[cu] = rng.bernoulli(0.3);
        }
        const bool nb_gated = rng.bernoulli(0.1);
        std::vector<sim::CoreActivity> acts(n_cores);
        std::vector<sim::CorePowerInput> pins(n_cores);
        for (std::size_t c = 0; c < n_cores; ++c) {
            sim::CoreActivity &a = acts[c];
            a.busy = rng.bernoulli(0.7);
            if (a.busy) {
                a.instructions = rng.uniform(1e6, 8e7);
                a.cycles = a.instructions * rng.uniform(0.5, 3.0);
                for (double &e : a.events)
                    e = a.instructions * rng.uniform(0.0, 1.5);
                a.l3_accesses = rng.uniform(0.0, 1e6);
                a.dram_accesses = rng.uniform(0.0, 5e5);
            }
            pins[c].activity = &acts[c];
            pins[c].voltage = cu_v[c / cfg.cores_per_cu];
            pins[c].freq_ghz = cu_f[c / cfg.cores_per_cu];
            pins[c].activity_factor = rng.uniform(0.5, 1.5);
        }

        sim::PowerBreakdown want;
        referencePower(cfg, pins, gated, nb_gated, cu_v, cu_f, nb_vf, temp_k,
                       cfg.tick_s, want);
        kept.computeInto(pins, gated, nb_gated, cu_v, cu_f, nb_vf, temp_k,
                         cfg.tick_s, got_kept);
        const sim::HwPowerModel fresh(cfg);
        fresh.computeInto(pins, gated, nb_gated, cu_v, cu_f, nb_vf, temp_k,
                          cfg.tick_s, got_fresh);
        expectPowerEqual(got_kept, want);
        expectPowerEqual(got_fresh, want);

        if (testing::Test::HasFailure())
            FAIL() << "tick " << tick;
    }
}

TEST(SimOracle, PowerQueriesMatchInPlaceEvaluation)
{
    const sim::ChipConfig cfg = sim::fx8320NbDvfsConfig();
    const sim::HwPowerModel model(cfg);
    const auto &p = cfg.power;
    const double vref = cfg.vf_table.state(cfg.vf_table.top()).voltage;
    util::Rng rng(5);
    for (int i = 0; i < 500; ++i) {
        const std::size_t state = rng.uniformInt(cfg.vf_table.size());
        const double v = i % 2 ? cfg.vf_table.state(state).voltage
                               : rng.uniform(0.7, 1.5);
        const double f = rng.uniform(1.0, 4.0);
        const double t = rng.uniform(290.0, 370.0);
        const double temp = std::exp(p.leak_temp_k * (t - p.leak_temp_ref_k));
        const double cu_want =
            p.cu_leak_ref_w * std::exp(p.leak_volt_k * (v - vref)) * temp +
            p.cu_clock_coeff * f * v * v;
        EXPECT_BITS_EQ(model.cuIdlePower(v, f, t), cu_want);
        const sim::VfState nb =
            i % 3 == 0 ? cfg.nb.vf_lo : sim::VfState{v, f};
        const double nb_volt = nb.voltage - cfg.nb.vf_hi.voltage;
        const double nb_want =
            p.nb_leak_ref_w * std::exp(p.leak_volt_k * nb_volt) * temp +
            p.nb_clock_coeff * nb.freq_ghz * nb.voltage * nb.voltage;
        EXPECT_BITS_EQ(model.nbStaticPower(nb, t), nb_want);
        EXPECT_BITS_EQ(model.dynScale(v), std::pow(v / vref, p.alpha_true));
    }
}

// ---------------------------------------------------------------------------
// Per-CU operating point (boost grant + rail sharing)
// ---------------------------------------------------------------------------

bool
referenceCuIdle(const sim::Chip &chip, std::size_t cu)
{
    const std::size_t per = chip.config().cores_per_cu;
    for (std::size_t k = 0; k < per; ++k) {
        const sim::Job *j = chip.job(cu * per + k);
        if (j && !j->finished())
            return false;
    }
    return true;
}

/** The granted state, evaluated CU by CU as grantedVf() used to. */
std::size_t
referenceGranted(const sim::Chip &chip, std::size_t cu)
{
    const sim::ChipConfig &cfg = chip.config();
    const std::size_t requested = chip.cuVf(cu);
    if (requested < cfg.vf_table.size())
        return requested;
    std::size_t busy = 0;
    for (std::size_t i = 0; i < cfg.n_cus; ++i)
        busy += !referenceCuIdle(chip, i);
    const bool allowed = busy <= cfg.boost_max_busy_cus &&
                         chip.temperatureK() < cfg.boost_temp_limit_k;
    return allowed ? requested : cfg.vf_table.top();
}

/** The rail voltage, re-deriving every CU's grant per query. */
double
referenceVoltage(const sim::Chip &chip, std::size_t cu)
{
    const sim::ChipConfig &cfg = chip.config();
    if (cfg.per_cu_voltage)
        return chip.stateOf(referenceGranted(chip, cu)).voltage;
    double v = 0.0;
    bool any = false;
    for (std::size_t i = 0; i < cfg.n_cus; ++i) {
        if (chip.powerGatingEnabled() && referenceCuIdle(chip, i))
            continue;
        v = std::max(v, chip.stateOf(referenceGranted(chip, i)).voltage);
        any = true;
    }
    return any ? v : cfg.vf_table.state(0).voltage;
}

TEST(SimOracle, CuOperatingPointMatchesPerCuReference)
{
    util::Rng rng(77);
    const auto &profiles = workloads::Suite::all();
    for (int trial = 0; trial < 300; ++trial) {
        sim::ChipConfig cfg = sim::fx8320ConfigWithBoost();
        cfg.per_cu_voltage = trial % 2 == 0;
        sim::Chip chip(cfg, static_cast<std::uint64_t>(trial));
        chip.setPowerGatingEnabled(rng.bernoulli(0.5));
        for (std::size_t c = 0; c < cfg.coreCount(); ++c) {
            if (!rng.bernoulli(0.35))
                continue;
            const auto &profile = profiles[rng.uniformInt(profiles.size())];
            chip.setJob(c, profile.makeLoopingJob());
        }
        for (std::size_t cu = 0; cu < cfg.n_cus; ++cu)
            chip.setCuVf(cu, rng.uniformInt(chip.stateCount()));
        chip.setTemperatureK(rng.uniform(300.0, 340.0));
        std::vector<double> want_v(cfg.n_cus);
        std::vector<double> want_f(cfg.n_cus);
        for (std::size_t cu = 0; cu < cfg.n_cus; ++cu) {
            want_v[cu] = referenceVoltage(chip, cu);
            want_f[cu] = chip.stateOf(referenceGranted(chip, cu)).freq_ghz;
            EXPECT_EQ(chip.grantedVf(cu), referenceGranted(chip, cu));
            EXPECT_BITS_EQ(chip.effectiveCuVoltage(cu), want_v[cu]);
        }
        // The tick prices every CU at that same operating point.
        const double temp_k = chip.temperatureK();
        const sim::TickResult r = chip.step();
        const sim::HwPowerModel hw(cfg);
        for (std::size_t cu = 0; cu < cfg.n_cus; ++cu) {
            const double full =
                hw.cuIdlePower(want_v[cu], want_f[cu], temp_k);
            const double gated = full * cfg.power.pg_residual;
            EXPECT_BITS_EQ(r.truth.power.cu_idle[cu],
                           r.truth.cu_gated[cu] ? gated : full);
        }
    }
}

} // namespace
