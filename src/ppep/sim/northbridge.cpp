#include "ppep/sim/northbridge.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "ppep/util/logging.hpp"

namespace ppep::sim {

namespace {

/** Rounds after which a fixed point stops whether or not it met its
 *  tolerance. */
constexpr int kMaxRounds = 100;

} // namespace

NorthBridge::NorthBridge(const ChipConfig &cfg)
    : cfg_(cfg), vf_(cfg.nb.vf_hi)
{
}

void
NorthBridge::setVf(const VfState &vf) PPEP_NONBLOCKING
{
    PPEP_ASSERT(vf.freq_ghz > 0.0 && vf.voltage > 0.0, "bad NB VF state");
    vf_ = vf;
}

double
NorthBridge::l3LatencyNs() const PPEP_NONBLOCKING
{
    return cfg_.nb.l3_latency_cycles / vf_.freq_ghz;
}

double
NorthBridge::dramLatencyNs() const PPEP_NONBLOCKING
{
    return cfg_.nb.dram_fixed_ns +
           cfg_.nb.mc_latency_cycles / vf_.freq_ghz;
}

NbResolution
NorthBridge::resolve(const std::vector<CoreDemand> &demands) const
{
    NbResolution res;
    resolveInto(demands, res);
    return res;
}

NorthBridge::FixedPoint
NorthBridge::prepare(const std::vector<CoreDemand> &demands,
                     NbResolution &res) const PPEP_NONBLOCKING
{
    const std::size_t n = demands.size();
    // rt-escape: warm-up growth of the caller-owned resolution buffers.
    PPEP_RT_WARMUP_BEGIN
    res.mem_lat_ns.assign(n, 0.0);
    res.terms.resize(n);
    PPEP_RT_WARMUP_END
    res.utilization = 0.0;
    res.queue_factor = 1.0;
    if (n == 0)
        return FixedPoint{};

    // Terms the fixed point cannot change, each computed by the same
    // expression the iteration would otherwise re-evaluate every round
    // (the L3/DRAM latency blend, the instruction rate), so every
    // round's values are bit-identical to evaluating them in place.
    const double l3_ns = l3LatencyNs();
    for (std::size_t i = 0; i < n; ++i) {
        const PerInstRates &r = demands[i].rates;
        NbDemandTerms &t = res.terms[i];
        t.miss = r.l3_per_inst > 0.0 ? r.dram_per_inst / r.l3_per_inst
                                     : 0.0;
        t.l3_hit_ns = l3_ns * (1.0 - t.miss);
        t.leading_per_inst = r.leading_per_inst;
        t.f_ghz = demands[i].f_ghz;
        t.ccpi = r.ccpi;
        t.dram_per_inst = r.dram_per_inst;
    }
    return {res.terms.data(),
            res.mem_lat_ns.data(),
            n,
            dramLatencyNs(),
            cfg_.nb.dram_bw_gbs * 1e9,
            cfg_.nb.mlp_collapse,
            cfg_.nb.line_bytes,
            cfg_.nb.max_utilization};
}

inline bool
NorthBridge::fixedPointRound(const FixedPoint &fp, double &queue_factor,
                             double &utilization) PPEP_NONBLOCKING
{
    // MLP collapse: under pressure, overlapped misses serialise and
    // the effective leading-load latency grows super-linearly.
    const double mlp_scale =
        1.0 + fp.mlp_collapse * utilization * utilization;
    const double dram_qf_ns = fp.dram_ns * queue_factor;
    double bytes_per_s = 0.0;
    for (std::size_t i = 0; i < fp.n; ++i) {
        const NbDemandTerms &t = fp.terms[i];
        const double lat = (t.l3_hit_ns + dram_qf_ns * t.miss) * mlp_scale;
        fp.lat_out[i] = lat;
        const double mcpi = t.leading_per_inst * lat * t.f_ghz;
        const double cpi = t.ccpi + mcpi;
        PPEP_ASSERT(cpi > 0.0, "non-positive CPI");
        const double ips = t.f_ghz * 1e9 / cpi;
        bytes_per_s += ips * t.dram_per_inst * fp.line_bytes;
    }
    const double rho = std::min(bytes_per_s / fp.bw_max, fp.max_utilization);
    const double target_qf = 1.0 / (1.0 - rho);
    const double next_qf = 0.5 * queue_factor + 0.5 * target_qf;
    const bool converged = std::fabs(next_qf - queue_factor) < 1e-12;
    queue_factor = next_qf;
    utilization = rho;
    return converged;
}

void
NorthBridge::resolveInto(const std::vector<CoreDemand> &demands,
                         NbResolution &res) const PPEP_NONBLOCKING
{
    const FixedPoint fp = prepare(demands, res);
    if (fp.n == 0)
        return;

    // Fixed point: latency -> instruction rate -> bandwidth -> latency.
    // Damped iteration converges in a handful of rounds for any sane
    // utilisation; the cap keeps the M/M/1 form from diverging. The
    // iterate lives in locals, not in res, so it stays in registers.
    double queue_factor = 1.0;
    double utilization = 0.0;
    for (int iter = 0; iter < kMaxRounds; ++iter)
        if (fixedPointRound(fp, queue_factor, utilization))
            break;

    res.utilization = utilization;
    res.queue_factor = queue_factor;
}

void
NorthBridge::resolveBatchInto(const NbBatchItem *items,
                              std::size_t n) PPEP_NONBLOCKING
{
    // Items are taken in chunks so the per-item state fits on the
    // stack; interleaving gains nothing past a few items in flight.
    constexpr std::size_t kChunk = 32;
    for (std::size_t base = 0; base < n; base += kChunk) {
        const std::size_t m = std::min(kChunk, n - base);
        std::array<FixedPoint, kChunk> fps{};
        std::array<std::size_t, kChunk> live{};
        std::size_t n_live = 0;
        for (std::size_t k = 0; k < m; ++k) {
            const NbBatchItem &it = items[base + k];
            fps[k] = it.nb->prepare(*it.demands, *it.res);
            if (fps[k].n > 0)
                live[n_live++] = k;
        }
        // Round-robin passes: pass r runs round r of every item still
        // iterating, so an item's rounds happen in the same order, on
        // the same values, as in resolveInto(). The iterate lives in
        // the item's result, which prepare() set to the same starting
        // values resolveInto() gives its locals.
        for (int iter = 0; iter < kMaxRounds && n_live > 0; ++iter) {
            std::size_t kept = 0;
            for (std::size_t j = 0; j < n_live; ++j) {
                const std::size_t k = live[j];
                NbResolution &res = *items[base + k].res;
                if (!fixedPointRound(fps[k], res.queue_factor,
                                     res.utilization))
                    live[kept++] = k;
            }
            n_live = kept;
        }
    }
}

} // namespace ppep::sim
