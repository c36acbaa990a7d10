#include "ppep/sim/northbridge.hpp"

#include <algorithm>
#include <cmath>

#include "ppep/util/logging.hpp"

namespace ppep::sim {

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

double
NorthBridge::coreLatencyNs(double l3_miss_rate, double queue_factor) const PPEP_NONBLOCKING
{
    return l3LatencyNs() * (1.0 - l3_miss_rate) +
           dramLatencyNs() * queue_factor * l3_miss_rate;
}

NbResolution
NorthBridge::resolve(const std::vector<CoreDemand> &demands) const
{
    NbResolution res;
    resolveInto(demands, res);
    return res;
}

void
NorthBridge::resolveInto(const std::vector<CoreDemand> &demands,
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
        return;

    // Terms the fixed point cannot change, each computed by the same
    // expression the iteration would otherwise re-evaluate every round
    // (coreLatencyNs(), CoreModel::instRate()), so every round's values
    // are bit-identical to evaluating them in place.
    const double l3_ns = l3LatencyNs();
    const double dram_ns = dramLatencyNs();
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
    const NbDemandTerms *terms = res.terms.data();
    double *lat_out = res.mem_lat_ns.data();
    const double bw_max = cfg_.nb.dram_bw_gbs * 1e9;
    const double mlp_collapse = cfg_.nb.mlp_collapse;
    const double line_bytes = cfg_.nb.line_bytes;
    const double max_utilization = cfg_.nb.max_utilization;

    // Fixed point: latency -> instruction rate -> bandwidth -> latency.
    // Damped iteration converges in a handful of rounds for any sane
    // utilisation; the cap keeps the M/M/1 form from diverging.
    double queue_factor = 1.0;
    double utilization = 0.0;
    for (int iter = 0; iter < 100; ++iter) {
        // MLP collapse: under pressure, overlapped misses serialise and
        // the effective leading-load latency grows super-linearly.
        const double mlp_scale =
            1.0 + mlp_collapse * utilization * utilization;
        const double dram_qf_ns = dram_ns * queue_factor;
        double bytes_per_s = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            const NbDemandTerms &t = terms[i];
            const double lat =
                (t.l3_hit_ns + dram_qf_ns * t.miss) * mlp_scale;
            lat_out[i] = lat;
            const double mcpi = t.leading_per_inst * lat * t.f_ghz;
            const double cpi = t.ccpi + mcpi;
            PPEP_ASSERT(cpi > 0.0, "non-positive CPI");
            const double ips = t.f_ghz * 1e9 / cpi;
            bytes_per_s += ips * t.dram_per_inst * line_bytes;
        }
        const double rho = std::min(bytes_per_s / bw_max, max_utilization);
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
}

} // namespace ppep::sim
