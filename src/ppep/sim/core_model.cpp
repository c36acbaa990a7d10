#include "ppep/sim/core_model.hpp"

#include <algorithm>
#include <cmath>

#include "ppep/util/logging.hpp"

namespace ppep::sim {

PerInstRates
CoreModel::effectiveRates(const ChipConfig &cfg, const Phase &phase,
                          double f_ghz, util::Rng &rng) PPEP_NONBLOCKING
{
    const double f_top =
        cfg.vf_table.state(cfg.vf_table.top()).freq_ghz;
    const double rel = (f_ghz - f_top) / f_top;

    // Raw per-inst occurrence rates in Table I order E1..E8.
    const std::array<double, 8> raw{
        phase.uops_per_inst,   phase.fpu_per_inst,
        phase.ifetch_per_inst, phase.dcache_per_inst,
        phase.l2req_per_inst,  phase.branch_per_inst,
        phase.mispred_per_inst, phase.l2miss_per_inst,
    };

    PerInstRates out;
    for (std::size_t i = 0; i < 8; ++i) {
        const double sens = cfg.event_freq_sens[i];
        const double jitter = 1.0 + rng.gaussian(0.0, cfg.rate_jitter_sd);
        out.power_events[i] =
            std::max(0.0, raw[i] * (1.0 + sens * rel) * jitter);
    }

    // Leading loads and the L3/DRAM split follow E8's effective rate so
    // the memory-side quantities stay mutually consistent.
    const double miss_scale =
        phase.l2miss_per_inst > 0.0
            ? out.power_events[7] / phase.l2miss_per_inst
            : 1.0;
    out.leading_per_inst = phase.leading_per_inst * miss_scale;
    out.l3_per_inst = out.power_events[7];
    out.dram_per_inst = out.l3_per_inst * phase.l3_miss_rate;

    // Interval-analysis CCPI decomposition.
    const double retire_cpi = 1.0 / cfg.issue_width;
    const double mispred_cpi =
        cfg.mispredict_penalty * out.power_events[6];
    out.ccpi = retire_cpi + mispred_cpi + phase.resource_stall_cpi;
    out.obs2_gap = retire_cpi + mispred_cpi;

    // E9: dispatch-stall cycles per instruction excluding memory time;
    // the memory part is added in execute() once latency is known.
    out.power_events[8] = phase.resource_stall_cpi;

    return out;
}

CoreActivity
CoreModel::execute(const ChipConfig &cfg, const PerInstRates &rates,
                   double f_ghz, double mem_lat_ns, double dt_s,
                   double max_instructions) PPEP_NONBLOCKING
{
    CoreActivity act;
    act.busy = true;

    const double mcpi = rates.leading_per_inst * mem_lat_ns * f_ghz;
    const double cpi = rates.ccpi + mcpi;
    const double ips = f_ghz * 1e9 / cpi;
    act.instructions = std::min(ips * dt_s, max_instructions);
    act.cycles = act.instructions * cpi;
    act.cpi = cpi;
    act.mcpi = mcpi;

    // Occurrence events E1..E8.
    for (std::size_t i = 0; i < 8; ++i)
        act.events[i] = rates.power_events[i] * act.instructions;
    // E9 dispatch stalls: resource stalls + memory stall cycles.
    act.events[eventIndex(Event::DispatchStall)] =
        (rates.power_events[8] + mcpi) * act.instructions;
    // E10 unhalted cycles, E11 retired instructions, E12 MAB wait cycles.
    act.events[eventIndex(Event::ClocksNotHalted)] = act.cycles;
    act.events[eventIndex(Event::RetiredInst)] = act.instructions;
    act.events[eventIndex(Event::MabWaitCycles)] = mcpi * act.instructions;

    act.l3_accesses = rates.l3_per_inst * act.instructions;
    act.dram_accesses = rates.dram_per_inst * act.instructions;

    (void)cfg;
    return act;
}

CoreActivity
CoreModel::idleTick()
{
    return CoreActivity{};
}

} // namespace ppep::sim
