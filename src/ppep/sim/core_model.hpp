/**
 * @file
 * Interval-analysis core model.
 *
 * Executes one simulation tick of a phase on one core: splits CPI into a
 * frequency-scaling core component (CCPI) and a wall-clock-constant memory
 * component (MCPI, the leading-loads time), then derives instruction
 * throughput and all twelve Table-I event counts. The decomposition follows
 * Eyerman et al.'s interval model, which the paper builds Eq. 4-6 on:
 *
 *   cycles = retiring + dispatch stalls + discarded (mispredict recovery)
 *   CCPI   = 1/IssueWidth + MisBranchPen * mispred/inst + resource stalls
 *   MCPI   = leading_loads/inst * memory_latency_ns * f
 *
 * Per-instruction event rates are VF-invariant up to a small configured
 * frequency sensitivity and per-tick jitter — Observation 1 — and
 * CPI - DispatchStalls/inst equals the frequency-invariant
 * 1/IW + penalty * mispred/inst term — Observation 2.
 */

#ifndef PPEP_SIM_CORE_MODEL_HPP
#define PPEP_SIM_CORE_MODEL_HPP

#include "ppep/sim/chip_config.hpp"
#include "ppep/sim/events.hpp"
#include "ppep/sim/phase.hpp"
#include "ppep/util/rng.hpp"
#include "ppep/util/annotations.hpp"

namespace ppep::sim {

/** Effective (jittered, frequency-adjusted) per-instruction rates. */
struct PerInstRates
{
    /** Per-instruction occurrence rates for power events E1..E9 — for E9
     *  this is dispatch-stall *cycles* per instruction. */
    std::array<double, kNumPowerEvents> power_events{};
    /** Leading loads per instruction. */
    double leading_per_inst = 0.0;
    /** L3 accesses (L2 misses) per instruction. */
    double l3_per_inst = 0.0;
    /** DRAM accesses per instruction. */
    double dram_per_inst = 0.0;
    /** Core CPI (no memory time): retire + mispredict + resource stalls. */
    double ccpi = 0.0;
    /** Frequency-invariant Eq. 6 gap: 1/IW + penalty * mispred/inst. */
    double obs2_gap = 0.0;
};

/** Result of executing one tick on one core. */
struct CoreActivity
{
    /** Whether the core had a job this tick. */
    bool busy = false;
    /** Instructions retired this tick. */
    double instructions = 0.0;
    /** Unhalted cycles this tick. */
    double cycles = 0.0;
    /** True event counts this tick (Table I order). */
    EventVector events{};
    /** L3 accesses this tick (for NB power/contention accounting). */
    double l3_accesses = 0.0;
    /** DRAM accesses this tick. */
    double dram_accesses = 0.0;
    /** Total CPI this tick. */
    double cpi = 0.0;
    /** Memory CPI component this tick. */
    double mcpi = 0.0;
};

/**
 * Stateless per-tick core execution math. All methods are pure given the
 * RNG; the Chip owns per-core RNG streams and job state.
 */
class CoreModel
{
  public:
    /**
     * Compute effective per-instruction rates for @p phase at core
     * frequency @p f_ghz. Applies the configured per-event frequency
     * sensitivity and one jitter draw per rate.
     */
    static PerInstRates effectiveRates(const ChipConfig &cfg,
                                       const Phase &phase, double f_ghz,
                                       util::Rng &rng) PPEP_NONBLOCKING;

    /**
     * Execute @p dt_s seconds of @p phase on a core at @p f_ghz with
     * resolved memory latency @p mem_lat_ns, bounded by
     * @p max_instructions remaining in the job. Produces true event
     * counts.
     */
    static CoreActivity execute(const ChipConfig &cfg,
                                const PerInstRates &rates, double f_ghz,
                                double mem_lat_ns, double dt_s,
                                double max_instructions) PPEP_NONBLOCKING;

    /** Activity record for an idle (halted) core tick. */
    static CoreActivity idleTick();
};

} // namespace ppep::sim

#endif // PPEP_SIM_CORE_MODEL_HPP
