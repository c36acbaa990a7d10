/**
 * @file
 * Shared north-bridge model: L3 + memory-controller latency, DRAM
 * bandwidth contention, and the NB's own VF state.
 *
 * All cores share the NB (Sec. II), so memory-bound co-runners slow each
 * other down — the mechanism behind the paper's background-workload
 * findings (Figs. 8-10). Contention is modelled as an M/M/1-style queueing
 * inflation of DRAM latency with total bandwidth utilisation, resolved by
 * a per-tick fixed point over all busy cores (demand depends on latency,
 * latency depends on demand).
 */

#ifndef PPEP_SIM_NORTHBRIDGE_HPP
#define PPEP_SIM_NORTHBRIDGE_HPP

#include <cstddef>
#include <vector>

#include "ppep/sim/chip_config.hpp"
#include "ppep/sim/core_model.hpp"
#include "ppep/util/annotations.hpp"

namespace ppep::sim {

/** One busy core's demand description for the contention fixed point. */
struct CoreDemand
{
    /** Effective per-instruction rates for this tick. */
    PerInstRates rates;
    /** Core frequency, GHz. */
    double f_ghz = 0.0;
};

/**
 * One busy core's terms that stay constant across every iteration of a
 * tick's contention fixed point, evaluated once per tick by
 * NorthBridge::resolveInto(). Each is the exact expression a round
 * would otherwise evaluate in place, so no result bit depends on the
 * hoisting.
 */
struct NbDemandTerms
{
    /** l3LatencyNs() * (1 - miss): the L3-hit share of the latency. */
    double l3_hit_ns = 0.0;
    /** L3 miss ratio dram_per_inst / l3_per_inst (0 without L3 traffic). */
    double miss = 0.0;
    /** Leading loads per instruction. */
    double leading_per_inst = 0.0;
    /** Core clock, GHz. */
    double f_ghz = 0.0;
    /** Core CPI without memory time. */
    double ccpi = 0.0;
    /** DRAM accesses per instruction. */
    double dram_per_inst = 0.0;
};

/** Resolved contention state for one tick. */
struct NbResolution
{
    /** Per-core average leading-load latency, nanoseconds. */
    std::vector<double> mem_lat_ns;
    /** Total DRAM bandwidth utilisation in [0, max_utilization]. */
    double utilization = 0.0;
    /** Queueing inflation factor applied to DRAM latency (>= 1). */
    double queue_factor = 1.0;
    /** Per-demand iteration invariants (resolveInto() scratch). */
    std::vector<NbDemandTerms> terms;
};

class NorthBridge;

/**
 * One chip's fixed point in a NorthBridge::resolveBatchInto() call:
 * the same three things NorthBridge::resolveInto() takes.
 */
struct NbBatchItem
{
    const NorthBridge *nb = nullptr;
    const std::vector<CoreDemand> *demands = nullptr;
    NbResolution *res = nullptr;
};

/**
 * The north bridge: owns the NB VF state and answers latency queries.
 * Stateless across ticks except for the VF setting.
 */
class NorthBridge
{
  public:
    explicit NorthBridge(const ChipConfig &cfg);

    /** Current NB operating point. */
    const VfState &vf() const PPEP_NONBLOCKING { return vf_; }

    /** Change the NB operating point (the Sec. V-C2 what-if). */
    void setVf(const VfState &vf) PPEP_NONBLOCKING;

    /** L3 hit latency at the current NB frequency, nanoseconds. */
    double l3LatencyNs() const PPEP_NONBLOCKING;

    /** Uncontended DRAM access latency, nanoseconds. */
    double dramLatencyNs() const PPEP_NONBLOCKING;

    /**
     * Resolve the contention fixed point for one tick: given every busy
     * core's demand, find mutually consistent per-core latencies and the
     * resulting DRAM utilisation.
     */
    NbResolution resolve(const std::vector<CoreDemand> &demands) const;

    /**
     * resolve() into a caller-owned result, reusing its latency and
     * term buffers — the allocation-free per-tick path. Each demand's
     * iteration invariants (NB latencies, miss ratio) are evaluated
     * once per call, so an iteration costs one division per core.
     */
    void resolveInto(const std::vector<CoreDemand> &demands,
                     NbResolution &res) const PPEP_NONBLOCKING;

    /**
     * resolveInto() on @p n independent fixed points at once, each
     * item's result bitwise equal to item.nb->resolveInto(*item.demands,
     * *item.res). The items' rounds run interleaved: one round of every
     * unconverged item per pass, so their serial division chains
     * overlap in the core instead of running back to back. Each item
     * keeps its own convergence test and 100-round cap.
     */
    static void resolveBatchInto(const NbBatchItem *items,
                                 std::size_t n) PPEP_NONBLOCKING;

  private:
    /** One call's fixed point: its hoisted terms and the constants
     *  every round reads (see prepare()). */
    struct FixedPoint
    {
        const NbDemandTerms *terms;
        double *lat_out;
        std::size_t n;
        double dram_ns;
        double bw_max;
        double mlp_collapse;
        double line_bytes;
        double max_utilization;
    };

    /**
     * The per-call prepass: size @p res, reset its utilisation and
     * queue factor to the fixed point's starting values, and evaluate
     * every demand's iteration invariants.
     */
    FixedPoint prepare(const std::vector<CoreDemand> &demands,
                       NbResolution &res) const PPEP_NONBLOCKING;

    /**
     * One round of the fixed point: writes every demand's latency and
     * advances @p queue_factor and @p utilization. Returns true once
     * the queue factor has converged. The only place the round's
     * arithmetic is written.
     */
    static bool fixedPointRound(const FixedPoint &fp,
                                double &queue_factor,
                                double &utilization) PPEP_NONBLOCKING;

    const ChipConfig &cfg_;
    VfState vf_;
};

} // namespace ppep::sim

#endif // PPEP_SIM_NORTHBRIDGE_HPP
