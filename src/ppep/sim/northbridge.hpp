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
     * Average leading-load latency for a core whose L3 accesses miss to
     * DRAM with probability @p l3_miss_rate, given a DRAM queueing factor.
     */
    double coreLatencyNs(double l3_miss_rate, double queue_factor) const PPEP_NONBLOCKING;

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

  private:
    const ChipConfig &cfg_;
    VfState vf_;
};

} // namespace ppep::sim

#endif // PPEP_SIM_NORTHBRIDGE_HPP
