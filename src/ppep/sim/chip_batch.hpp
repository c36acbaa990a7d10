/**
 * @file
 * Tick-locked stepping of many chips with one interleaved north-bridge
 * solve — the fleet simulator kernel.
 *
 * Every tick of every chip solves the NB contention fixed point
 * (NorthBridge::resolveInto), and each round of that solve is a chain
 * of dependent divisions: one chip's solve is latency-bound, not
 * throughput-bound. ChipBatch steps N independent chips tick-locked in
 * three passes:
 *
 *   1. the demand half of every active chip's tick (VF landing,
 *      gating, operating points, per-core rates);
 *   2. one NorthBridge::resolveBatchInto() over all of their fixed
 *      points, which runs the chips' rounds interleaved so their
 *      division chains overlap;
 *   3. the execute half, ground-truth power and the observable
 *      readings of each chip.
 *
 * Bit-identity contract: ChipBatch::step() produces results bitwise
 * equal to calling chip.stepInto() on each attached chip.
 *  - stepInto() is stepDemand, resolveInto, stepExecute, B, C in that
 *    order; the batch calls the same parts.
 *  - resolveBatchInto() calls the one round function resolveInto()
 *    calls, on the same per-chip values in the same order; only the
 *    rounds of different chips are interleaved.
 *  - Chips never share state, so interleaving their parts is
 *    unobservable.
 * Heterogeneous fleets are free: each item carries its own chip's NB
 * and config, so FX-8320 and Phenom II chips share one solve. Fault
 * injection lives in the per-chip parts and is untouched.
 */

#ifndef PPEP_SIM_CHIP_BATCH_HPP
#define PPEP_SIM_CHIP_BATCH_HPP

#include <cstddef>
#include <vector>

#include "ppep/sim/chip.hpp"
#include "ppep/sim/northbridge.hpp"
#include "ppep/util/annotations.hpp"

namespace ppep::sim {

/** Steps many independent chips with one interleaved NB solve. */
class ChipBatch
{
  public:
    /**
     * Add a chip as another lane (cold; sizes the batch scratch). The
     * chip must outlive the batch. Returns the lane index.
     */
    std::size_t attach(Chip &chip);

    /** Number of attached chips. */
    std::size_t laneCount() const { return lanes_.size(); }

    /** Cores across all attached chips. */
    std::size_t coreLaneCount() const { return total_cores_; }

    /**
     * Include/exclude a lane from subsequent step() calls — e.g. when
     * a fault-jittered interval gave one session fewer ticks than its
     * lockstep peers. An inactive lane's chip and result are untouched.
     */
    void setActive(std::size_t lane, bool active) PPEP_NONBLOCKING;

    /** Whether a lane participates in step(). */
    bool laneActive(std::size_t lane) const;

    /** The most recent tick's result for a lane. */
    TickResult &result(std::size_t lane);

    /**
     * Advance every active lane's chip by one tick — bit-identical to
     * calling stepInto() on each (see the bit-identity contract above).
     */
    void step() PPEP_NONBLOCKING;

  private:
    struct Lane
    {
        Chip *chip = nullptr;
        /** The chip's NB fixed point; its addresses are stable. */
        NbBatchItem nb;
        bool active = true;
    };

    std::vector<Lane> lanes_;
    std::vector<TickResult> results_;
    /** The active lanes' fixed points for one step(); one slot per
     *  lane, sized by attach(). */
    std::vector<NbBatchItem> nb_items_;
    std::size_t total_cores_ = 0;
};

} // namespace ppep::sim

#endif // PPEP_SIM_CHIP_BATCH_HPP
