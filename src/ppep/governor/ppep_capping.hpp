/**
 * @file
 * The PPEP one-step power-capping policy (paper Sec. V-B, Fig. 7).
 *
 * Each interval, PPEP predicts chip power and performance for every
 * per-CU VF assignment (assuming per-CU voltage planes, as prior work
 * [20, 21] does) and jumps directly to the assignment that maximises
 * predicted performance subject to the cap — no iterative search. The
 * paper measures 14x faster cap tracking and 94% adherence versus the
 * reactive baseline's 81%.
 *
 * The search is exact but pruned: CUs with no busy core stay pinned at
 * VF 0 instead of being enumerated. The result equals the full
 * n_vf^n_cus odometer bit for bit.
 */

#ifndef PPEP_GOVERNOR_PPEP_CAPPING_HPP
#define PPEP_GOVERNOR_PPEP_CAPPING_HPP

#include "ppep/governor/governor.hpp"
#include "ppep/model/ppep.hpp"

namespace ppep::governor {

/** Predictive single-step capping built on the PPEP framework. */
class PpepCappingGovernor : public Governor
{
  public:
    /**
     * @param cfg  chip description.
     * @param ppep trained PPEP predictor (must include a PG idle model).
     * @param guard_band derate the cap by this fraction to absorb model
     *             error (the paper's residual 6% violations motivate a
     *             small band).
     */
    PpepCappingGovernor(const sim::ChipConfig &cfg,
                        const model::Ppep &ppep,
                        double guard_band = 0.02);

    std::vector<std::size_t> decide(const trace::IntervalRecord &rec,
                                    double cap_w) override;

    /** Allocation-free decide() (identical assignment). */
    void decideInto(const trace::IntervalRecord &rec, double cap_w,
                    std::vector<std::size_t> &out) PPEP_NONBLOCKING
        override;

    std::string name() const override { return "ppep-one-step"; }

    double lastPredictedPower() const PPEP_NONBLOCKING override
    {
        return last_predicted_power_w_;
    }

  private:
    const sim::ChipConfig &cfg_;
    const model::Ppep &ppep_;
    double guard_band_;
    double last_predicted_power_w_ =
        std::numeric_limits<double>::quiet_NaN();
    /** Per-VF rail voltage scales — VF-table-only, hoisted at build. */
    std::vector<double> vscale_by_vf_;
    /**
     * Per-decision scratch reused across intervals (no per-decision
     * heap): flattened per-core-per-VF tables indexed [c * n_vf + vf],
     * plus the odometer state.
     */
    std::vector<double> ips_;
    std::vector<double> core_base_;
    std::vector<double> nb_part_;
    std::vector<std::size_t> busy_per_cu_;
    /** CUs whose VF digit the search enumerates (the busy ones). */
    std::vector<std::size_t> busy_cus_;
    std::vector<std::size_t> assign_;
    std::vector<std::size_t> priced_;
};

} // namespace ppep::governor

#endif // PPEP_GOVERNOR_PPEP_CAPPING_HPP
