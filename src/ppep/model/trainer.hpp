/**
 * @file
 * Offline model-training protocols (the paper's "one-time, offline
 * effort" per processor).
 *
 *  - Idle model: the Fig. 1 heat-then-cool protocol at every VF state.
 *  - alpha: measured dynamic power of a steady CPU-bound workload across
 *    VF states, regressed against log-voltage.
 *  - PG decomposition: the Fig. 4 busy-CU sweep with PG on/off.
 *  - Dynamic model: Eq. 3 regression over benchmark traces at the top VF.
 *  - Green Governors baseline: CV^2 f fit over the same traces.
 *
 * Every protocol builds its own fresh Chip instances, drives them only
 * through software-visible controls, and reads only the sensor, the
 * diode, and the PMCs — exactly the paper's measurement position.
 */

#ifndef PPEP_MODEL_TRAINER_HPP
#define PPEP_MODEL_TRAINER_HPP

#include <cstdint>
#include <vector>

#include "ppep/model/chip_power_model.hpp"
#include "ppep/model/green_governors.hpp"
#include "ppep/model/pg_idle_model.hpp"
#include "ppep/sim/chip_config.hpp"
#include "ppep/trace/interval.hpp"
#include "ppep/workloads/suite.hpp"

namespace ppep::model {

/** Everything trainAll() produces. */
struct TrainedModels
{
    IdlePowerModel idle;
    double alpha = 2.0;
    DynamicPowerModel dynamic;
    ChipPowerModel chip;
    PgIdleModel pg;           ///< untrained when the chip lacks PG
    GreenGovernorsModel gg;
};

/** The full heat/cool record of one Fig. 1 run. */
struct CoolingTrace
{
    /** (V, T, P) samples from the cooling portion — training data. */
    std::vector<IdleSample> idle_samples;
    /** Per-interval sensor power over heat+cool (for plotting Fig. 1). */
    std::vector<double> power_curve_w;
    /** Per-interval diode temperature over heat+cool. */
    std::vector<double> temp_curve_k;
    /** Index of the first cooling interval within the curves. */
    std::size_t cool_start = 0;
};

/** One benchmark combination's trace at one VF state. */
struct ComboTrace
{
    const workloads::Combination *combo = nullptr;
    std::size_t vf_index = 0;
    std::vector<trace::IntervalRecord> recs;
};

/** Offline training driver for one chip configuration. */
class Trainer
{
  public:
    /** @param seed drives all chips the trainer builds. */
    Trainer(sim::ChipConfig cfg, std::uint64_t seed);

    /** The configuration being trained for. */
    const sim::ChipConfig &config() const { return cfg_; }

    // --- Fig. 1: idle model ---------------------------------------------

    /**
     * Run the heat/cool protocol at one VF state. Defaults heat long
     * enough to approach thermal steady state and cool long enough to
     * span the operating range.
     */
    CoolingTrace collectCoolingTrace(std::size_t vf_index,
                                     std::size_t heat_intervals = 500,
                                     std::size_t cool_intervals = 700) const;

    /** Train Eq. 2 from cooling traces at every VF state. */
    IdlePowerModel trainIdle() const;

    // --- alpha ------------------------------------------------------------

    /**
     * Estimate the voltage-scaling exponent: steady CPU-bound load on
     * all cores at each VF state; regress log(dynamic power / activity
     * rate) on log(voltage).
     */
    double estimateAlpha(const IdlePowerModel &idle) const;

    // --- Fig. 4: power gating ----------------------------------------------

    /**
     * The busy-CU sweep: for every VF state and both PG settings,
     * measure chip power with 0..n_cus CUs running bench_A.
     * @pre the chip supports PG.
     */
    std::vector<PgSweepMeasurement> collectPgSweeps() const;

    /** Extract Eq. 7/8 components from the sweeps. */
    PgIdleModel trainPg() const;

    // --- benchmark traces ---------------------------------------------------

    /**
     * Run one combination to completion (capped) at one VF state with PG
     * disabled and global DVFS, collecting every interval.
     */
    ComboTrace collectCombo(const workloads::Combination &combo,
                            std::size_t vf_index,
                            std::size_t max_intervals = 120) const;

    /** Cross product of combos and VF states. */
    std::vector<ComboTrace>
    collectDataset(const std::vector<const workloads::Combination *> &combos,
                   const std::vector<std::size_t> &vf_indices,
                   std::size_t max_intervals = 120) const;

    // --- regressions ------------------------------------------------------

    /**
     * Eq. 3 regression from traces taken at the top VF state (rows from
     * other VF states are ignored).
     */
    DynamicPowerModel
    trainDynamic(const IdlePowerModel &idle, double alpha,
                 const std::vector<const ComboTrace *> &traces) const;

    /** Fit the Green Governors baseline on traces from all VF states. */
    GreenGovernorsModel
    trainGg(const std::vector<const ComboTrace *> &traces) const;

    /**
     * Run the whole pipeline with the given training combinations. The
     * optional @p dataset avoids re-collecting traces the caller already
     * has (entries whose combo is not in @p combos are ignored; top-VF
     * entries feed Eq. 3, all entries feed the GG baseline).
     * Combinations with more instances than the chip has cores are
     * skipped, so one training set can serve every platform (a 6-core
     * Phenom II drops the 8-thread PARSEC/NPB entries).
     */
    TrainedModels
    trainAll(const std::vector<const workloads::Combination *> &combos,
             const std::vector<ComboTrace> *dataset = nullptr) const;

  private:
    /** Deterministic chip for a named sub-experiment. */
    sim::Chip makeChip(std::uint64_t stream) const;

    sim::ChipConfig cfg_;
    std::uint64_t seed_;
};

} // namespace ppep::model

#endif // PPEP_MODEL_TRAINER_HPP
