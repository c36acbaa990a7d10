#include "ppep/sim/chip_batch.hpp"

#include "ppep/util/logging.hpp"

namespace ppep::sim {

std::size_t
ChipBatch::attach(Chip &chip)
{
    const std::size_t lane = lanes_.size();
    lanes_.push_back({&chip, chip.nbBatchItem(), true});
    results_.emplace_back();
    nb_items_.resize(lanes_.size());
    total_cores_ += chip.config().coreCount();
    return lane;
}

void
ChipBatch::setActive(std::size_t lane, bool active) PPEP_NONBLOCKING
{
    PPEP_ASSERT(lane < lanes_.size(), "lane ", lane, " out of range");
    lanes_[lane].active = active;
}

bool
ChipBatch::laneActive(std::size_t lane) const
{
    PPEP_ASSERT(lane < lanes_.size(), "lane ", lane, " out of range");
    return lanes_[lane].active;
}

TickResult &
ChipBatch::result(std::size_t lane)
{
    PPEP_ASSERT(lane < lanes_.size(), "lane ", lane, " out of range");
    return results_[lane];
}

void
ChipBatch::step() PPEP_NONBLOCKING
{
    // The demand half per chip, in lane order. Per-chip RNG streams
    // advance here, exactly as the scalar path would.
    std::size_t n_items = 0;
    for (Lane &lane : lanes_) {
        if (!lane.active)
            continue;
        lane.chip->stepDemand();
        nb_items_[n_items++] = lane.nb;
    }

    // Every active chip's NB fixed point in one interleaved solve.
    NorthBridge::resolveBatchInto(nb_items_.data(), n_items);

    // The rest of each chip's tick. Chips share no state, so running
    // each one's parts in separate passes is unobservable.
    for (std::size_t l = 0; l < lanes_.size(); ++l) {
        if (!lanes_[l].active)
            continue;
        Chip &chip = *lanes_[l].chip;
        chip.stepExecute(results_[l]);
        chip.stepPhaseB(results_[l]);
        chip.stepPhaseC(results_[l]);
    }
}

} // namespace ppep::sim
