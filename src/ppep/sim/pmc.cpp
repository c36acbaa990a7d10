#include "ppep/sim/pmc.hpp"

#include <algorithm>

#include "ppep/util/logging.hpp"

namespace ppep::sim {

std::uint64_t
wrapCounterDelta(std::uint64_t prev, std::uint64_t cur,
                 unsigned width_bits)
{
    PPEP_ASSERT(width_bits >= 1 && width_bits <= 63,
                "counter width out of range");
    const std::uint64_t mask = (1ULL << width_bits) - 1;
    PPEP_ASSERT(prev <= mask && cur <= mask,
                "raw reads exceed the counter width");
    return (cur - prev) & mask;
}

PmcBank::PmcBank(std::size_t n_counters) : slots_(n_counters)
{
    PPEP_ASSERT(n_counters >= 1, "need at least one counter");
}

void
PmcBank::setWrapBits(unsigned bits)
{
    PPEP_ASSERT(bits <= 63, "counter width must fit a 64-bit register");
    wrap_bits_ = bits;
    wrap_modulus_ =
        bits ? static_cast<double>(1ULL << bits) : 0.0;
}

double
PmcBank::maxCount() const PPEP_NONBLOCKING
{
    PPEP_ASSERT(wrap_bits_ > 0, "unbounded counters have no full scale");
    return wrap_modulus_ - 1.0;
}

void
PmcBank::program(std::size_t slot, std::optional<Event> event)
{
    PPEP_ASSERT(slot < slots_.size(), "slot ", slot, " out of range");
    slots_[slot].event =
        event ? static_cast<int>(eventIndex(*event)) : kDisabled;
}

std::optional<Event>
PmcBank::programmed(std::size_t slot) const
{
    PPEP_ASSERT(slot < slots_.size(), "slot ", slot, " out of range");
    const int e = slots_[slot].event;
    if (e == kDisabled)
        return std::nullopt;
    return static_cast<Event>(e);
}

double
PmcBank::read(std::size_t slot) const
{
    PPEP_ASSERT(slot < slots_.size(), "slot ", slot, " out of range");
    return slots_[slot].count;
}

void
PmcBank::write(std::size_t slot, double value) PPEP_NONBLOCKING
{
    PPEP_ASSERT(slot < slots_.size(), "slot ", slot, " out of range");
    PPEP_ASSERT(value >= 0.0, "counters hold non-negative counts");
    slots_[slot].count = value;
}

void
PmcBank::observe(const EventVector &true_counts) PPEP_NONBLOCKING
{
    for (auto &slot : slots_) {
        if (slot.event == kDisabled)
            continue;
        slot.count += true_counts[static_cast<std::size_t>(slot.event)];
        if (wrap_modulus_ > 0.0) {
            // Finite-width counters lose their high bits on overflow,
            // exactly like a real 48-bit PERF_CTR rolling over.
            while (slot.count >= wrap_modulus_) {
                slot.count -= wrap_modulus_;
                ++wrap_events_;
            }
        }
    }
}

PmcMultiplexer::PmcMultiplexer(PmcBank &bank, std::vector<Event> events,
                               std::size_t stagger)
    : bank_(bank), events_(std::move(events)),
      n_groups_((events_.size() + bank.counterCount() - 1) /
                bank.counterCount()),
      current_group_(n_groups_ ? stagger % n_groups_ : 0)
{
    PPEP_ASSERT(!events_.empty(), "multiplexer needs events");
    group_ticks_.assign(n_groups_, 0);
    group_rows_.assign(n_groups_ * bank_.counterCount(), PmcBank::kDisabled);
    for (std::size_t i = 0; i < events_.size(); ++i)
        group_rows_[i] = static_cast<int>(eventIndex(events_[i]));
    programCurrentGroup();
}

std::size_t
PmcMultiplexer::groupOf(Event e) const
{
    const auto it = std::find(events_.begin(), events_.end(), e);
    PPEP_ASSERT(it != events_.end(), "event not covered");
    return static_cast<std::size_t>(
               std::distance(events_.begin(), it)) /
           bank_.counterCount();
}

void
PmcMultiplexer::programCurrentGroup() PPEP_NONBLOCKING
{
    // Select the group's events and clear every slot: the row is laid
    // out in slot order, so slot s counts the group's s-th event.
    const std::size_t width = bank_.slots_.size();
    const int *row = group_rows_.data() + current_group_ * width;
    PmcBank::Slot *slots = bank_.slots_.data();
    for (std::size_t s = 0; s < width; ++s) {
        slots[s].event = row[s];
        slots[s].count = 0.0;
    }
}

void
PmcMultiplexer::afterTick() PPEP_NONBLOCKING
{
    // Harvest what the hardware just counted for the active group, in
    // slot order. The row (not the slot's current select) names the
    // event, exactly as the group was programmed.
    const std::size_t width = bank_.slots_.size();
    const int *row = group_rows_.data() + current_group_ * width;
    const PmcBank::Slot *slots = bank_.slots_.data();
    for (std::size_t s = 0; s < width; ++s)
        if (row[s] != PmcBank::kDisabled)
            accum_[static_cast<std::size_t>(row[s])] += slots[s].count;
    ++group_ticks_[current_group_];
    ++total_ticks_;
    current_group_ = (current_group_ + 1) % n_groups_;
    programCurrentGroup();
}

EventVector
PmcMultiplexer::readAndReset() PPEP_NONBLOCKING
{
    // Walk the group rows in event-list order (group-major, slot-minor).
    EventVector out{};
    const std::size_t width = bank_.slots_.size();
    for (std::size_t g = 0; g < n_groups_; ++g) {
        if (group_ticks_[g] == 0)
            continue;
        const int *row = group_rows_.data() + g * width;
        for (std::size_t s = 0; s < width; ++s) {
            if (row[s] == PmcBank::kDisabled)
                continue;
            const auto e = static_cast<std::size_t>(row[s]);
            out[e] = accum_[e] * static_cast<double>(total_ticks_) /
                     static_cast<double>(group_ticks_[g]);
        }
    }
    accum_ = EventVector{};
    // rt-escape: assign() at the fixed group count reuses capacity
    // sized in the constructor; never reallocates.
    PPEP_RT_WARMUP_BEGIN
    group_ticks_.assign(n_groups_, 0);
    PPEP_RT_WARMUP_END
    total_ticks_ = 0;
    return out;
}

} // namespace ppep::sim
