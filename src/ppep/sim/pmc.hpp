/**
 * @file
 * Per-core performance-monitor hardware and the software multiplexer.
 *
 * The hardware (PmcBank) is a set of programmable counter slots, six per
 * core on the AMD FX-8320: each slot is told which event to count and
 * accumulates that event's occurrences every tick. That is all the
 * silicon provides.
 *
 * PPEP needs twelve events (Table I), so the paper's daemon
 * time-multiplexes the slots *in software* — reprogramming the selects
 * periodically and extrapolating each event's accumulated count by
 * total-ticks / observed-ticks. PmcMultiplexer is that daemon-side
 * logic. Benchmarks whose phases flip at the multiplexing timescale
 * therefore show extrapolation error — the outlier mechanism the paper
 * reports for dedup/IS/DC.
 */

#ifndef PPEP_SIM_PMC_HPP
#define PPEP_SIM_PMC_HPP

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "ppep/sim/events.hpp"
#include "ppep/util/annotations.hpp"

namespace ppep::sim {

/**
 * Wraparound-safe delta between two raw reads of a free-running
 * @p width_bits counter: the true increment modulo 2^width, assuming at
 * most one wrap between the reads (the standard perf/msr-tools polling
 * contract — poll faster than the counter can wrap twice).
 * @pre 1 <= width_bits <= 63 and both reads fit the width.
 */
std::uint64_t wrapCounterDelta(std::uint64_t prev, std::uint64_t cur,
                               unsigned width_bits);

/** One core's programmable counter hardware. */
class PmcBank
{
  public:
    /** @param n_counters physical slots (6 on the FX-8320). */
    explicit PmcBank(std::size_t n_counters);

    /** Number of physical slots. */
    std::size_t counterCount() const PPEP_NONBLOCKING { return slots_.size(); }

    /**
     * Bound every slot at 2^bits (counts wrap on overflow, like the real
     * 48-bit PERF_CTRs). 0 (the default) leaves counters unbounded — the
     * seed behaviour, bit-identical to hardware that never overflows.
     */
    void setWrapBits(unsigned bits);

    /** Configured counter width; 0 = unbounded. */
    unsigned wrapBits() const { return wrap_bits_; }

    /** Largest representable count (2^bits - 1); unbounded when 0 bits. */
    double maxCount() const PPEP_NONBLOCKING;

    /** Number of wraparounds observe() has performed since construction. */
    std::size_t wrapEvents() const PPEP_NONBLOCKING { return wrap_events_; }

    /** Select the event a slot counts (nullopt disables the slot). */
    void program(std::size_t slot, std::optional<Event> event);

    /** The event a slot currently counts. */
    std::optional<Event> programmed(std::size_t slot) const;

    /** Raw accumulated count of a slot. */
    double read(std::size_t slot) const;

    /** Overwrite a slot's accumulated count (wrmsr to the CTR). */
    void write(std::size_t slot, double value) PPEP_NONBLOCKING;

    /**
     * Hardware tick: every enabled slot accumulates its selected
     * event's true count.
     */
    void observe(const EventVector &true_counts) PPEP_NONBLOCKING;

  private:
    /** The multiplexer reprograms and harvests the raw slots directly. */
    friend class PmcMultiplexer;

    /** No event selected: the slot is disabled. */
    static constexpr int kDisabled = -1;

    struct Slot
    {
        /** eventIndex() of the selected event, or kDisabled. */
        int event = kDisabled;
        double count = 0.0;
    };
    std::vector<Slot> slots_;
    unsigned wrap_bits_ = 0;
    double wrap_modulus_ = 0.0;
    std::size_t wrap_events_ = 0;
};

/**
 * The daemon-side time multiplexer: rotates a list of events through a
 * PmcBank's slots, one group per tick, and extrapolates on read.
 */
class PmcMultiplexer
{
  public:
    /**
     * @param bank    the hardware to drive (not owned).
     * @param events  events to cover, in read-out order.
     * @param stagger initial group offset so different cores need not
     *                rotate in lockstep.
     */
    PmcMultiplexer(PmcBank &bank, std::vector<Event> events,
                   std::size_t stagger = 0);

    /** Number of rotation groups (ceil(events / slots)). */
    std::size_t groupCount() const { return n_groups_; }

    /** Group an event belongs to; group order follows the event list. */
    std::size_t groupOf(Event e) const;

    /**
     * Program the bank for the current group. Call before the tick the
     * group should observe.
     */
    void programCurrentGroup() PPEP_NONBLOCKING;

    /**
     * Harvest the just-observed group's counts from the bank and rotate
     * to the next group. Call after every hardware tick.
     */
    void afterTick() PPEP_NONBLOCKING;

    /**
     * Extrapolated per-event counts for the ticks observed since the
     * last reset, then clear.
     *
     * Contract for partial coverage: an event whose group was scheduled
     * zero ticks in the window (harvest preempted, or the window shorter
     * than one full rotation) reads as exactly 0.0 — a defined sentinel,
     * never a division by its zero coverage time. Likewise a window with
     * zero observed ticks reads all-zero. Callers that must distinguish
     * "counted nothing" from "never scheduled" should check
     * ticksSinceReset() against groupCount() before reading.
     */
    EventVector readAndReset() PPEP_NONBLOCKING;

    /** Ticks observed since last reset. */
    std::size_t ticksSinceReset() const PPEP_NONBLOCKING { return total_ticks_; }

  private:
    PmcBank &bank_;
    std::vector<Event> events_;
    std::size_t n_groups_;
    /** Slot program of every group: counterCount() event indices per
     *  group, PmcBank::kDisabled where the event list runs out. */
    std::vector<int> group_rows_;
    std::size_t current_group_;
    std::size_t total_ticks_ = 0;
    EventVector accum_{};
    std::vector<std::size_t> group_ticks_;
};

} // namespace ppep::sim

#endif // PPEP_SIM_PMC_HPP
