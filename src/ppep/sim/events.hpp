/**
 * @file
 * The twelve hardware performance events of paper Table I.
 *
 * E1-E9 feed the dynamic power model (Eq. 3); E10-E12 feed the CPI
 * performance model (Eq. 1). Event codes are the AMD family-15h PMC select
 * values the paper lists.
 */

#ifndef PPEP_SIM_EVENTS_HPP
#define PPEP_SIM_EVENTS_HPP

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace ppep::sim {

/** Event identifiers, in Table I order. */
enum class Event : std::size_t
{
    RetiredUop = 0,            ///< E1  PMCx0c1
    FpuPipeAssignment = 1,     ///< E2  PMCx000
    InstCacheFetch = 2,        ///< E3  PMCx080
    DataCacheAccess = 3,       ///< E4  PMCx040
    RequestToL2 = 4,           ///< E5  PMCx07d
    RetiredBranch = 5,         ///< E6  PMCx0c2
    RetiredMispBranch = 6,     ///< E7  PMCx0c3
    L2CacheMiss = 7,           ///< E8  PMCx07e
    DispatchStall = 8,         ///< E9  PMCx0d1 (stall *cycles*)
    ClocksNotHalted = 9,       ///< E10 PMCx076
    RetiredInst = 10,          ///< E11 PMCx0c0
    MabWaitCycles = 11,        ///< E12 PMCx069
};

/** Total number of modelled events. */
inline constexpr std::size_t kNumEvents = 12;

/** Events consumed by the dynamic power model (E1-E9). */
inline constexpr std::size_t kNumPowerEvents = 9;

/**
 * Core-private power events (E1-E7). Their per-instruction counts are
 * VF-invariant (Observation 1) and their power-model weights are scaled by
 * (Vn/V5)^alpha when the core changes VF state.
 */
inline constexpr std::size_t kNumCorePowerEvents = 7;

/** Fixed-size per-event count/rate vector. */
using EventVector = std::array<double, kNumEvents>;

/** Index helper. */
constexpr std::size_t
eventIndex(Event e)
{
    return static_cast<std::size_t>(e);
}

/** Table-I mnemonic for the event ("Retired UOP", ...). */
std::string_view eventName(Event e);

/** Table-I PMC select code ("PMCx0c1", ...). */
std::string_view eventCode(Event e);

/** Paper label ("E1".."E12"). */
std::string_view eventLabel(Event e);

/** True for events whose counts are cycle counts rather than occurrences. */
bool eventCountsCycles(Event e);

/** All events, in Table I order, for iteration. */
const std::array<Event, kNumEvents> &allEvents();

} // namespace ppep::sim

#endif // PPEP_SIM_EVENTS_HPP
