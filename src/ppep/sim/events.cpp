#include "ppep/sim/events.hpp"

#include "ppep/util/logging.hpp"

namespace ppep::sim {

namespace {

struct EventInfo
{
    std::string_view label;
    std::string_view code;
    std::string_view name;
    bool counts_cycles;
};

constexpr std::array<EventInfo, kNumEvents> kEventInfo{{
    {"E1", "PMCx0c1", "Retired UOP", false},
    {"E2", "PMCx000", "FPU Pipe Assignment", false},
    {"E3", "PMCx080", "Instruction Cache Fetches", false},
    {"E4", "PMCx040", "Data Cache Accesses", false},
    {"E5", "PMCx07d", "Request To L2 Cache", false},
    {"E6", "PMCx0c2", "Retired Branch Instructions", false},
    {"E7", "PMCx0c3", "Retired Mispredicted Branch Instructions", false},
    {"E8", "PMCx07e", "L2 Cache Misses", false},
    {"E9", "PMCx0d1", "Dispatch Stalls", true},
    {"E10", "PMCx076", "CPU Clocks not Halted", true},
    {"E11", "PMCx0c0", "Retired Instructions", false},
    {"E12", "PMCx069", "MAB Wait Cycles", true},
}};

const EventInfo &
info(Event e)
{
    const auto idx = eventIndex(e);
    PPEP_ASSERT(idx < kNumEvents, "bad event index ", idx);
    return kEventInfo[idx];
}

} // namespace

std::string_view
eventName(Event e)
{
    return info(e).name;
}

std::string_view
eventCode(Event e)
{
    return info(e).code;
}

std::string_view
eventLabel(Event e)
{
    return info(e).label;
}

bool
eventCountsCycles(Event e)
{
    return info(e).counts_cycles;
}

const std::array<Event, kNumEvents> &
allEvents()
{
    static const std::array<Event, kNumEvents> events = [] {
        std::array<Event, kNumEvents> out{};
        for (std::size_t i = 0; i < kNumEvents; ++i)
            out[i] = static_cast<Event>(i);
        return out;
    }();
    return events;
}

} // namespace ppep::sim
