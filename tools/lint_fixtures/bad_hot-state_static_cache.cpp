// lint-as: sim/chip.cpp
// Fixture: a non-const function-local static in a HOT_FILES entry is a
// cache shared by every chip a worker thread steps; must trip
// `hot-state`.
#include <cstdint>

namespace ppep::sim {

double
activityFactor(std::uint64_t key)
{
    static std::uint64_t last_key = 0;
    static double last_value = 1.0;
    if (key != last_key) {
        last_key = key;
        last_value = 1.0 + static_cast<double>(key % 7) * 0.01;
    }
    return last_value;
}

} // namespace ppep::sim
