// lint-as: sim/hw_power_model.cpp
// Fixture: a thread_local memo in a HOT_FILES entry outlives the chip
// that filled it and leaks into the next session on the same worker;
// must trip `hot-state`.
#include <cmath>

namespace ppep::sim {

double
dynScale(double voltage)
{
    thread_local double last_v = 0.0;
    thread_local double last_scale = 0.0;
    if (voltage != last_v) {
        last_v = voltage;
        last_scale = std::pow(voltage / 1.32, 2.3);
    }
    return last_scale;
}

} // namespace ppep::sim
