#include "ppep/governor/governor.hpp"

#include <algorithm>
#include <chrono>

#include "ppep/util/logging.hpp"

namespace ppep::governor {

CapSchedule::CapSchedule(double cap_w) : points_{{0, cap_w}}
{
    PPEP_ASSERT(cap_w > 0.0, "cap must be positive");
}

CapSchedule::CapSchedule(
    std::vector<std::pair<std::size_t, double>> points)
    : points_(std::move(points))
{
    PPEP_ASSERT(!points_.empty() && points_.front().first == 0,
                "schedule must start at interval 0");
    for (std::size_t i = 1; i < points_.size(); ++i) {
        PPEP_ASSERT(points_[i].first > points_[i - 1].first,
                    "schedule points must be strictly increasing");
    }
}

double
CapSchedule::capAt(std::size_t index) const PPEP_NONBLOCKING
{
    double cap = points_.front().second;
    for (const auto &[start, value] : points_) {
        if (start > index)
            break;
        cap = value;
    }
    return cap;
}

CapSchedule
CapSchedule::unlimited()
{
    return CapSchedule(std::numeric_limits<double>::max());
}

GovernorLoop::GovernorLoop(sim::Chip &chip, Governor &policy)
    : chip_(chip), policy_(policy)
{
}

void
GovernorLoop::cycleBegin(std::size_t index, const CapSchedule &schedule,
                         GovernorStep &step) PPEP_NONBLOCKING
{
    step.cap_w = std::min(schedule.capAt(index), cap_limit_);
    // rt-escape: warm-up growth of the reused step's VF scratch; no-op
    // once sized to n_cus (test_zero_alloc).
    PPEP_RT_WARMUP_BEGIN
    step.cu_vf.resize(chip_.config().n_cus);
    PPEP_RT_WARMUP_END
    for (std::size_t cu = 0; cu < step.cu_vf.size(); ++cu)
        step.cu_vf[cu] = chip_.cuVf(cu);
}

void
GovernorLoop::cycleDecide(std::size_t index, const CapSchedule &schedule,
                          GovernorStep &step,
                          std::vector<std::size_t> &next_vf,
                          double &latency_s) PPEP_NONBLOCKING
{
    using clock = std::chrono::steady_clock;
    // Decide with the *next* interval's cap: the policy reacts to a
    // cap change in the very next decision, just like the paper's
    // Fig. 7 experiment.
    const double next_cap = std::min(schedule.capAt(index + 1), cap_limit_);
    // rt-escape: steady_clock::now() is an opaque library call but a
    // non-blocking vDSO clock read; RTSan keeps checking it.
    PPEP_RT_OPAQUE_BEGIN
    const auto t0 = clock::now();
    PPEP_RT_OPAQUE_END
    policy_.decideInto(step.rec, next_cap, next_vf);
    PPEP_ASSERT(next_vf.size() == chip_.config().n_cus,
                "policy returned wrong CU count");
    for (std::size_t cu = 0; cu < next_vf.size(); ++cu)
        chip_.setCuVf(cu, next_vf[cu]);
    if (const auto nb = policy_.decideNb())
        chip_.setNbVf(*nb);
    // rt-escape: second opaque clock read, same contract as above.
    PPEP_RT_OPAQUE_BEGIN
    latency_s =
        std::chrono::duration<double>(clock::now() - t0).count();
    PPEP_RT_OPAQUE_END
}

void
GovernorLoop::cycle(std::size_t index, const CapSchedule &schedule,
                    trace::IntervalSource &source, GovernorStep &step,
                    std::vector<std::size_t> &next_vf,
                    double &latency_s) PPEP_NONBLOCKING
{
    cycleBegin(index, schedule, step);
    source.collectIntervalInto(step.rec);
    cycleDecide(index, schedule, step, next_vf, latency_s);
}

trace::Collector &
GovernorLoop::source()
{
    if (!own_collector_)
        own_collector_.emplace(chip_);
    return *own_collector_;
}

std::vector<GovernorStep>
GovernorLoop::run(std::size_t intervals, const CapSchedule &schedule,
                  const StepObserver &observer)
{
    trace::IntervalSource &src = source();
    std::vector<GovernorStep> out;
    out.reserve(intervals);
    std::vector<std::size_t> next_vf;
    for (std::size_t i = 0; i < intervals; ++i) {
        GovernorStep step;
        double latency_s = 0.0;
        cycle(i, schedule, src, step, next_vf, latency_s);
        out.push_back(std::move(step));
        if (observer)
            observer(out.back(), latency_s);
    }
    return out;
}

std::size_t
GovernorLoop::drive(std::size_t intervals, const CapSchedule &schedule,
                    const StepObserver &observer)
{
    trace::IntervalSource &src = source();
    for (std::size_t i = 0; i < intervals; ++i) {
        double latency_s = 0.0;
        cycle(i, schedule, src, scratch_step_, scratch_vf_, latency_s);
        if (observer)
            observer(scratch_step_, latency_s);
    }
    return intervals;
}

double
capAdherence(const std::vector<GovernorStep> &steps)
{
    if (steps.empty())
        return 0.0;
    std::size_t ok = 0;
    for (const auto &s : steps) {
        // 2% grace band: sensor noise alone can cross an exact cap.
        if (s.rec.sensor_power_w <= s.cap_w * 1.02)
            ++ok;
    }
    return static_cast<double>(ok) / static_cast<double>(steps.size());
}

double
meanSettleIntervals(const std::vector<GovernorStep> &steps)
{
    double total = 0.0;
    std::size_t events = 0;
    for (std::size_t i = 1; i < steps.size(); ++i) {
        const bool cap_dropped = steps[i].cap_w < steps[i - 1].cap_w;
        if (!cap_dropped)
            continue;
        // Count intervals until measured power first falls under cap.
        std::size_t taken = 0;
        for (std::size_t j = i; j < steps.size(); ++j) {
            ++taken;
            if (steps[j].rec.sensor_power_w <= steps[j].cap_w * 1.02)
                break;
        }
        total += static_cast<double>(taken);
        ++events;
    }
    return events ? total / static_cast<double>(events) : 0.0;
}

} // namespace ppep::governor
