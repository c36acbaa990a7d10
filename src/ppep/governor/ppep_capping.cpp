#include "ppep/governor/ppep_capping.hpp"

#include <cmath>

#include "ppep/model/event_predictor.hpp"
#include "ppep/util/logging.hpp"

namespace ppep::governor {

PpepCappingGovernor::PpepCappingGovernor(const sim::ChipConfig &cfg,
                                         const model::Ppep &ppep,
                                         double guard_band)
    : cfg_(cfg), ppep_(ppep), guard_band_(guard_band)
{
    PPEP_ASSERT(ppep_.pgModel().trained(),
                "PPEP capping needs the PG idle decomposition");
    // Rail voltage scale factors depend only on the VF table, not on the
    // interval — compute each (v/v_train)^alpha once at construction, not
    // once per assignment per core (the search visits up to n_vf^n_cus
    // assignments every decision).
    const auto &dyn_model = ppep_.powerModel().dynamicModel();
    const std::size_t n_vf = cfg_.vf_table.size();
    vscale_by_vf_.resize(n_vf);
    for (std::size_t vf = 0; vf < n_vf; ++vf)
        vscale_by_vf_[vf] =
            dyn_model.voltageScale(cfg_.vf_table.state(vf).voltage);
}

std::vector<std::size_t>
PpepCappingGovernor::decide(const trace::IntervalRecord &rec,
                            double cap_w)
{
    std::vector<std::size_t> out;
    decideInto(rec, cap_w, out);
    return out;
}

void
PpepCappingGovernor::decideInto(const trace::IntervalRecord &rec,
                                double cap_w,
                                std::vector<std::size_t> &out)
    PPEP_NONBLOCKING
{
    const std::size_t n_vf = cfg_.vf_table.size();
    const std::size_t n_cores = cfg_.coreCount();
    const auto &dyn_model = ppep_.powerModel().dynamicModel();
    const double v_train = dyn_model.trainingVoltage();

    // Precompute, per core and per VF: predicted ips, the core-event
    // dynamic power at the *training* voltage (so any rail voltage is a
    // cheap (v/v_train)^alpha rescale), and the NB-proxy part (never
    // voltage scaled). The frequency-independent observation (Eq. 1
    // inputs, Obs. 2 gap, busy fraction) is extracted once per core and
    // shared across the VF sweep. Tables are flat [c * n_vf + vf] in
    // member scratch so steady-state decisions never touch the heap.
    // rt-escape: warm-up growth of the member scratch tables and the
    // caller-owned decision vector; fixed sizes after the first
    // decision.
    PPEP_RT_WARMUP_BEGIN
    ips_.assign(n_cores * n_vf, 0.0);
    core_base_.assign(n_cores * n_vf, 0.0);
    nb_part_.assign(n_cores * n_vf, 0.0);
    busy_per_cu_.assign(cfg_.n_cus, 0);
    busy_cus_.assign(cfg_.n_cus, 0);
    assign_.assign(cfg_.n_cus, 0);
    priced_.assign(cfg_.n_cus, 0);
    out.assign(cfg_.n_cus, 0);
    PPEP_RT_WARMUP_END
    for (std::size_t c = 0; c < n_cores; ++c) {
        const std::size_t cu = c / cfg_.cores_per_cu;
        const double f_now =
            cfg_.vf_table.state(rec.cu_vf[cu]).freq_ghz;
        const auto obs = model::EventPredictor::observe(
            rec.pmc[c], rec.duration_s, f_now);
        bool busy = false;
        for (std::size_t vf = 0; vf < n_vf; ++vf) {
            const sim::VfState &target = cfg_.vf_table.state(vf);
            const auto pred =
                model::EventPredictor::predictAt(obs, target.freq_ghz);
            ips_[c * n_vf + vf] = pred.rates_per_s[sim::eventIndex(
                sim::Event::RetiredInst)];
            std::array<double, sim::kNumPowerEvents> rates{};
            for (std::size_t i = 0; i < sim::kNumPowerEvents; ++i)
                rates[i] = pred.rates_per_s[i];
            dyn_model.split(rates, v_train, core_base_[c * n_vf + vf],
                            nb_part_[c * n_vf + vf]);
            busy = busy || pred.ips > 0.0;
        }
        if (busy)
            ++busy_per_cu_[cu];
    }

    // Pin idle CUs at VF 0. A core that is not busy predicts all-zero
    // rates at every VF (predictAt's idle and invalid-CPI paths), and
    // the dynamic-power split is linear with no intercept, so its ips
    // and power terms are zero at any VF; the rail and idle pricing read
    // busy CUs only. Assignments that differ only in idle CUs' digits
    // therefore predict the same IPS and power, the all-VF-0 variant is
    // visited first, and a later one could win only with strictly more
    // IPS: enumerating the busy CUs' digits alone is exact. (Non-finite
    // model weights can turn a zero term into NaN, but then every
    // assignment's power is NaN and both searches fall back alike.)
    std::size_t n_busy = 0;
    for (std::size_t cu = 0; cu < cfg_.n_cus; ++cu)
        if (busy_per_cu_[cu] > 0)
            busy_cus_[n_busy++] = cu;

    // Enumerate the busy CUs' assignments (n_vf^n_busy; at most 625 on
    // the FX-8320) in odometer order and keep the feasible one with the
    // highest predicted throughput. Fall back to all-lowest if nothing
    // fits.
    //
    // On shared-rail hardware every CU runs at the highest requested
    // voltage, so the governor must price assignments that way or it
    // will blow straight through the cap (ablation A7 quantifies the
    // damage of ignoring this).
    const double budget = cap_w * (1.0 - guard_band_);
    double best_ips = -1.0;
    double best_power = std::numeric_limits<double>::quiet_NaN();
    double all_lowest_power = std::numeric_limits<double>::quiet_NaN();
    bool first_assignment = true;
    const auto &pg = ppep_.pgModel();
    while (true) {
        // Rail resolution: per-CU planes use each CU's own voltage;
        // a shared rail pins everyone to the highest requested state.
        std::size_t max_idx = 0;
        if (!cfg_.per_cu_voltage) {
            for (std::size_t cu = 0; cu < cfg_.n_cus; ++cu)
                if (busy_per_cu_[cu] > 0)
                    max_idx = std::max(max_idx, assign_[cu]);
        }

        double total_dyn = 0.0;
        double total_ips = 0.0;
        for (std::size_t c = 0; c < n_cores; ++c) {
            const std::size_t cu = c / cfg_.cores_per_cu;
            const std::size_t vf = assign_[cu];
            const double vscale =
                vscale_by_vf_[cfg_.per_cu_voltage ? vf : max_idx];
            total_dyn += core_base_[c * n_vf + vf] * vscale +
                         nb_part_[c * n_vf + vf];
            total_ips += ips_[c * n_vf + vf];
        }

        // Idle pricing: on a shared rail, a slow CU still leaks at the
        // rail voltage — approximate with the voltage-dominant state's
        // component (conservative: also carries its clock power).
        double idle = 0.0;
        if (cfg_.per_cu_voltage) {
            idle = pg.chipIdleMixed(assign_, busy_per_cu_, true);
        } else {
            for (std::size_t cu = 0; cu < cfg_.n_cus; ++cu)
                priced_[cu] = std::max(assign_[cu], max_idx);
            idle = pg.chipIdleMixed(priced_, busy_per_cu_, true);
        }

        const double power = idle + total_dyn;
        if (first_assignment) {
            // The search starts at the all-lowest assignment — remember
            // its power as the prediction behind the infeasible-cap
            // fallback.
            all_lowest_power = power;
            first_assignment = false;
        }
        if (power <= budget && total_ips > best_ips) {
            best_ips = total_ips;
            for (std::size_t cu = 0; cu < cfg_.n_cus; ++cu)
                out[cu] = assign_[cu];
            best_power = power;
        }

        // Next assignment: odometer increment over the busy digits.
        std::size_t k = 0;
        for (; k < n_busy; ++k) {
            std::size_t &digit = assign_[busy_cus_[k]];
            if (++digit < n_vf)
                break;
            digit = 0;
        }
        if (k == n_busy)
            break;
    }
    last_predicted_power_w_ =
        best_ips >= 0.0 ? best_power : all_lowest_power;
}

} // namespace ppep::governor
