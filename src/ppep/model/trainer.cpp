#include "ppep/model/trainer.hpp"

#include <algorithm>
#include <cmath>
#include <functional>

#include "ppep/math/polynomial.hpp"
#include "ppep/sim/chip.hpp"
#include "ppep/trace/collector.hpp"
#include "ppep/util/logging.hpp"
#include "ppep/workloads/microbench.hpp"

namespace ppep::model {

Trainer::Trainer(sim::ChipConfig cfg, std::uint64_t seed)
    : cfg_(std::move(cfg)), seed_(seed)
{
}

sim::Chip
Trainer::makeChip(std::uint64_t stream) const
{
    return sim::Chip(cfg_, seed_ * 0x100000001b3ULL + stream);
}

CoolingTrace
Trainer::collectCoolingTrace(std::size_t vf_index,
                             std::size_t heat_intervals,
                             std::size_t cool_intervals) const
{
    sim::Chip chip = makeChip(0x1000 + vf_index);
    chip.setAllVf(vf_index);
    // PG stays disabled: the idle model describes the active-idle chip.

    CoolingTrace out;
    trace::Collector col(chip);

    // Heat: heavy work on every core (the paper heats at full tilt, then
    // switches to the VF state under study to cool).
    for (std::size_t c = 0; c < cfg_.coreCount(); ++c)
        chip.setJob(c, workloads::makeHeater());
    for (std::size_t i = 0; i < heat_intervals; ++i) {
        const auto rec = col.collectInterval();
        out.power_curve_w.push_back(rec.sensor_power_w);
        out.temp_curve_k.push_back(rec.diode_temp_k);
    }

    // Cool: stop all work, record (V, T, P) while temperature decays.
    for (std::size_t c = 0; c < cfg_.coreCount(); ++c)
        chip.clearJob(c);
    out.cool_start = out.power_curve_w.size();
    const double voltage = cfg_.vf_table.state(vf_index).voltage;
    for (std::size_t i = 0; i < cool_intervals; ++i) {
        const auto rec = col.collectInterval();
        out.power_curve_w.push_back(rec.sensor_power_w);
        out.temp_curve_k.push_back(rec.diode_temp_k);
        out.idle_samples.push_back(
            {voltage, rec.diode_temp_k, rec.sensor_power_w});
    }
    return out;
}

IdlePowerModel
Trainer::trainIdle() const
{
    std::vector<IdleSample> samples;
    for (std::size_t vf = 0; vf < cfg_.vf_table.size(); ++vf) {
        const CoolingTrace trace = collectCoolingTrace(vf);
        samples.insert(samples.end(), trace.idle_samples.begin(),
                       trace.idle_samples.end());
    }
    return IdlePowerModel::train(samples);
}

double
Trainer::estimateAlpha(const IdlePowerModel &idle) const
{
    std::vector<double> log_v, log_e;
    for (std::size_t vf = 0; vf < cfg_.vf_table.size(); ++vf) {
        sim::Chip chip = makeChip(0x2000 + vf);
        chip.setAllVf(vf);
        chip.setTemperatureK(cfg_.thermal.ambient_k + 18.0);
        for (std::size_t c = 0; c < cfg_.coreCount(); ++c)
            chip.setJob(c, workloads::makeHeater());

        trace::Collector col(chip);
        col.collect(25); // settle rates and temperature drift
        const auto recs = col.collect(20);

        double power = 0.0, temp = 0.0, uops = 0.0;
        for (const auto &rec : recs) {
            power += rec.sensor_power_w;
            temp += rec.diode_temp_k;
            uops += rec.pmcTotal(sim::Event::RetiredUop) /
                    rec.duration_s;
        }
        const double n = static_cast<double>(recs.size());
        power /= n;
        temp /= n;
        uops /= n;

        const double voltage = cfg_.vf_table.state(vf).voltage;
        const double dyn = power - idle.predict(voltage, temp);
        PPEP_ASSERT(dyn > 0.0 && uops > 0.0,
                    "alpha calibration found no dynamic power at VF ", vf);
        log_v.push_back(std::log(voltage));
        log_e.push_back(std::log(dyn / uops));
    }
    const auto line = math::Polynomial::fit(log_v, log_e, 1);
    const double alpha = line.coefficients()[1];
    PPEP_ASSERT(alpha > 0.5 && alpha < 5.0,
                "implausible alpha estimate ", alpha);
    return alpha;
}

std::vector<PgSweepMeasurement>
Trainer::collectPgSweeps() const
{
    PPEP_ASSERT(cfg_.pg_supported, "chip has no power gating");
    std::vector<PgSweepMeasurement> sweeps;
    for (std::size_t vf = 0; vf < cfg_.vf_table.size(); ++vf) {
        PgSweepMeasurement m;
        m.vf_index = vf;
        for (const bool pg : {false, true}) {
            for (std::size_t k = 0; k <= cfg_.n_cus; ++k) {
                sim::Chip chip =
                    makeChip(0x3000 + vf * 64 + k * 2 + (pg ? 1 : 0));
                chip.setAllVf(vf);
                chip.setPowerGatingEnabled(pg);
                // Keep thermal context comparable across the sweep: the
                // paper measures back-to-back on a warm part.
                chip.setTemperatureK(cfg_.thermal.ambient_k + 16.0);
                // k busy CUs, one bench_A instance on each CU's core 0.
                for (std::size_t cu = 0; cu < k; ++cu)
                    chip.setJob(cu * cfg_.cores_per_cu,
                                workloads::makeBenchA());
                trace::Collector col(chip);
                col.collect(5); // settle
                const auto recs = col.collect(10);
                double power = 0.0;
                for (const auto &rec : recs)
                    power += rec.sensor_power_w;
                power /= static_cast<double>(recs.size());
                (pg ? m.power_pg_on : m.power_pg_off).push_back(power);
            }
        }
        sweeps.push_back(std::move(m));
    }
    return sweeps;
}

PgIdleModel
Trainer::trainPg() const
{
    return PgIdleModel::fromSweeps(collectPgSweeps(), cfg_.n_cus);
}

ComboTrace
Trainer::collectCombo(const workloads::Combination &combo,
                      std::size_t vf_index,
                      std::size_t max_intervals) const
{
    sim::Chip chip = makeChip(
        0x4000 + std::hash<std::string>{}(combo.name) * 8 + vf_index);
    chip.setAllVf(vf_index);
    // Benchmarks start on a part that has been running the harness:
    // moderately warm, then free-running thermals.
    chip.setTemperatureK(cfg_.thermal.ambient_k + 12.0);
    workloads::launch(chip, combo, /*looping=*/false);

    ComboTrace out;
    out.combo = &combo;
    out.vf_index = vf_index;
    trace::Collector col(chip);
    auto recs = col.collectUntilFinished(max_intervals);
    // Drop fully idle tails (the last interval can be all-idle when the
    // final job ends exactly on an interval boundary).
    while (!recs.empty() && recs.back().busy_cores == 0)
        recs.pop_back();
    PPEP_ASSERT(!recs.empty(), "combo '", combo.name,
                "' produced no busy intervals");
    out.recs = std::move(recs);
    return out;
}

std::vector<ComboTrace>
Trainer::collectDataset(
    const std::vector<const workloads::Combination *> &combos,
    const std::vector<std::size_t> &vf_indices,
    std::size_t max_intervals) const
{
    std::vector<ComboTrace> out;
    out.reserve(combos.size() * vf_indices.size());
    for (const auto *combo : combos)
        for (std::size_t vf : vf_indices)
            out.push_back(collectCombo(*combo, vf, max_intervals));
    return out;
}

DynamicPowerModel
Trainer::trainDynamic(const IdlePowerModel &idle, double alpha,
                      const std::vector<const ComboTrace *> &traces) const
{
    const std::size_t top = cfg_.vf_table.top();
    const double v_top = cfg_.vf_table.state(top).voltage;

    std::vector<DynTrainingRow> rows;
    for (const auto *trace : traces) {
        if (trace->vf_index != top)
            continue;
        for (const auto &rec : trace->recs) {
            if (rec.busy_cores == 0)
                continue;
            DynTrainingRow row;
            row.rates_per_s = powerEventRates(rec.pmc, rec.duration_s);
            row.dynamic_power_w =
                rec.sensor_power_w -
                idle.predict(v_top, rec.diode_temp_k);
            rows.push_back(row);
        }
    }
    PPEP_ASSERT(!rows.empty(), "no top-VF training rows in dataset");
    return DynamicPowerModel::train(rows, v_top, alpha);
}

GreenGovernorsModel
Trainer::trainGg(const std::vector<const ComboTrace *> &traces) const
{
    std::vector<GgTrainingRow> rows;
    for (const auto *trace : traces) {
        const double v =
            cfg_.vf_table.state(trace->vf_index).voltage;
        for (const auto &rec : trace->recs) {
            if (rec.busy_cores == 0)
                continue;
            GgTrainingRow row;
            row.voltage = v;
            row.cycle_rate =
                rec.pmcTotal(sim::Event::ClocksNotHalted) /
                rec.duration_s;
            row.inst_rate = rec.pmcTotal(sim::Event::RetiredInst) /
                            rec.duration_s;
            row.power_w = rec.sensor_power_w;
            rows.push_back(row);
        }
    }
    return GreenGovernorsModel::train(rows);
}

TrainedModels
Trainer::trainAll(
    const std::vector<const workloads::Combination *> &combos,
    const std::vector<ComboTrace> *dataset) const
{
    TrainedModels out;
    out.idle = trainIdle();
    out.alpha = estimateAlpha(out.idle);
    if (cfg_.pg_supported)
        out.pg = trainPg();

    // Assemble the trace set: reuse matching dataset entries, collect
    // whatever is missing (top VF for Eq. 3; all VF states for GG).
    // Reserve up front so pointers into `collected` stay valid.
    std::vector<ComboTrace> collected;
    collected.reserve(combos.size() * cfg_.vf_table.size());
    std::vector<const ComboTrace *> selected;
    for (const auto *combo : combos) {
        // A set shared across platforms may hold combinations with more
        // threads than this chip has cores; they cannot launch here.
        if (combo->instances.size() > cfg_.coreCount())
            continue;
        for (std::size_t vf = 0; vf < cfg_.vf_table.size(); ++vf) {
            const ComboTrace *found = nullptr;
            if (dataset) {
                for (const auto &t : *dataset) {
                    if (t.combo == combo && t.vf_index == vf) {
                        found = &t;
                        break;
                    }
                }
            }
            if (!found) {
                collected.push_back(collectCombo(*combo, vf));
                found = &collected.back();
            }
            selected.push_back(found);
        }
    }

    out.dynamic = trainDynamic(out.idle, out.alpha, selected);
    out.gg = trainGg(selected);
    out.chip = ChipPowerModel(out.idle, out.dynamic, cfg_.vf_table);
    return out;
}

} // namespace ppep::model
