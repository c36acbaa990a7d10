/**
 * @file
 * One governed run, end to end, behind a builder.
 *
 * A Session bundles what every governed experiment in this repo used to
 * assemble by hand: chip construction + seeding, job placement, model
 * acquisition (through the ModelStore cache), governor construction,
 * the cap schedule, and the measurement/decision/actuation loop — plus
 * telemetry fan-out to any number of TelemetrySinks.
 *
 *     auto session = runtime::Session::builder(sim::fx8320Config())
 *                        .seed(123)
 *                        .pg(true)
 *                        .onePerCu({"433.milc", "458.sjeng", "CG", "EP"})
 *                        .trainingSeed(42)
 *                        .store(runtime::ModelStore())
 *                        .governor(runtime::edpGovernor())
 *                        .sink(my_sink)
 *                        .build();
 *     auto steps = session.run(40);
 *
 * Every session owns exactly one interval loop, its LockstepDriver:
 * run(), drive(), replay and both fleet drives step through it, so the
 * interval index that positions the cap schedule is the same counter
 * that numbers the telemetry, across any number of calls. The driver
 * runs governor::GovernorLoop's split cycle (cycleBegin/cycleDecide)
 * and fans each finished interval out to the sinks, adding
 * per-decision wall-clock latency and the governor's own predictions
 * to the record.
 */

#ifndef PPEP_RUNTIME_SESSION_HPP
#define PPEP_RUNTIME_SESSION_HPP

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ppep/governor/degraded_mode.hpp"
#include "ppep/governor/governor.hpp"
#include "ppep/model/ppep.hpp"
#include "ppep/model/trainer.hpp"
#include "ppep/runtime/health.hpp"
#include "ppep/runtime/model_store.hpp"
#include "ppep/runtime/recalibrate.hpp"
#include "ppep/runtime/sampler.hpp"
#include "ppep/runtime/telemetry.hpp"
#include "ppep/runtime/tenant.hpp"
#include "ppep/sim/chip.hpp"
#include "ppep/sim/fault.hpp"
#include "ppep/trace/replay.hpp"
#include "ppep/workloads/suite.hpp"

namespace ppep::runtime {

/** What a GovernorFactory gets to work with. */
struct ModelContext
{
    const sim::ChipConfig &cfg;
    const model::TrainedModels &models;
    const model::Ppep &ppep;
    /** The seed the models were trained with (for protocols that need a
     *  Trainer, e.g. the thermal-network fit). */
    std::uint64_t training_seed;
};

/** Builds the session's policy once models are available. */
using GovernorFactory =
    std::function<std::unique_ptr<governor::Governor>(const ModelContext &)>;

/** EDP-optimal one-step DVFS (the daemon default). */
GovernorFactory edpGovernor();

/** Energy-optimal one-step DVFS. */
GovernorFactory energyGovernor();

/** PPEP one-step power capping (Sec. V-B). */
GovernorFactory cappingGovernor(double guard_band = 0.02);

/** A governed run: chip + jobs + models + policy + telemetry. */
class Session
{
    struct State;

  public:
    /** One pinned job. */
    struct JobSpec
    {
        std::size_t core = 0;
        std::string program;
        bool looping = true;
    };

    class Builder
    {
      public:
        explicit Builder(sim::ChipConfig cfg);

        /** Chip RNG seed (default 1). */
        Builder &seed(std::uint64_t s);

        /** Trainer seed for model acquisition (default 42). */
        Builder &trainingSeed(std::uint64_t s);

        /** Enable/disable power gating on the chip (default off). */
        Builder &pg(bool enabled);

        /** Pin explicit jobs to cores. */
        Builder &jobs(std::vector<JobSpec> specs);

        /**
         * Convenience: program i on the first core of CU i, looping —
         * the paper's multi-programmed placement.
         */
        Builder &onePerCu(const std::vector<std::string> &programs);

        /** Place one of the 152 benchmark combinations. */
        Builder &combo(const workloads::Combination &c,
                       bool looping = true);

        /**
         * Training set for model acquisition (default: all 49
         * single-program combinations).
         */
        Builder &trainingCombos(
            std::vector<const workloads::Combination *> combos);

        /** Acquire models through this cache (default: train fresh). */
        Builder &store(ModelStore s);

        /** Use already-trained models; skips the store and training. */
        Builder &models(model::TrainedModels m);

        /**
         * Share caller-owned models and an assembled predictor without
         * copying either — the fleet path: N sessions over one immutable
         * Ppep. Both objects must outlive the session; the session
         * treats them as strictly read-only, so any number of sessions
         * (on any threads) may share them.
         */
        Builder &sharedModels(const model::TrainedModels &m,
                              const model::Ppep &p);

        /** Policy built from the trained models (default: EDP). */
        Builder &governor(GovernorFactory factory);

        /**
         * Use a caller-owned policy instead; the Session then trains no
         * models unless a store or models were given explicitly.
         */
        Builder &governor(ppep::governor::Governor &external);

        /** Cap schedule (default: unlimited). */
        Builder &schedule(ppep::governor::CapSchedule s);

        /** Warm-up intervals to run (and discard) before run(). */
        Builder &warmup(std::size_t intervals);

        /** Attach a caller-owned telemetry sink (repeatable). */
        Builder &sink(TelemetrySink &s);

        /**
         * Split the chip between named tenants: their jobs are placed
         * on their own cores and every interval's power is attributed
         * per tenant (Eqs. 7-8 idle split) into the telemetry stream.
         * Requires trained models and a PG-capable platform; validated
         * at build().
         */
        Builder &tenants(std::vector<TenantSpec> specs);

        // --- hardened acquisition ------------------------------------

        /**
         * Install a hardware fault plan on the chip and switch the
         * run onto the hardened path: Sampler acquisition,
         * HealthMonitor accounting, and a degraded-mode wrapper
         * around the policy. An all-zero plan exercises the hardened
         * path against perfect hardware.
         */
        Builder &faults(const sim::FaultPlan &plan);

        /** Seed for the fault decision stream (default: derived from
         *  the chip seed, so runs stay reproducible). */
        Builder &faultSeed(std::uint64_t s);

        /** Hardened-acquisition tuning (implies the hardened path). */
        Builder &samplerPolicy(const SamplerPolicy &p);

        /** Demotion/re-promotion thresholds (implies hardened path). */
        Builder &healthPolicy(const HealthPolicy &p);

        /** Degraded-mode safe-policy tuning (implies hardened path). */
        Builder &safePolicy(const ppep::governor::SafePolicy &p);

        /**
         * Drive the session from a recorded interval stream instead of
         * the simulated chip: collectInterval reads mmap'd frames, the
         * governor decides and actuates live, and telemetry fans out
         * unchanged — zero simulation, zero per-interval allocation
         * once warm. The source must outlive the session, its stream's
         * fingerprint must match this session's chip config (checked
         * at ReplaySource construction), and the recorded caps must
         * match this session's schedule (checked per interval). Warm-up
         * is skipped: the recording already warmed the run it captured.
         * Replay runs through the session's driver like any other
         * session, so run(), drive() and the fleet drives all serve it.
         */
        Builder &replay(trace::ReplaySource &src);

        /**
         * Run a Recalibrator alongside the hardened loop (implies the
         * hardened path): when the divergence EWMA crosses the policy's
         * recalibrate threshold, the dynamic-power weights are refit on
         * a background thread and — if they beat the incumbent — hot-
         * swapped in without blocking the governed loop. Incompatible
         * with an external governor (the Recalibrator must be able to
         * rebuild the policy over the refit models). When the session
         * also has a store(), adopted generations are journalled to the
         * store's lineage log.
         */
        Builder &recalibration(const RecalibrationPolicy &p);

        /** Assemble the session (trains or loads models as needed). */
        Session build();

      private:
        sim::ChipConfig cfg_;
        std::uint64_t chip_seed_ = 1;
        std::uint64_t training_seed_ = 42;
        bool pg_ = false;
        std::vector<JobSpec> jobs_;
        const workloads::Combination *combo_ = nullptr;
        bool combo_looping_ = true;
        std::optional<std::vector<const workloads::Combination *>>
            training_combos_;
        std::optional<ModelStore> store_;
        std::optional<model::TrainedModels> models_;
        const model::TrainedModels *shared_models_ = nullptr;
        const model::Ppep *shared_ppep_ = nullptr;
        GovernorFactory factory_;
        ppep::governor::Governor *external_gov_ = nullptr;
        std::optional<ppep::governor::CapSchedule> schedule_;
        std::size_t warmup_ = 0;
        std::vector<TelemetrySink *> sinks_;
        std::vector<TenantSpec> tenants_;
        std::optional<sim::FaultPlan> plan_;
        std::optional<std::uint64_t> fault_seed_;
        SamplerPolicy sampler_policy_;
        HealthPolicy health_policy_;
        ppep::governor::SafePolicy safe_policy_;
        std::optional<RecalibrationPolicy> recal_policy_;
        bool hardened_ = false;
        trace::ReplaySource *replay_ = nullptr;
    };

    /**
     * The session's one interval loop, owned by the session and reached
     * through driver(). It splits one governed interval into a collect
     * phase and a decide phase so an external driver (runtime::Fleet's
     * arbitrated lockstep) can sit between them — an arbiter on a
     * barrier, or a sim::ChipBatch stepping many sessions' chips
     * tick-locked:
     *
     *     d.collectPhase();                 // measure the interval
     *     // barrier: arbiter reads exploration()/measuredPowerW()
     *     d.setCapLimitW(arbiter cap);      // install the allocation
     *     d.decidePhase();                  // decide, actuate, telemetry
     *
     * run() and drive() are these two phases in a loop with the cap
     * limit left at its default. collectPhase() itself splits further,
     * at the tick:
     *
     *     n = d.beginCollect();
     *     repeat n times { step d.chip() into tick; d.consumeTick(tick); }
     *     d.endCollect();
     *
     * is collectPhase() — the same TickedIntervalSource calls its fused
     * path is made of, with the chip stepped by the caller (any
     * stepper bit-identical to Chip::stepInto(), such as ChipBatch).
     * Works for simulated, hardened, and replayed sessions alike:
     * replay decodes the recorded frame in the collect phase, re-checks
     * the recorded cap against the schedule/limit pair, and asks for
     * zero ticks. The interval index runs on across every call.
     */
    class LockstepDriver
    {
      public:
        /** Built once by the session over its State, which a Session
         *  move leaves in place; reach it through Session::driver(). */
        explicit LockstepDriver(State &state);

        /** The session's chip (a replay session's is never stepped). */
        sim::Chip &chip();

        /** Open the next interval: stamp cap context and measure (or
         *  decode the replay frame) into the step. */
        void collectPhase();

        /** collectPhase() up to the first tick: stamp cap context and
         *  open the interval. Returns the number of ticks to step and
         *  consume (fault-jittered sessions may deviate from the
         *  nominal; 0 for replay, which decodes its frame here). */
        std::size_t beginCollect();

        /** Fold one tick of this session's chip into the interval. */
        void consumeTick(const sim::TickResult &tick) PPEP_NONBLOCKING;

        /** Close the collect phase after the last consumeTick(). */
        void endCollect() PPEP_NONBLOCKING;

        /** Close the interval: decide under the current cap limit,
         *  actuate, fan out telemetry, advance the index. */
        void decidePhase();

        /** Install the arbiter's watt allocation for the decisions
         *  that follow (effective cap = min(schedule, limit)). */
        void setCapLimitW(double cap_w) PPEP_NONBLOCKING;

        /** The governor's per-VF exploration from its latest decide;
         *  nullptr before the first decide or while degraded. */
        const std::vector<model::VfPrediction> *exploration() const
            PPEP_NONBLOCKING;

        /** Measured chip power of the interval just collected. */
        double measuredPowerW() const PPEP_NONBLOCKING;

        /** End of run: finish()/flush() the session's sinks. */
        void finish();

      private:
        friend class Session;

        State &state_;
        ppep::governor::GovernorLoop loop_;
        /** Null for replay sessions (frames come from the recording). */
        trace::TickedIntervalSource *source_ = nullptr;
        ppep::governor::GovernorStep step_;
        std::vector<std::size_t> next_vf_;
        /** Schedule position and telemetry index of the next interval. */
        std::size_t index_ = 0;
    };

    static Builder builder(sim::ChipConfig cfg);

    Session(Session &&) noexcept;
    Session &operator=(Session &&) noexcept;
    ~Session();

    /**
     * Run @p intervals governed intervals through the session's driver,
     * fanning each completed step out to the attached sinks (and
     * calling their finish() at the end) and returning a copy of every
     * step. Repeatable: the interval index — schedule position and
     * telemetry index alike — continues across calls.
     */
    std::vector<ppep::governor::GovernorStep> run(std::size_t intervals);

    /**
     * run() without retaining the step trace — the steady-state fleet
     * path. The same driver, warm-up, telemetry fan-out, sink
     * finish()/flush() and index continuity as run(); one reused step
     * means a governed interval performs zero heap allocations once
     * the scratch buffers are warm. Returns the number of intervals run.
     */
    std::size_t drive(std::size_t intervals);

    /**
     * The session's interval loop, for callers that sit between its
     * phases (the fleet's arbitrated lockstep). Runs the configured
     * warm-up on first use; calls interleave with run()/drive() on one
     * index.
     */
    LockstepDriver &driver();

    /** The simulated chip (for inspection or extra job placement). */
    sim::Chip &chip();
    const sim::ChipConfig &config() const;

    /** Whether this session holds trained models. */
    bool hasModels() const;

    /** Trained models; fatal() when the session trained none. */
    const model::TrainedModels &models() const;

    /** Assembled predictor; fatal() when the session trained none. */
    const model::Ppep &ppep() const;

    /** The active policy. */
    ppep::governor::Governor &policy();

    /** True when build() served the models from the store's cache. */
    bool modelsWereCached() const;

    /** True when this session runs the hardened acquisition path. */
    bool hardened() const;

    /** Hardened sampler; nullptr on plain sessions. */
    const Sampler *sampler() const;

    /** Health monitor; nullptr on plain sessions. */
    const HealthMonitor *healthMonitor() const;

    /** Degraded-mode wrapper; nullptr on plain sessions. */
    const ppep::governor::DegradedModeGovernor *degradedGovernor() const;

    /** Online recalibrator; nullptr when recalibration is off. */
    const Recalibrator *recalibrator() const;

    /** Tenant attributor; nullptr when the session has no tenants. */
    const TenantAttributor *tenantAttributor() const;

    /**
     * Errors from sinks that failed during the most recent run()
     * (satisfying "a full disk must not pass silently"); empty when
     * every sink recorded faithfully.
     */
    const std::vector<std::string> &sinkErrors() const;

  private:
    explicit Session(std::unique_ptr<State> state);

    std::unique_ptr<State> state_;
    friend class Builder;
};

} // namespace ppep::runtime

#endif // PPEP_RUNTIME_SESSION_HPP
