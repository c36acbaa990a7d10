/**
 * @file
 * Fleet governing benchmark: three named fleet workloads driven through
 * the public runtime::Fleet API, with correctness checks, end-to-end
 * metrics (untraced run) and per-layer metrics (traced run).
 *
 *   fleet_bench --workload sim_pool|replay_csv|lockstep_mixed
 *               --seed N --seconds S --trace 0|1 [--sessions 64]
 *               [--intervals I] [--setup-reps 5]
 *               [--out-dir DIR] [--source-id ID]
 *
 * Workloads (64 sessions by default, 4 workers):
 *  - sim_pool: FX-8320 sessions, every other one power-gated, running
 *    the `ppep fleet` program mixes under the EDP governor in the
 *    free-running pool; digest + summary telemetry only. Simulation
 *    dominates the worker time.
 *  - replay_csv: sim_pool's fleet is recorded once from the seed (input
 *    generation, untimed); the timed phase replays the mmap'd file in
 *    repeated Fleet::run passes with synchronous per-session CSV
 *    telemetry. No simulation: explore, governor and telemetry dominate.
 *  - lockstep_mixed: 32 FX-8320 + 16 Phenom II + 16 NB-DVFS sessions in
 *    budget-arbitrated lockstep (single-pass BudgetArbiter, one
 *    mid-run budget drop), PPEP capping on the power-gating platforms,
 *    EDP on the Phenom, hardened acquisition under a light seeded fault
 *    plan. Governor and arbiter cost and barrier wait show here.
 *
 * Everything is derived from --seed: chip seeds, fault seeds, the
 * training seed and the replay recording. The last stdout line is one
 * JSON object {correct, attempted, failed, metrics}; a host descriptor
 * and the check list are printed on the lines before it.
 *
 * The traced run (--trace 1) never feeds end-to-end numbers. It
 *  1. re-runs the workload on the fleet with a timing decorator around
 *     every session's governor and an observer timestamp, checking that
 *     every telemetry digest equals the untraced run's;
 *  2. makes single-worker passes over the same sessions, calling the
 *     public per-layer functions (Chip::stepInto, Collector/Sampler
 *     interval protocol, ReplaySource, GovernorLoop::cycleDecide,
 *     Ppep::exploreInto, FleetArbiter::decide, the sinks' onInterval)
 *     one at a time with a span around each call. That pass rebuilds
 *     exactly what Session and Fleet do, and its digests must equal the
 *     fleet's too, so its layer times describe the fleet's work.
 * Spans stay in memory and are written to the output directory at the
 * end of the run.
 */

#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ppep/governor/degraded_mode.hpp"
#include "ppep/governor/governor.hpp"
#include "ppep/model/ppep.hpp"
#include "ppep/model/trainer.hpp"
#include "ppep/runtime/arbiter.hpp"
#include "ppep/runtime/fleet.hpp"
#include "ppep/runtime/health.hpp"
#include "ppep/runtime/model_store.hpp"
#include "ppep/runtime/sampler.hpp"
#include "ppep/runtime/session.hpp"
#include "ppep/runtime/telemetry.hpp"
#include "ppep/sim/chip.hpp"
#include "ppep/sim/chip_config.hpp"
#include "ppep/sim/fault.hpp"
#include "ppep/trace/collector.hpp"
#include "ppep/trace/replay.hpp"
#include "ppep/util/logging.hpp"
#include "ppep/util/thread_annotations.hpp"
#include "ppep/workloads/suite.hpp"

#ifndef FLEETBENCH_BUILD_TYPE
#define FLEETBENCH_BUILD_TYPE "unknown"
#endif
#ifndef FLEETBENCH_CXX_FLAGS
#define FLEETBENCH_CXX_FLAGS "unknown"
#endif
#ifndef FLEETBENCH_COMPILER
#define FLEETBENCH_COMPILER "unknown"
#endif

namespace {

namespace fs = std::filesystem;
namespace gov = ppep::governor;
namespace model = ppep::model;
namespace rt = ppep::runtime;
namespace sim = ppep::sim;
namespace trace = ppep::trace;

using Clock = std::chrono::steady_clock;

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- options ---------------------------------------------------------------

enum class Workload { SimPool, ReplayCsv, LockstepMixed };

/** Fleet workers of every workload; a host with fewer CPUs is not
 *  measured. */
constexpr std::size_t kWorkers = 4;

struct Options
{
    Workload workload = Workload::SimPool;
    std::string workload_name;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::size_t sessions = 64;
    /** Governed intervals per session per pass; 0 = the workload's. */
    std::size_t intervals = 0;
    std::size_t setup_reps = 5;
    std::string out_dir = ".bench_build/out";
    std::string source_id = "unknown";
};

constexpr const char *kUsage =
    "usage: fleet_bench --workload sim_pool|replay_csv|lockstep_mixed\n"
    "                   --seed N --seconds S --trace 0|1\n"
    "                   [--sessions N] [--intervals I]\n"
    "                   [--setup-reps R] [--out-dir DIR]"
    " [--source-id ID]\n";

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr, "fleet_bench: %s\n%s", why.c_str(), kUsage);
    std::exit(2);
}

std::uint64_t
parseUnsigned(const std::string &flag, const std::string &v)
{
    if (v.empty() || v.find_first_not_of("0123456789") != std::string::npos)
        usage(flag + " wants a non-negative integer, got '" + v + "'");
    return std::stoull(v);
}

Options
parse(int argc, char **argv)
{
    Options o;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage("missing value after " + arg);
        const std::string v = argv[++i];
        if (arg == "--workload") {
            o.workload_name = v;
            have_workload = true;
            if (v == "sim_pool")
                o.workload = Workload::SimPool;
            else if (v == "replay_csv")
                o.workload = Workload::ReplayCsv;
            else if (v == "lockstep_mixed")
                o.workload = Workload::LockstepMixed;
            else
                usage("unknown workload '" + v + "'");
        } else if (arg == "--seed") {
            o.seed = parseUnsigned(arg, v);
        } else if (arg == "--seconds") {
            o.seconds = std::stod(v);
            if (!(o.seconds > 0.0))
                usage("--seconds must be positive");
        } else if (arg == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace wants 0 or 1");
            o.trace = v == "1";
        } else if (arg == "--sessions") {
            o.sessions = parseUnsigned(arg, v);
        } else if (arg == "--intervals") {
            o.intervals = parseUnsigned(arg, v);
        } else if (arg == "--setup-reps") {
            o.setup_reps = parseUnsigned(arg, v);
        } else if (arg == "--out-dir") {
            o.out_dir = v;
        } else if (arg == "--source-id") {
            o.source_id = v;
        } else {
            usage("unknown flag " + arg);
        }
    }
    if (!have_workload)
        usage("--workload is required");
    if (o.sessions < kWorkers || o.setup_reps == 0)
        usage("need --sessions >= 4 and --setup-reps >= 1");
    // Replay intervals cost ~3 us, so a replay pass runs 1000 of them or
    // session assembly, not replay, would dominate it.
    if (o.intervals == 0)
        o.intervals = o.workload == Workload::ReplayCsv ? 1000 : 200;
    if (o.intervals < 4)
        usage("--intervals must be at least 4");
    return o;
}

// --- seeds -----------------------------------------------------------------

std::uint64_t
splitmix(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

/** Independent deterministic stream @p stream, element @p i, of @p seed. */
std::uint64_t
derive(std::uint64_t seed, std::uint64_t stream, std::uint64_t i)
{
    return splitmix(splitmix(seed ^ (stream * 0xD1B54A32D192ED03ULL)) + i);
}

enum : std::uint64_t { kTrainStream = 1, kChipStream = 2, kFaultStream = 3 };

// --- workload specs ---------------------------------------------------------

/** The program mixes `ppep fleet` cycles over its sessions. */
const std::vector<std::vector<std::string>> kMixes = {
    {"429.mcf", "458.sjeng"},
    {"416.gamess", "swaptions"},
    {"EP", "CG"},
    {"458.sjeng", "416.gamess"},
};

/** Light fault plan on lockstep_mixed: every hardened-acquisition path
 *  (retry, mux guard, sensor substitution, timing) runs, and no session
 *  spends long in degraded mode. */
constexpr const char *kLockstepFaults =
    "msr=0.004,mux=0.004,sensor_drop=0.004,jitter=0.004";

/** Nominal draw per session, watts (the mixed fleet's uncapped mean is
 *  about this): the budget starts at the fleet's nominal sum and drops
 *  to a share of it halfway through the run. */
constexpr double kNominalW = 64.0;
constexpr double kBudgetLowShare = 0.72;

/** One sim_pool-shaped session list (also the replay_csv recording). */
void
addPoolSessions(rt::FleetSpec &spec, const Options &o)
{
    spec.cfg = sim::fx8320Config();
    for (std::size_t i = 0; i < o.sessions; ++i) {
        rt::FleetSessionSpec ss;
        ss.name = "s";
        ss.name += std::to_string(i);
        ss.seed = derive(o.seed, kChipStream, i);
        ss.pg = (i % 2) == 0;
        ss.one_per_cu = kMixes[i % kMixes.size()];
        spec.sessions.push_back(std::move(ss));
    }
}

/** lockstep_mixed: laid out like `ppep fleet --mix fx:32,phenom:16,nbdvfs:16`. */
void
addMixedSessions(rt::FleetSpec &spec, const Options &o)
{
    struct Part
    {
        const char *alias;
        sim::ChipConfig cfg;
        std::size_t count;
    };
    const std::size_t n_fx = o.sessions / 2;
    const std::size_t n_phenom = o.sessions / 4;
    const std::vector<Part> parts = {
        {"fx", sim::fx8320Config(), n_fx},
        {"phenom", sim::phenomIIConfig(), n_phenom},
        {"nbdvfs", sim::fx8320NbDvfsConfig(),
         o.sessions - n_fx - n_phenom},
    };
    const sim::FaultPlan plan = sim::FaultPlan::parse(kLockstepFaults);
    spec.cfg = parts.front().cfg;
    std::size_t i = 0;
    for (const Part &part : parts) {
        for (std::size_t k = 0; k < part.count; ++k, ++i) {
            rt::FleetSessionSpec ss;
            ss.name = std::string(part.alias) + "-" + std::to_string(k);
            ss.seed = derive(o.seed, kChipStream, i);
            ss.pg = part.cfg.pg_supported && (i % 2) == 0;
            ss.one_per_cu = kMixes[i % kMixes.size()];
            ss.cfg = part.cfg;
            ss.governor = part.cfg.pg_supported ? rt::cappingGovernor()
                                                : rt::edpGovernor();
            ss.faults = plan;
            ss.fault_seed = derive(o.seed, kFaultStream, i);
            spec.sessions.push_back(std::move(ss));
        }
    }
    const double nominal =
        kNominalW * static_cast<double>(spec.sessions.size());
    rt::ArbiterSpec aspec;
    aspec.budget = gov::CapSchedule(
        {{0, nominal},
         {o.intervals / 2, kBudgetLowShare * nominal}});
    spec.arbiter = std::move(aspec);
}

rt::FleetSpec
makeSpec(const Options &o)
{
    rt::FleetSpec spec;
    spec.training_seed = derive(o.seed, kTrainStream, 0);
    spec.warmup = 2;
    spec.intervals = o.intervals;
    if (o.workload == Workload::LockstepMixed)
        addMixedSessions(spec, o);
    else
        addPoolSessions(spec, o);
    return spec;
}

rt::GovernorFactory
factoryOf(const rt::FleetSpec &spec, std::size_t i)
{
    const auto &ss = spec.sessions[i];
    if (ss.governor)
        return ss.governor;
    if (spec.default_governor)
        return spec.default_governor;
    return rt::edpGovernor();
}

const sim::ChipConfig &
cfgOf(const rt::FleetSpec &spec, std::size_t i)
{
    const auto &ss = spec.sessions[i];
    return ss.cfg ? *ss.cfg : spec.cfg;
}

// --- statistics ------------------------------------------------------------

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return std::numeric_limits<double>::quiet_NaN();
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double
mean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double s = 0.0;
    for (double x : v)
        s += x;
    return s / static_cast<double>(v.size());
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

std::size_t
onlineCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return static_cast<std::size_t>(CPU_COUNT(&set));
    return std::max(1u, std::thread::hardware_concurrency());
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out;
}

std::string
num(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

// --- results ---------------------------------------------------------------

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct Check
{
    std::string name;
    bool ok = true;
    std::string detail;
};

struct Report
{
    std::vector<Metric> metrics;
    std::vector<Check> checks;
    std::size_t attempted = 0;
    std::size_t failed = 0;

    void metric(const std::string &name, double value,
                const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }
    void check(const std::string &name, bool ok,
               const std::string &detail = {})
    {
        checks.push_back({name, ok, detail});
    }
    bool correct() const
    {
        if (failed != 0 || attempted == 0)
            return false;
        for (const auto &c : checks)
            if (!c.ok)
                return false;
        for (const auto &m : metrics)
            if (!std::isfinite(m.value))
                return false;
        return true;
    }
};

std::string
hostJson(const Options &o, std::size_t nproc)
{
    std::string s = "{";
    s += "\"nproc\": " + std::to_string(nproc);
    s += ", \"workers\": " + std::to_string(kWorkers);
    s += ", \"sessions\": " + std::to_string(o.sessions);
    s += ", \"intervals_per_pass\": " + std::to_string(o.intervals);
    s += ", \"compiler\": \"" + jsonEscape(FLEETBENCH_COMPILER) + "\"";
    s += ", \"compiler_version\": \"" + jsonEscape(__VERSION__) + "\"";
    s += ", \"build_type\": \"" + jsonEscape(FLEETBENCH_BUILD_TYPE) + "\"";
    s += ", \"cxx_flags\": \"" + jsonEscape(FLEETBENCH_CXX_FLAGS) + "\"";
    s += ", \"source\": \"" + jsonEscape(o.source_id) + "\"";
    s += "}";
    return s;
}

// --- timed fleet passes ------------------------------------------------------

/** CPU time a hypervisor has stolen from the benchmark's vCPUs so far,
 *  in clock ticks summed over CPUs (/proc/stat); 0 where unavailable. */
double
hostStealTicks()
{
    std::ifstream in("/proc/stat");
    std::string cpu;
    double field[8] = {};
    in >> cpu;
    for (double &f : field)
        in >> f;
    return in && cpu == "cpu" ? field[7] : 0.0;
}

/** Observer-side record of one lockstep pass: a timestamp per epoch and
 *  the Σ caps <= budget check on every installed allocation. */
struct EpochLog
{
    std::vector<std::int64_t> stamps;
    std::size_t cap_sum_failures = 0;

    void clear()
    {
        stamps.clear();
        cap_sum_failures = 0;
    }
};

void
installObserver(rt::FleetSpec &spec, EpochLog *log)
{
    if (!spec.arbiter)
        return;
    spec.arbiter->observer = [log](const rt::ArbiterIntervalView &v) {
        log->stamps.push_back(nowNs());
        double sum = 0.0;
        for (std::size_t i = 0; i < v.n_sessions; ++i)
            sum += v.caps[i];
        if (sum - v.next_budget_w > 1e-9 * std::max(1.0, v.next_budget_w))
            ++log->cap_sum_failures;
    };
}

/** What repeated Fleet::run passes measured. */
struct Passes
{
    std::size_t passes = 0;
    std::size_t intervals = 0;
    double wall_s = 0.0;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    /** Sessions that threw, ran short or lost a sink. */
    std::size_t incomplete = 0;
    /** Milliseconds per control epoch, in run order: the wall time
     *  between arbiter observer callbacks under lockstep; in the free
     *  pool, where sessions are not synchronised, one session's wall
     *  time per governed interval. */
    std::vector<double> epoch_ms;
    /** Per pass: session-intervals per second, wall seconds, and the p99
     *  of its epoch samples. */
    std::vector<double> pass_rate;
    std::vector<double> pass_wall_s;
    std::vector<double> pass_p99_ms;
    /** Host CPU time the hypervisor stole during the passes (ticks, all
     *  CPUs): printed beside the figures, never used to filter them. */
    double steal_ticks = 0.0;
    /** Per-session digests of the first pass. */
    std::vector<std::uint64_t> digests;
    std::vector<double> power_mae_w;
    /** Hardened-acquisition totals of the first pass. */
    std::size_t fault_events = 0;
    std::size_t degraded_intervals = 0;
    std::size_t digest_mismatches = 0;
    std::size_t cap_sum_failures = 0;
    std::size_t observer_count_errors = 0;
    /** CSV telemetry checked after every pass; passes with a file of
     *  the wrong row count. */
    bool csv_checked = false;
    std::size_t csv_bad_passes = 0;
    std::string csv_detail;
    std::vector<rt::ArbiterReport> arbiter;
    std::vector<std::string> errors;

    /** Median throughput over all passes. */
    double intervalsPerS() const { return quantile(pass_rate, 0.5); }
    /** Median over passes of each pass's epoch p99: a host stall that
     *  hits a few passes moves a few pass p99s, not the estimate, while a
     *  tail the program adds to every pass moves them all. */
    double epochP99() const { return quantile(pass_p99_ms, 0.5); }
};

/** CSV telemetry: one header plus one row per governed interval. */
bool
checkCsvRows(const std::string &dir, const rt::FleetSpec &spec,
             std::string &detail)
{
    std::size_t bad = 0;
    for (const auto &ss : spec.sessions) {
        std::ifstream in(fs::path(dir) / (ss.name + ".csv"));
        std::size_t lines = 0;
        std::string line;
        while (std::getline(in, line))
            ++lines;
        if (!in.eof() || lines != spec.intervals + 1) {
            if (bad++ < 4)
                detail += ss.name + " has " + std::to_string(lines) +
                          " lines; ";
        }
    }
    detail += std::to_string(bad) + " bad files of " +
              std::to_string(spec.sessions.size());
    return bad == 0;
}

/**
 * Run @p fleet on @p workers until @p seconds have elapsed (at least one
 * pass), appending to @p p. Every pass must complete
 * every session with the digests of @p expect (or of p's first pass
 * when empty). A lockstep fleet's observer writes into @p epochs.
 */
void
runPasses(Passes &p, rt::Fleet &fleet, std::size_t workers,
          double seconds, EpochLog &epochs,
          const std::vector<std::uint64_t> &expect)
{
    EpochLog *log = fleet.spec().arbiter ? &epochs : nullptr;
    const std::size_t first_pass = p.passes;
    const std::size_t n = fleet.spec().sessions.size();
    const std::size_t intervals = fleet.spec().intervals;
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    while (p.passes == first_pass || Clock::now() < deadline) {
        if (log) {
            log->clear();
            log->stamps.reserve(intervals + 1);
        }
        const double steal0 = hostStealTicks();
        const auto t0 = Clock::now();
        const rt::FleetResult res = fleet.run(workers);
        const double wall = secondsSince(t0);
        p.steal_ticks += hostStealTicks() - steal0;
        ++p.passes;
        p.wall_s += wall;
        p.pass_rate.push_back(static_cast<double>(res.total_intervals) /
                              wall);
        p.pass_wall_s.push_back(wall);
        p.intervals += res.total_intervals;
        p.attempted += n;

        std::vector<std::uint64_t> digests(n, 0);
        for (std::size_t i = 0; i < n; ++i) {
            const auto &s = res.sessions[i];
            digests[i] = s.telemetry_digest;
            const bool ok = s.completed && s.intervals == intervals &&
                            s.sink_errors.empty();
            if (!ok) {
                ++p.failed;
                ++p.incomplete;
                if (p.errors.size() < 8)
                    p.errors.push_back(s.name + ": " +
                                       (s.error.empty() ? "sink error"
                                                        : s.error));
            }
        }
        const std::vector<std::uint64_t> &want =
            !expect.empty() ? expect
                            : (p.digests.empty() ? digests : p.digests);
        for (std::size_t i = 0; i < n; ++i)
            if (digests[i] != want[i]) {
                ++p.digest_mismatches;
                ++p.failed;
            }
        if (p.digests.empty()) {
            p.digests = digests;
            for (const auto &s : res.sessions) {
                if (std::isfinite(s.summary.power_mae_w))
                    p.power_mae_w.push_back(s.summary.power_mae_w);
                p.fault_events += s.summary.fault_events;
                p.degraded_intervals += s.summary.degraded_intervals;
            }
        }

        const std::size_t pass_begin = p.epoch_ms.size();
        if (log) {
            if (log->stamps.size() != intervals) {
                ++p.observer_count_errors;
                p.failed += n;
            }
            if (log->cap_sum_failures != 0) {
                p.cap_sum_failures += log->cap_sum_failures;
                p.failed += n;
            }
            for (std::size_t k = 1; k < log->stamps.size(); ++k)
                p.epoch_ms.push_back(
                    static_cast<double>(log->stamps[k] -
                                        log->stamps[k - 1]) *
                    1e-6);
        } else {
            for (const auto &s : res.sessions)
                p.epoch_ms.push_back(s.wall_s * 1e3 /
                                     static_cast<double>(intervals));
        }
        p.pass_p99_ms.push_back(quantile(
            std::vector<double>(p.epoch_ms.begin() +
                                    static_cast<std::ptrdiff_t>(pass_begin),
                                p.epoch_ms.end()),
            0.99));
        if (res.arbiter.active)
            p.arbiter.push_back(res.arbiter);
        const std::string &csv_dir = fleet.spec().csv_dir;
        if (!csv_dir.empty()) {
            p.csv_checked = true;
            std::string detail;
            if (!checkCsvRows(csv_dir, fleet.spec(), detail)) {
                ++p.csv_bad_passes;
                p.failed += n;
                p.csv_detail = detail;
            }
            // Fresh files every pass: rewriting truncated files makes
            // ext4 force their writeback, and the run would measure the
            // disk instead of the sink.
            std::error_code ec;
            fs::remove_all(csv_dir, ec);
        }
    }
}

/** Σ caps, observer count and arbiter self-check verdicts of @p p. */
void
checkPasses(Report &r, const std::string &label, const Passes &p,
            bool lockstep)
{
    std::string detail = std::to_string(p.incomplete) +
                         " incomplete of " + std::to_string(p.attempted);
    for (const auto &e : p.errors)
        detail += "; " + e;
    r.check(label + ".sessions_complete", p.incomplete == 0, detail);
    r.check(label + ".digests_stable", p.digest_mismatches == 0,
            std::to_string(p.digest_mismatches) + " mismatches");
    if (p.csv_checked)
        r.check(label + ".csv_one_row_per_interval", p.csv_bad_passes == 0,
                std::to_string(p.csv_bad_passes) + " bad passes; " +
                    p.csv_detail);
    if (lockstep) {
        std::size_t self_check = 0;
        for (const auto &a : p.arbiter)
            self_check += a.cap_sum_violations;
        r.check(label + ".cap_sum_violations_zero", self_check == 0,
                std::to_string(self_check) + " arbiter self-check failures");
        r.check(label + ".caps_within_budget_every_epoch",
                p.cap_sum_failures == 0,
                std::to_string(p.cap_sum_failures) + " epochs over budget");
        r.check(label + ".one_observer_call_per_interval",
                p.observer_count_errors == 0,
                std::to_string(p.observer_count_errors) + " bad passes");
    }
    r.attempted += p.attempted;
    r.failed += p.failed;
}

// --- set-up -----------------------------------------------------------------

/**
 * Construct and prepare the fleet @p reps times from scratch (no model
 * cache) and return the last one; @p samples gets each wall time.
 */
std::unique_ptr<rt::Fleet>
setUp(const rt::FleetSpec &spec, std::size_t reps,
      std::vector<double> &samples)
{
    std::unique_ptr<rt::Fleet> fleet;
    for (std::size_t r = 0; r < reps; ++r) {
        rt::FleetSpec copy = spec;
        fleet.reset();
        const auto t0 = Clock::now();
        auto f = std::make_unique<rt::Fleet>(std::move(copy));
        f->prepare();
        samples.push_back(secondsSince(t0));
        fleet = std::move(f);
    }
    return fleet;
}

/**
 * The recording every replay_csv input derives from: sim_pool's fleet
 * run once from the seed. Returns its digests (all 0 when the recording
 * failed, so every replay digest check fails too).
 *
 * The recording runs in a child process. Its recorders buffer every
 * stream in memory before the file is written, and the benchmark's own
 * peak RSS must describe the replay, not the input generation.
 */
std::vector<std::uint64_t>
recordInput(const Options &o, const std::string &path, Report &r)
{
    Options rec_opts = o;
    rec_opts.workload = Workload::SimPool;
    rt::FleetSpec spec = makeSpec(rec_opts);
    spec.record_path = path;
    const std::size_t n = spec.sessions.size();
    // The child's reply: its failed-session count, then one digest per
    // session.
    std::vector<std::uint64_t> reply(n + 1, 0);
    const std::size_t bytes = reply.size() * sizeof(std::uint64_t);
    int fd[2];
    if (pipe(fd) != 0) {
        r.check("recording.sessions_complete", false, "pipe() failed");
        return std::vector<std::uint64_t>(n, 0);
    }
    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t pid = fork();
    if (pid == 0) {
        close(fd[0]);
        {
            rt::Fleet fleet(std::move(spec));
            const rt::FleetResult res = fleet.run(kWorkers);
            reply[0] = res.failed;
            for (std::size_t i = 0; i < n; ++i)
                reply[i + 1] = res.sessions[i].telemetry_digest;
        }
        const char *out = reinterpret_cast<const char *>(reply.data());
        for (std::size_t done = 0; done < bytes;) {
            const ssize_t w = write(fd[1], out + done, bytes - done);
            if (w <= 0)
                _exit(1);
            done += static_cast<std::size_t>(w);
        }
        _exit(0);
    }
    close(fd[1]);
    std::size_t got = 0;
    char *in = reinterpret_cast<char *>(reply.data());
    while (pid > 0 && got < bytes) {
        const ssize_t k = read(fd[0], in + got, bytes - got);
        if (k <= 0)
            break;
        got += static_cast<std::size_t>(k);
    }
    close(fd[0]);
    int status = 0;
    const bool exited = pid > 0 && waitpid(pid, &status, 0) == pid &&
                        WIFEXITED(status) && WEXITSTATUS(status) == 0;
    const bool ok = exited && got == bytes && reply[0] == 0;
    r.check("recording.sessions_complete", ok,
            exited && got == bytes
                ? std::to_string(reply[0]) + " failed"
                : std::string("recording process failed"));
    if (!ok)
        return std::vector<std::uint64_t>(n, 0);
    return std::vector<std::uint64_t>(reply.begin() + 1, reply.end());
}

/** The spec a workload times: replay_csv points at the recording and
 *  writes CSV telemetry into @p csv_dir. */
rt::FleetSpec
timedSpec(const Options &o, const std::string &replay_path,
          const std::string &csv_dir)
{
    rt::FleetSpec spec = makeSpec(o);
    if (o.workload == Workload::ReplayCsv) {
        spec.replay_path = replay_path;
        spec.csv_dir = csv_dir;
    }
    return spec;
}

// --- traced run: governor decorator ------------------------------------------

/** Forwards every virtual to the wrapped policy and times decideInto. */
class TimedGovernor final : public gov::Governor
{
  public:
    TimedGovernor(std::unique_ptr<gov::Governor> inner,
                  std::vector<double> *samples_ns)
        : inner_(std::move(inner)), samples_ns_(samples_ns)
    {
    }

    std::vector<std::size_t> decide(const trace::IntervalRecord &rec,
                                     double cap_w) override
    {
        const std::int64_t t0 = nowNs();
        auto out = inner_->decide(rec, cap_w);
        note(t0);
        return out;
    }

    void decideInto(const trace::IntervalRecord &rec, double cap_w,
                    std::vector<std::size_t> &out) override
    {
        const std::int64_t t0 = nowNs();
        inner_->decideInto(rec, cap_w, out);
        note(t0);
    }

    std::string name() const override { return inner_->name(); }

    std::optional<sim::VfState> decideNb() override
    {
        return inner_->decideNb();
    }

    const std::vector<model::VfPrediction> *
    lastExploration() const override
    {
        return inner_->lastExploration();
    }

    double lastPredictedPower() const override
    {
        return inner_->lastPredictedPower();
    }

  private:
    /** Per-session sample cap; bounds memory on fast workloads. */
    static constexpr std::size_t kMaxSamples = 20000;

    void note(std::int64_t t0)
    {
        const std::int64_t t1 = nowNs();
        if (samples_ns_->size() < kMaxSamples)
            samples_ns_->push_back(static_cast<double>(t1 - t0));
    }

    std::unique_ptr<gov::Governor> inner_;
    std::vector<double> *samples_ns_;
};

/** Wrap every session's policy in a TimedGovernor writing to its own
 *  sample slot (a session runs on one worker at a time). */
void
decorateGovernors(rt::FleetSpec &spec,
                  std::vector<std::vector<double>> &slots)
{
    slots.assign(spec.sessions.size(), {});
    for (std::size_t i = 0; i < spec.sessions.size(); ++i) {
        rt::GovernorFactory inner = factoryOf(spec, i);
        std::vector<double> *slot = &slots[i];
        slot->reserve(4 * spec.intervals);
        spec.sessions[i].governor =
            [inner, slot](const rt::ModelContext &ctx)
            -> std::unique_ptr<gov::Governor> {
            return std::make_unique<TimedGovernor>(inner(ctx), slot);
        };
    }
}

// --- traced run: the single-worker per-layer pass -----------------------------

enum SpanName : std::uint16_t {
    kSessionSetup,
    kInterval,
    kSimStep,
    kCollect,
    kSampler,
    kReplay,
    kGovernor,
    kExplore,
    kArbiter,
    kCsv,
    kDigest,
    kSummary,
    kSinkFinish,
    kSpanNames
};

constexpr const char *kSpanLabel[kSpanNames] = {
    "fleet.session_setup", "fleet.interval",    "sim.step",
    "trace.collect",       "runtime.sampler",   "trace.replay",
    "governor.decide",     "model.explore",     "arbiter.decide",
    "telemetry.csv",       "telemetry.digest",  "telemetry.summary",
    "telemetry.finish",
};

struct Span
{
    std::int64_t start;
    std::int64_t end;
    std::int32_t parent; ///< index of the enclosing span, -1 = root
    std::uint32_t session;
    std::uint16_t name;
};

/** In-memory span store: spans are appended around public calls and
 *  written out once, after the run. */
class Tracer
{
  public:
    void reserve(std::size_t n) { spans_.reserve(n); }

    std::int32_t open(SpanName name, std::uint32_t session,
                      std::int32_t parent)
    {
        spans_.push_back({nowNs(), 0, parent, session, name});
        return static_cast<std::int32_t>(spans_.size() - 1);
    }
    void close(std::int32_t id) { spans_[id].end = nowNs(); }

    template <typename F>
    void time(SpanName name, std::uint32_t session, std::int32_t parent,
              F &&f)
    {
        const std::int64_t t0 = nowNs();
        f();
        const std::int64_t t1 = nowNs();
        spans_.push_back({t0, t1, parent, session, name});
    }

    const std::vector<Span> &spans() const { return spans_; }
    void clear() { spans_.clear(); }

  private:
    std::vector<Span> spans_;
};

/** Cost of one steady_clock read, ns: every span's measured duration
 *  carries about one read; a parent carries one per child boundary. */
double
timerCostNs()
{
    double best = std::numeric_limits<double>::max();
    for (int rep = 0; rep < 5; ++rep) {
        constexpr int kReads = 100000;
        const std::int64_t t0 = nowNs();
        for (int k = 0; k < kReads; ++k)
            (void)nowNs();
        best = std::min(best,
                        static_cast<double>(nowNs() - t0) / kReads);
    }
    return best;
}

/** Models per distinct config, trained (and timed) outside the fleet so
 *  the manual pass can assemble sessions with identical predictors. */
struct ModelEntry
{
    std::uint64_t fingerprint = 0;
    model::TrainedModels models;
    std::unique_ptr<model::Ppep> ppep;
};

struct Models
{
    std::vector<std::unique_ptr<ModelEntry>> entries;
    std::vector<const ModelEntry *> of_session;
    double train_s = 0.0;
};

std::vector<const ppep::workloads::Combination *>
defaultTrainingCombos()
{
    // Fleet's own default training set: every single-program combination.
    std::vector<const ppep::workloads::Combination *> out;
    for (const auto &c : ppep::workloads::allCombinations())
        if (c.instances.size() == 1)
            out.push_back(&c);
    return out;
}

Models
trainModels(const rt::FleetSpec &spec)
{
    Models m;
    const auto combos = defaultTrainingCombos();
    for (std::size_t i = 0; i < spec.sessions.size(); ++i) {
        const sim::ChipConfig &cfg = cfgOf(spec, i);
        const std::uint64_t fp = rt::platformFingerprint(cfg);
        const ModelEntry *found = nullptr;
        for (const auto &e : m.entries)
            if (e->fingerprint == fp)
                found = e.get();
        if (!found) {
            auto e = std::make_unique<ModelEntry>();
            e->fingerprint = fp;
            const auto t0 = Clock::now();
            model::Trainer trainer(cfg, spec.training_seed);
            e->models = trainer.trainAll(combos);
            m.train_s += secondsSince(t0);
            e->ppep = std::make_unique<model::Ppep>(cfg, e->models.chip,
                                                    e->models.pg);
            found = e.get();
            m.entries.push_back(std::move(e));
        }
        m.of_session.push_back(found);
    }
    return m;
}

/** One session assembled by hand from the public per-layer classes,
 *  the way Session::Builder::build() and Session::drive() do it. */
struct ManualSession
{
    std::uint32_t id = 0;
    sim::ChipConfig cfg;
    std::unique_ptr<sim::Chip> chip;
    std::unique_ptr<gov::Governor> policy;
    std::optional<rt::Sampler> sampler;
    std::optional<rt::HealthMonitor> monitor;
    std::unique_ptr<gov::DegradedModeGovernor> degraded;
    gov::Governor *gov = nullptr;
    const model::Ppep *ppep = nullptr;
    std::optional<trace::Collector> collector;
    std::optional<trace::ReplaySource> replay;
    std::optional<gov::GovernorLoop> loop;
    gov::CapSchedule schedule = gov::CapSchedule::unlimited();
    gov::GovernorStep step;
    std::vector<std::size_t> next_vf;
    sim::TickResult tick;
    model::ExploreScratch scratch;
    std::vector<model::VfPrediction> explored;
    rt::SummarySink summary;
    rt::DigestSink digest;
    std::unique_ptr<rt::CsvSink> csv;
    std::string csv_path;
    double pending_pred = std::numeric_limits<double>::quiet_NaN();
    double replay_time_s = 0.0;
    std::size_t index = 0;
};

/** Aggregates of one manual pass. */
struct LayerTotals
{
    double ns[kSpanNames] = {};
    std::size_t count[kSpanNames] = {};
    /** Explore time of the governors' own in-decide explorations,
     *  estimated by the timed Ppep::exploreInto on the same record. */
    double in_decide_explore_ns = 0.0;
    std::size_t in_decide_explores = 0;
    std::size_t governed_intervals = 0;
    std::size_t collector_intervals = 0;
    std::size_t sampler_intervals = 0;
    std::size_t governed_ticks = 0;
    std::size_t csv_rows = 0;
    std::uintmax_t csv_bytes = 0;
    std::vector<double> session_ns;
    double wall_s = 0.0;
    std::vector<std::uint64_t> digests;

    /** Fleet work traced: every layer's self time except the separate
     *  measurement exploration (the governors' own sit in decide). */
    double layerSum() const
    {
        double sum = 0.0;
        for (int k = 0; k < kSpanNames; ++k)
            if (k != kExplore)
                sum += ns[k];
        return sum;
    }
};

class ManualPass
{
  public:
    ManualPass(const rt::FleetSpec &spec,
               const Models &models, const std::string &replay_path,
               const std::string &csv_dir, Tracer &tracer)
        : spec_(spec), models_(models), csv_dir_(csv_dir),
          tracer_(tracer)
    {
        if (!replay_path.empty())
            replay_file_ = std::make_unique<trace::ReplayFile>(replay_path);
    }

    std::size_t replayFrameBytes() const
    {
        return replay_file_ && replay_file_->streamCount() > 0
                   ? replay_file_->stream(0).frame_stride
                   : 0;
    }

    /** One single-worker pass over every session; digests land in the
     *  returned totals. */
    LayerTotals run(double timer_ns)
    {
        tracer_.clear();
        const std::size_t n = spec_.sessions.size();
        const auto t0 = Clock::now();
        std::vector<std::unique_ptr<ManualSession>> sessions(n);
        if (spec_.arbiter) {
            for (std::size_t i = 0; i < n; ++i)
                sessions[i] = build(i);
            driveLockstep(sessions);
        } else {
            for (std::size_t i = 0; i < n; ++i) {
                sessions[i] = build(i);
                drive(*sessions[i]);
                finish(*sessions[i]);
                sessions[i].reset(); // free like Fleet::runOne does
            }
        }
        return aggregate(timer_ns, secondsSince(t0));
    }

  private:
    std::unique_ptr<ManualSession> build(std::size_t i)
    {
        auto m = std::make_unique<ManualSession>();
        const auto id = static_cast<std::uint32_t>(i);
        tracer_.time(kSessionSetup, id, -1, [&] { assemble(*m, i); });
        return m;
    }

    void assemble(ManualSession &m, std::size_t i)
    {
        const rt::FleetSessionSpec &ss = spec_.sessions[i];
        m.id = static_cast<std::uint32_t>(i);
        m.cfg = cfgOf(spec_, i);
        const ModelEntry &entry = *models_.of_session[i];
        m.ppep = entry.ppep.get();
        m.chip = std::make_unique<sim::Chip>(m.cfg, ss.seed);
        m.chip->setPowerGatingEnabled(ss.pg);
        for (std::size_t k = 0; k < ss.one_per_cu.size(); ++k)
            m.chip->setJob(k * m.cfg.cores_per_cu,
                           ppep::workloads::Suite::byName(ss.one_per_cu[k])
                               .makeLoopingJob());
        const rt::ModelContext ctx{m.cfg, entry.models, *entry.ppep,
                                   spec_.training_seed};
        m.policy = factoryOf(spec_, i)(ctx);
        m.gov = m.policy.get();
        if (ss.faults) {
            const std::uint64_t fseed =
                ss.fault_seed ? *ss.fault_seed
                              : ss.seed ^ 0x9E3779B97F4A7C15ULL;
            m.chip->setFaultPlan(*ss.faults, fseed);
            m.sampler.emplace(*m.chip);
            m.monitor.emplace();
            ManualSession *mp = &m;
            m.degraded = std::make_unique<gov::DegradedModeGovernor>(
                *m.chip, *m.gov,
                [mp](const trace::IntervalRecord &rec) {
                    mp->monitor->observe(
                        mp->sampler->lastHealth(),
                        mp->degraded->lastPredictedPower(),
                        rec.sensor_power_w);
                    return mp->monitor->degraded();
                });
            m.gov = m.degraded.get();
        } else {
            m.collector.emplace(*m.chip);
        }
        if (replay_file_) {
            std::size_t idx = 0;
            while (idx < replay_file_->streamCount() &&
                   replay_file_->stream(idx).name != ss.name)
                ++idx;
            PPEP_ASSERT(idx < replay_file_->streamCount(),
                        "recording lacks a session stream");
            m.replay.emplace(*replay_file_, idx, entry.fingerprint);
        }
        if (!csv_dir_.empty()) {
            m.csv_path = (fs::path(csv_dir_) / (ss.name + ".csv")).string();
            m.csv = std::make_unique<rt::CsvSink>(m.csv_path);
        }
        m.loop.emplace(*m.chip, *m.gov);
    }

    /** One interval through the split acquisition protocol: begin, one
     *  chip step plus consumeTick per tick, finish. */
    template <typename Source>
    void acquire(ManualSession &m, Source &src, SpanName span,
                 std::int32_t parent, bool governed)
    {
        std::size_t ticks = 0;
        tracer_.time(span, m.id, parent,
                     [&] { ticks = src.beginIntervalInto(m.step.rec); });
        for (std::size_t t = 0; t < ticks; ++t) {
            tracer_.time(kSimStep, m.id, parent,
                         [&] { m.chip->stepInto(m.tick); });
            tracer_.time(span, m.id, parent,
                         [&] { src.consumeTick(m.step.rec, m.tick); });
        }
        tracer_.time(span, m.id, parent,
                     [&] { src.finishIntervalInto(m.step.rec); });
        if (governed) {
            cur_.governed_ticks += ticks;
            ++(span == kSampler ? cur_.sampler_intervals
                                : cur_.collector_intervals);
        }
    }

    void warmUp(ManualSession &m)
    {
        if (m.replay)
            return; // the recording already warmed the run it captured
        for (std::size_t w = 0; w < spec_.warmup; ++w) {
            const std::int32_t iv = tracer_.open(kInterval, m.id, -1);
            if (m.sampler)
                acquire(m, *m.sampler, kSampler, iv, false);
            else
                acquire(m, *m.collector, kCollect, iv, false);
            tracer_.close(iv);
        }
    }

    /** Measure interval @p i into m.step (cap context stamped first). */
    void collect(ManualSession &m, std::size_t i, std::int32_t iv)
    {
        if (m.replay) {
            tracer_.time(kReplay, m.id, iv, [&] {
                m.replay->collectIntervalInto(m.step.rec);
            });
            m.step.cap_w = m.replay->frameCapW();
            m.step.cu_vf = m.step.rec.cu_vf;
            m.replay_time_s = m.replay->frameTimeS();
            return;
        }
        m.loop->cycleBegin(i, m.schedule, m.step);
        if (m.sampler)
            acquire(m, *m.sampler, kSampler, iv, true);
        else
            acquire(m, *m.collector, kCollect, iv, true);
    }

    /** Decide, time a separate exploration of the same record, and fan
     *  the interval out to the sinks exactly as Session's observer. */
    void decideAndEmit(ManualSession &m, std::size_t i, std::int32_t iv)
    {
        double latency_s = 0.0;
        tracer_.time(kGovernor, m.id, iv, [&] {
            m.loop->cycleDecide(i, m.schedule, m.step, m.next_vf,
                                latency_s);
        });
        const bool explored = m.gov->lastExploration() != nullptr;
        const std::size_t before = tracer_.spans().size();
        tracer_.time(kExplore, m.id, iv, [&] {
            m.ppep->exploreInto(m.step.rec, m.explored, m.scratch);
        });
        const Span &x = tracer_.spans()[before];
        if (explored) {
            cur_.in_decide_explore_ns += static_cast<double>(x.end - x.start);
            ++cur_.in_decide_explores;
        }
        ++cur_.governed_intervals;

        rt::IntervalTelemetry t;
        t.index = m.index++;
        t.time_s = m.replay ? m.replay_time_s
                            : std::max(0.0, m.chip->timeS() -
                                                m.step.rec.duration_s);
        t.rec = &m.step.rec;
        t.cu_vf = &m.step.cu_vf;
        t.cap_w = m.step.cap_w;
        t.predicted_power_w = m.pending_pred;
        t.exploration = m.gov->lastExploration();
        t.decision_latency_s = latency_s;
        t.health = m.sampler ? &m.sampler->lastHealth() : nullptr;
        t.degraded = m.degraded ? m.degraded->degradedNow() : false;
        if (m.monitor)
            t.divergence_ewma_w = m.monitor->divergenceEwma();
        const double next_pred = m.gov->lastPredictedPower();
        tracer_.time(kSummary, m.id, iv, [&] { m.summary.onInterval(t); });
        tracer_.time(kDigest, m.id, iv, [&] { m.digest.onInterval(t); });
        if (m.csv) {
            tracer_.time(kCsv, m.id, iv, [&] { m.csv->onInterval(t); });
            ++cur_.csv_rows;
        }
        m.pending_pred = next_pred;
    }

    void drive(ManualSession &m)
    {
        warmUp(m);
        for (std::size_t i = 0; i < spec_.intervals; ++i) {
            const std::int32_t iv = tracer_.open(kInterval, m.id, -1);
            collect(m, i, iv);
            decideAndEmit(m, i, iv);
            tracer_.close(iv);
        }
    }

    void finish(ManualSession &m)
    {
        tracer_.time(kSinkFinish, m.id, -1, [&] {
            m.summary.finish();
            m.digest.finish();
            if (m.csv) {
                m.csv->finish();
                m.csv->close();
            }
        });
        if (m.csv) {
            cur_.csv_bytes += fs::file_size(m.csv_path);
            fs::remove(m.csv_path); // fresh file next round, as above
        }
        cur_.digests.push_back(m.digest.digest());
    }

    /** Fleet::runArbitrated at one worker: collect + gather every
     *  session, arbitrate, install caps, decide + emit every session. */
    void driveLockstep(std::vector<std::unique_ptr<ManualSession>> &ss)
    {
        std::vector<rt::FleetArbiter::SessionSetup> setups(ss.size());
        for (std::size_t i = 0; i < ss.size(); ++i) {
            setups[i].priority = spec_.sessions[i].priority;
            setups[i].slo_floor_w = spec_.sessions[i].slo_floor_w;
            setups[i].tier = spec_.sessions[i].tier;
            setups[i].n_vf = ss[i]->cfg.vf_table.size();
        }
        rt::ArbiterSpec aspec = *spec_.arbiter;
        aspec.observer = nullptr;
        const std::unique_ptr<rt::FleetArbiter> arbiter =
            rt::makeArbiter(aspec, setups);
        for (auto &m : ss)
            warmUp(*m);
        std::vector<std::int32_t> iv(ss.size());
        for (std::size_t i = 0; i < spec_.intervals; ++i) {
            for (std::size_t k = 0; k < ss.size(); ++k) {
                ManualSession &m = *ss[k];
                iv[k] = tracer_.open(kInterval, m.id, -1);
                collect(m, i, iv[k]);
                const auto *ex = m.gov->lastExploration();
                arbiter->gather(k, ex ? ex->data() : nullptr,
                                ex ? ex->size() : 0,
                                m.step.rec.sensor_power_w);
                tracer_.close(iv[k]);
            }
            tracer_.time(kArbiter, 0, -1, [&] {
                ppep::util::RoleGuard serial(rt::kArbiterSerialRole);
                arbiter->decide(i);
            });
            for (std::size_t k = 0; k < ss.size(); ++k) {
                ManualSession &m = *ss[k];
                iv[k] = tracer_.open(kInterval, m.id, -1);
                m.loop->setCapLimit(arbiter->capOf(k));
                decideAndEmit(m, i, iv[k]);
                tracer_.close(iv[k]);
            }
        }
        for (auto &m : ss)
            finish(*m);
    }

    LayerTotals aggregate(double timer_ns, double wall_s)
    {
        LayerTotals t = std::exchange(cur_, LayerTotals{});
        const auto &spans = tracer_.spans();
        std::vector<double> child_ns(spans.size(), 0.0);
        std::vector<std::size_t> children(spans.size(), 0);
        for (const Span &s : spans)
            if (s.parent >= 0) {
                child_ns[s.parent] += static_cast<double>(s.end - s.start);
                ++children[s.parent];
            }
        t.session_ns.assign(spec_.sessions.size(), 0.0);
        for (std::size_t k = 0; k < spans.size(); ++k) {
            const Span &s = spans[k];
            // Timer correction: a leaf carries ~one clock read, a parent
            // one per boundary of its children plus its own.
            double self = static_cast<double>(s.end - s.start) -
                          child_ns[k] -
                          timer_ns * static_cast<double>(1 + children[k]);
            self = std::max(0.0, self);
            t.ns[s.name] += self;
            ++t.count[s.name];
            // The separate exploration is measurement, not session work;
            // the governors' own explorations sit inside governor.decide.
            if (s.name != kExplore && s.name != kArbiter)
                t.session_ns[s.session] += self;
        }
        t.in_decide_explore_ns = std::max(
            0.0, t.in_decide_explore_ns -
                     timer_ns * static_cast<double>(t.in_decide_explores));
        t.wall_s = wall_s;
        return t;
    }

    const rt::FleetSpec &spec_;
    const Models &models_;
    std::string csv_dir_;
    Tracer &tracer_;
    std::unique_ptr<trace::ReplayFile> replay_file_;
    /** Counts and digests of the pass in progress. */
    LayerTotals cur_;
};

void
writeSpans(const std::string &path, const std::vector<Span> &spans)
{
    std::ofstream out(path);
    out << "id,name,session,parent,start_ns,end_ns\n";
    const std::int64_t base = spans.empty() ? 0 : spans.front().start;
    for (std::size_t k = 0; k < spans.size(); ++k) {
        const Span &s = spans[k];
        out << k << ',' << kSpanLabel[s.name] << ',' << s.session << ','
            << s.parent << ',' << (s.start - base) << ','
            << (s.end - base) << '\n';
    }
}

// --- the two runs -------------------------------------------------------------

/** Run files: the result JSON is kept per seed; the bulky files are
 *  per workload and overwritten by the next run. */
struct Paths
{
    std::string result;
    std::string replay;
    std::string csv;
    std::string manual_csv;
    std::string spans;
};

Paths
pathsFor(const Options &o)
{
    const std::string base =
        (fs::path(o.out_dir) / o.workload_name).string();
    Paths p;
    p.result = base + "-seed" + std::to_string(o.seed) +
               (o.trace ? "-trace" : "") + "-result.json";
    p.replay = base + ".trc";
    p.csv = base + "-csv";
    p.manual_csv = base + "-manual-csv";
    p.spans = base + "-spans.csv";
    return p;
}

void
endToEnd(const Options &o, const Paths &paths, Report &r)
{
    std::vector<std::uint64_t> expect;
    if (o.workload == Workload::ReplayCsv)
        expect = recordInput(o, paths.replay, r);

    rt::FleetSpec spec = timedSpec(o, paths.replay, paths.csv);
    EpochLog log;
    const bool lockstep = spec.arbiter.has_value();
    installObserver(spec, &log);
    std::vector<double> setup;
    auto fleet = setUp(spec, o.setup_reps, setup);

    Passes p;
    runPasses(p, *fleet, kWorkers, o.seconds, log, expect);
    checkPasses(r, "timed", p, lockstep);
    if (o.workload == Workload::ReplayCsv)
        r.check("timed.replay_digests_equal_recording",
                p.digest_mismatches == 0);

    std::size_t violations = 0;
    std::size_t arbitrated = 0;
    if (!p.arbiter.empty()) {
        violations = p.arbiter.front().violation_intervals;
        arbitrated = p.arbiter.front().intervals;
        bool same = true;
        for (const auto &a : p.arbiter)
            same &= a.violation_intervals == violations;
        r.check("timed.budget_violations_deterministic", same);
    }

    const double failed_share =
        p.attempted ? static_cast<double>(p.failed) /
                          static_cast<double>(p.attempted)
                    : 1.0;
    const std::vector<double> &epochs = p.epoch_ms;
    const double steal_share =
        p.steal_ticks / static_cast<double>(sysconf(_SC_CLK_TCK)) /
        (static_cast<double>(onlineCpus()) * p.wall_s);
    r.metric("setup_s", quantile(setup, 0.5), "s");
    r.metric("intervals_per_s", p.intervalsPerS(), "1/s");
    r.metric("epoch_ms_p50", quantile(epochs, 0.5), "ms");
    r.metric("epoch_ms_p99", p.epochP99(), "ms");
    r.metric("peak_rss_mb", peakRssMb(), "MB");
    r.metric("power_mae_w", mean(p.power_mae_w), "W");

    std::printf("workload %s seed %llu: %zu passes, %zu intervals in "
                "%.3f s, %zu epoch samples (%s), %zu setup samples\n",
                o.workload_name.c_str(),
                static_cast<unsigned long long>(o.seed), p.passes,
                p.intervals, p.wall_s, p.epoch_ms.size(),
                lockstep ? "one per arbiter observer callback"
                         : "one per session: session wall / intervals",
                setup.size());
    std::printf("  setup_s            %.4f s (median of %zu:",
                quantile(setup, 0.5), setup.size());
    for (double v : setup)
        std::printf(" %.3f", v);
    std::printf(")\n");
    std::printf("  host steal         %.4f of CPU time during the passes "
                "(diagnostic; no pass is dropped)\n",
                steal_share);
    std::printf("  intervals_per_s    %.1f 1/s (median of %zu passes; "
                "q1 %.1f, q3 %.1f)\n",
                p.intervalsPerS(), p.passes, quantile(p.pass_rate, 0.25),
                quantile(p.pass_rate, 0.75));
    std::printf("  epoch_ms_p50       %.4f ms (n=%zu)\n",
                quantile(epochs, 0.5), epochs.size());
    std::printf("  epoch_ms_p99       %.4f ms (median of %zu pass p99s, "
                "%.0f samples each)\n",
                p.epochP99(), p.passes,
                static_cast<double>(epochs.size()) /
                    static_cast<double>(p.passes));
    std::printf("  peak_rss_mb        %.1f MB\n", peakRssMb());
    std::printf("  power_mae_w        %.4f W (mean of %zu sessions)\n",
                mean(p.power_mae_w), p.power_mae_w.size());
    if (lockstep)
        std::printf("  budget_violation_intervals %zu count (of %zu "
                    "arbitrated intervals; hardened acquisition saw %zu "
                    "fault events and %zu degraded session-intervals)\n",
                    violations, arbitrated, p.fault_events,
                    p.degraded_intervals);
    else
        std::printf("  budget_violation_intervals n/a (no budget on "
                    "this workload)\n");
    std::printf("  failed_share       %.6f share (%zu of %zu "
                "sessions)\n",
                failed_share, p.failed, p.attempted);
}

void
traced(const Options &o, const Paths &paths, Report &r)
{
    std::vector<std::uint64_t> recorded;
    if (o.workload == Workload::ReplayCsv)
        recorded = recordInput(o, paths.replay, r);
    const rt::FleetSpec base = timedSpec(o, paths.replay, paths.csv);
    const bool lockstep = base.arbiter.has_value();

    // The untraced fleet and its traced re-run (governor decorator +
    // observer timestamps), alternating pass by pass so host drift hits
    // both sides of tracing.overhead alike.
    rt::FleetSpec plain_spec = base;
    EpochLog plain_log;
    installObserver(plain_spec, &plain_log);
    std::vector<double> setup;
    auto plain = setUp(plain_spec, 1, setup);
    rt::FleetSpec traced_spec = base;
    std::vector<std::vector<double>> decide_ns;
    decorateGovernors(traced_spec, decide_ns);
    EpochLog traced_log;
    installObserver(traced_spec, &traced_log);
    auto traced_fleet = setUp(traced_spec, 1, setup);

    Passes untraced;
    Passes tr;
    const auto t_alt = Clock::now();
    do {
        runPasses(untraced, *plain, kWorkers, 0.0, plain_log, recorded);
        runPasses(tr, *traced_fleet, kWorkers, 0.0, traced_log,
                  untraced.digests);
    } while (secondsSince(t_alt) < o.seconds / 2.0);
    checkPasses(r, "untraced", untraced, lockstep);
    checkPasses(r, "traced", tr, lockstep);
    r.check("traced.digests_equal_untraced",
            tr.digest_mismatches == 0 && tr.digests == untraced.digests);

    // Single-worker rounds: the untraced fleet at one worker, then the
    // manual per-layer pass over the same sessions; at least five rounds
    // and a quarter of the run, so short passes repeat enough to pair
    // out host drift.
    Models models = trainModels(base);
    const bool csv = o.workload == Workload::ReplayCsv;
    Tracer tracer;
    // Spans per interval: begin/finish and a step plus consumeTick per
    // tick, decide, explore, sinks; replay has no ticks.
    const std::size_t spans_per_interval =
        csv ? 10 : 12 + 2 * cfgOf(base, 0).ticks_per_interval;
    tracer.reserve(base.sessions.size() * (base.intervals + base.warmup) *
                   spans_per_interval);
    if (csv)
        fs::create_directories(paths.manual_csv);
    ManualPass manual(base, models, csv ? paths.replay : std::string(),
                      csv ? paths.manual_csv : std::string(), tracer);
    const double timer_ns = timerCostNs();
    Passes one;
    std::vector<double> coverage;
    std::vector<LayerTotals> rounds;
    std::size_t manual_mismatch = 0;
    const auto t_rounds = Clock::now();
    while (rounds.size() < 5 ||
           (rounds.size() < 25 && secondsSince(t_rounds) < o.seconds / 4.0)) {
        runPasses(one, *plain, 1, 0.0, plain_log, untraced.digests);
        LayerTotals lt = manual.run(timer_ns);
        r.attempted += base.sessions.size();
        for (std::size_t i = 0; i < lt.digests.size(); ++i)
            if (lt.digests[i] != untraced.digests[i]) {
                ++manual_mismatch;
                ++r.failed;
            }
        coverage.push_back(lt.layerSum() / (one.pass_wall_s.back() * 1e9));
        rounds.push_back(std::move(lt));
    }
    checkPasses(r, "one_worker", one, lockstep);
    r.check("manual.digests_equal_fleet", manual_mismatch == 0,
            std::to_string(manual_mismatch) + " mismatches");

    // The round with the median coverage — paired with the one-worker
    // pass just before it — represents the layers.
    std::size_t pick = 0;
    {
        std::vector<std::pair<double, std::size_t>> order;
        for (std::size_t k = 0; k < rounds.size(); ++k)
            order.push_back({coverage[k], k});
        std::sort(order.begin(), order.end());
        pick = order[order.size() / 2].second;
    }
    const LayerTotals &t = rounds[pick];
    writeSpans(paths.spans, tracer.spans()); // the last round

    const double gi = std::max<double>(1.0, t.governed_intervals);
    const double explore_in = t.in_decide_explore_ns;
    const double governor_self =
        std::max(0.0, t.ns[kGovernor] - explore_in);
    const double layer_sum = t.layerSum();
    const double sim_ns = t.ns[kSimStep];
    const double trace_ns = t.ns[kCollect] + t.ns[kReplay];
    const double sampler_ns = t.ns[kSampler];
    const double telemetry_ns = t.ns[kCsv] + t.ns[kDigest] +
                                t.ns[kSummary] + t.ns[kSinkFinish];
    const double fleet_ns = t.ns[kSessionSetup] + t.ns[kInterval];
    const double share_base = std::max(1.0, layer_sum);

    // Slice imbalance: contiguous per-worker slices of the sessions, as
    // the lockstep drive assigns them, priced by traced session cost.
    const std::size_t n = t.session_ns.size();
    const std::size_t w = std::min(kWorkers, n);
    std::vector<double> slice(w, 0.0);
    for (std::size_t k = 0; k < w; ++k)
        for (std::size_t i = n * k / w; i < n * (k + 1) / w; ++i)
            slice[k] += t.session_ns[i];
    const double slice_mean = mean(slice);
    const double imbalance =
        slice_mean > 0.0 ? *std::max_element(slice.begin(), slice.end()) /
                               slice_mean
                         : 0.0;

    double decide_mean_us = 0.0;
    double decide_max_us = 0.0;
    double cap_sum = 0.0;
    double serial_share = 0.0;
    if (!untraced.arbiter.empty()) {
        for (const auto &a : untraced.arbiter) {
            decide_mean_us += a.mean_decide_s * 1e6;
            decide_max_us = std::max(decide_max_us, a.max_decide_s * 1e6);
            cap_sum += static_cast<double>(a.cap_sum_violations);
        }
        decide_mean_us /= static_cast<double>(untraced.arbiter.size());
        const double epoch_us = mean(untraced.epoch_ms) * 1e3;
        serial_share = epoch_us > 0.0 ? decide_mean_us / epoch_us : 0.0;
    }

    std::vector<double> all_decide;
    for (const auto &v : decide_ns)
        all_decide.insert(all_decide.end(), v.begin(), v.end());

    const auto per = [](double total, std::size_t count) {
        return count ? total / static_cast<double>(count) : 0.0;
    };
    r.metric("sim.step_ns", per(sim_ns, t.count[kSimStep]), "ns");
    r.metric("sim.ticks_per_interval",
             per(static_cast<double>(t.governed_ticks),
                 t.collector_intervals + t.sampler_intervals),
             "count");
    r.metric("trace.collect_ns", per(t.ns[kCollect], t.collector_intervals),
             "ns");
    r.metric("runtime.sampler_ns", per(sampler_ns, t.sampler_intervals),
             "ns");
    r.metric("trace.replay_ns", per(t.ns[kReplay], t.count[kReplay]), "ns");
    r.metric("trace.replay_bytes_per_interval",
             static_cast<double>(manual.replayFrameBytes()), "bytes");
    r.metric("model.explore_ns", per(t.ns[kExplore], t.count[kExplore]),
             "ns");
    r.metric("model.train_s", models.train_s, "s");
    r.metric("governor.decide_ns_p50", quantile(all_decide, 0.5), "ns");
    r.metric("governor.decide_ns_p99", quantile(all_decide, 0.99), "ns");
    r.metric("governor.self_ns", governor_self / gi, "ns");
    r.metric("arbiter.decide_us_mean", decide_mean_us, "us");
    r.metric("arbiter.decide_us_max", decide_max_us, "us");
    r.metric("arbiter.cap_sum_violations", cap_sum, "count");
    r.metric("fleet.slice_imbalance", imbalance, "ratio");
    r.metric("fleet.serial_share", serial_share, "ratio");
    r.metric("telemetry.csv_ns_per_row", per(t.ns[kCsv], t.csv_rows), "ns");
    r.metric("telemetry.csv_bytes_per_row",
             t.csv_rows ? static_cast<double>(t.csv_bytes) /
                              static_cast<double>(t.csv_rows)
                        : 0.0,
             "bytes");
    r.metric("telemetry.digest_ns_per_row",
             per(t.ns[kDigest], t.count[kDigest]), "ns");
    r.metric("telemetry.summary_ns_per_row",
             per(t.ns[kSummary], t.count[kSummary]), "ns");
    r.metric("sim.share", sim_ns / share_base, "ratio");
    r.metric("trace.share", trace_ns / share_base, "ratio");
    r.metric("runtime.sampler_share", sampler_ns / share_base, "ratio");
    r.metric("model.share", explore_in / share_base, "ratio");
    r.metric("governor.share", governor_self / share_base, "ratio");
    r.metric("arbiter.share", t.ns[kArbiter] / share_base, "ratio");
    r.metric("telemetry.share", telemetry_ns / share_base, "ratio");
    r.metric("fleet.share", fleet_ns / share_base, "ratio");
    r.metric("fleet.worker_scaling",
             one.intervalsPerS() > 0.0
                 ? untraced.intervalsPerS() / one.intervalsPerS()
                 : 0.0,
             "ratio");
    r.metric("tracing.coverage", coverage[pick],
             "ratio");
    r.metric("tracing.overhead",
             tr.intervalsPerS() > 0.0
                 ? untraced.intervalsPerS() / tr.intervalsPerS() - 1.0
                 : 0.0,
             "ratio");

    std::printf("traced %s seed %llu: timer %.1f ns per read; round "
                "%zu of %zu: one-worker fleet %.4f s, manual pass %.4f s, "
                "coverage %.3f (unaccounted share %.3f; rounds:",
                o.workload_name.c_str(),
                static_cast<unsigned long long>(o.seed), timer_ns,
                pick + 1, rounds.size(), one.pass_wall_s[pick], t.wall_s,
                coverage[pick], 1.0 - coverage[pick]);
    for (double c : coverage)
        std::printf(" %.3f", c);
    std::printf(")\n");
    std::printf("  intervals_per_s untraced %.1f traced %.1f one-worker "
                "%.1f (%zu/%zu/%zu passes); %zu decide samples\n",
                untraced.intervalsPerS(), tr.intervalsPerS(),
                one.intervalsPerS(), untraced.passes, tr.passes,
                one.passes, all_decide.size());
    std::printf("  layer shares: sim %.4f, trace %.4f, sampler %.4f, "
                "explore %.4f, governor %.4f, arbiter %.4f, telemetry "
                "%.4f, fleet %.4f; explore+governor+telemetry %.4f\n",
                sim_ns / share_base, trace_ns / share_base,
                sampler_ns / share_base, explore_in / share_base,
                governor_self / share_base, t.ns[kArbiter] / share_base,
                telemetry_ns / share_base, fleet_ns / share_base,
                (explore_in + governor_self + telemetry_ns) / share_base);
}

void
printResult(const Report &r, const Options &o, const std::string &host,
            const std::string &path)
{
    std::string checks = "{";
    for (std::size_t k = 0; k < r.checks.size(); ++k) {
        const Check &c = r.checks[k];
        checks += (k ? ", " : "") + std::string("\"") + c.name +
                  "\": {\"ok\": " + (c.ok ? "true" : "false") +
                  ", \"detail\": \"" + jsonEscape(c.detail) + "\"}";
    }
    checks += "}";
    std::string metrics = "{";
    for (std::size_t k = 0; k < r.metrics.size(); ++k) {
        const Metric &m = r.metrics[k];
        metrics += (k ? ", " : "") + std::string("\"") + m.name +
                   "\": {\"value\": " +
                   (std::isfinite(m.value) ? num(m.value) : "null") +
                   ", \"unit\": \"" + m.unit + "\"}";
    }
    metrics += "}";
    const bool ok = r.correct();
    const std::string result =
        std::string("{\"correct\": ") + (ok ? "true" : "false") +
        ", \"attempted\": " + std::to_string(r.attempted) +
        ", \"failed\": " + std::to_string(r.failed) +
        ", \"metrics\": " + metrics + "}";

    std::ofstream file(path);
    file << "{\"workload\": \"" << o.workload_name << "\", \"seed\": "
         << o.seed << ", \"trace\": " << (o.trace ? 1 : 0)
         << ", \"host\": " << host << ", \"checks\": " << checks
         << ", \"result\": " << result << "}\n";

    std::printf("{\"checks\": %s}\n", checks.c_str());
    std::printf("%s\n", result.c_str());
    std::fflush(stdout);
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parse(argc, argv);
    const std::size_t nproc = onlineCpus();
    const std::string host = hostJson(o, nproc);
    std::printf("{\"host\": %s}\n", host.c_str());
    if (kWorkers > nproc) {
        // A worker count above the host's CPUs measures oversubscription,
        // not the fleet: refuse to report it.
        std::printf("{\"status\": \"not measured\", \"reason\": \"%zu "
                    "workers > nproc %zu\"}\n",
                    kWorkers, nproc);
        return 3;
    }
    std::error_code ec;
    fs::create_directories(o.out_dir, ec);
    if (ec) {
        std::fprintf(stderr, "fleet_bench: cannot create '%s': %s\n",
                     o.out_dir.c_str(), ec.message().c_str());
        return 2;
    }
    const Paths paths = pathsFor(o);
    Report r;
    if (o.trace)
        traced(o, paths, r);
    else
        endToEnd(o, paths, r);
    printResult(r, o, host, paths.result);
    fs::remove(paths.replay, ec);
    return r.correct() ? 0 : 1;
}
