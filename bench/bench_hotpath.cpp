// Hot-path microbenchmark + allocation audit for the campaign simulator.
//
// Measures the same workload as bench_ext_hwm_campaign's BM_OneCampaign —
// the EEMBC-like cacheb scua against load-rsk contenders on the NGMP
// reference platform — through two execution paths:
//
//   naive : a fresh Machine per run, cycle-by-cycle stepping — the
//           pre-optimization reference semantics;
//   hot   : the production path (engine::MachineLease reuse +
//           event-driven cycle skipping + POD completion tokens).
//
// A separate estimate pass times the paper's method, estimate_ubd,
// replaying on leased machines against the same sweep on the
// fresh-machine interpreter (tests/serial_reference.h).
//
// Emits machine-readable JSON (runs/sec, simulated cycles/sec, speedup,
// heap allocations per run) and FAILS (exit 1) when the hot path's
// steady state performs any heap allocation per run — the allocation
// counter is a global operator new/delete interposer, so nothing can
// hide — when the pwcet fold allocates beyond one block-maxima node per
// block, when arming attribution costs more than
// kMaxAttributionOverheadPct of the unarmed rate, when the hot pass,
// the armed pass or the replayed estimate never skips a steady-state
// period (periods_fast_forwarded, docs/replay.md), or when the replayed
// estimate is less than kMinEstimateSpeedup times faster. Every pass is
// timed in the main thread's CPU time, and all rates are
// best-sustained-window estimates (see ChunkTimer), so bursty co-tenant
// load on shared CI hosts does not poison the telemetry/attribution
// overhead ratios. CI runs this as the perf-smoke stage; the numbers live in
// BENCH_hotpath.json.
//
// Deliberately not a google-benchmark binary: the allocation interposer
// must own global new/delete without fighting the framework, and CI
// needs this to build even where google-benchmark is absent.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>

#include <time.h>

#include "core/campaign.h"
#include "core/estimator.h"
#include "core/session.h"
#include "engine/machine_lease.h"
#include "kernels/autobench.h"
#include "machine/config.h"
#include "machine/machine.h"
#include "obs/report.h"
#include "obs/telemetry.h"
#include "sched/campaign_scheduler.h"
#include "serial_reference.h"
#include "stats/attribution.h"

// ------------------------------------------------ allocation interposer

namespace {

std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_allocated_bytes{0};
std::atomic<bool> g_counting{false};

std::uint64_t allocations_now() {
    return g_allocations.load(std::memory_order_relaxed);
}

struct CountScope {
    CountScope() { g_counting.store(true, std::memory_order_relaxed); }
    ~CountScope() { g_counting.store(false, std::memory_order_relaxed); }
};

}  // namespace

namespace {

void count_allocation(std::size_t size) {
    if (g_counting.load(std::memory_order_relaxed)) {
        g_allocations.fetch_add(1, std::memory_order_relaxed);
        g_allocated_bytes.fetch_add(size, std::memory_order_relaxed);
    }
}

}  // namespace

void* operator new(std::size_t size) {
    count_allocation(size);
    void* p = std::malloc(size);
    if (p == nullptr) throw std::bad_alloc();
    return p;
}

void* operator new[](std::size_t size) { return ::operator new(size); }

// Over-aligned and nothrow forms too — an allocation must not escape
// the audit by using a cache-line-aligned type or a nothrow new.
void* operator new(std::size_t size, std::align_val_t align) {
    count_allocation(size);
    void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                 (size + static_cast<std::size_t>(align) -
                                  1) &
                                     ~(static_cast<std::size_t>(align) - 1));
    if (p == nullptr) throw std::bad_alloc();
    return p;
}

void* operator new[](std::size_t size, std::align_val_t align) {
    return ::operator new(size, align);
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
    count_allocation(size);
    return std::malloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
    count_allocation(size);
    return std::malloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
    std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
    std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
    std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
    std::free(p);
}

// ------------------------------------------------------------ benchmark

namespace {

using namespace rrb;
/// The calling thread's CPU time. Every pass runs on the main thread,
/// so a pass is charged for its own work only, not for the time a
/// shared host spends running other tenants while it waits.
struct Clock {
    using duration = std::chrono::nanoseconds;
    using rep = duration::rep;
    using period = duration::period;
    using time_point = std::chrono::time_point<Clock>;
    static constexpr bool is_steady = true;

    static time_point now() noexcept {
        timespec ts{};
        clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
        return time_point(std::chrono::seconds(ts.tv_sec) +
                          std::chrono::nanoseconds(ts.tv_nsec));
    }
};

struct PathResult {
    double seconds = 0.0;
    std::uint64_t runs = 0;
    std::uint64_t cycles = 0;  ///< sum of simulated finish cycles
    std::uint64_t hwm = 0;     ///< campaign HWM — the bit-identity witness
    double allocs_per_run = 0.0;
    /// Best (shortest) thread CPU time over any kChunkRuns-long window,
    /// and the window size. CI hosts are shared and bursty; the best
    /// sustained window is the robust rate estimator (min-time, as in
    /// timeit), applied identically to every pass so overhead ratios
    /// compare like with like. Zero when the pass was too short to
    /// complete one window — rates then fall back to the whole pass.
    double chunk_seconds_best = 0.0;
    std::uint64_t chunk_runs = 0;
    /// Scua loop-body periods the steady-state fast-forward skipped,
    /// summed over the timed runs (hot and armed passes).
    std::uint64_t periods = 0;

    [[nodiscard]] double periods_per_run() const {
        return runs > 0 ? static_cast<double>(periods) /
                              static_cast<double>(runs)
                        : 0.0;
    }

    [[nodiscard]] double runs_per_sec() const {
        if (chunk_runs > 0) {
            return static_cast<double>(chunk_runs) / chunk_seconds_best;
        }
        return static_cast<double>(runs) / seconds;
    }
    [[nodiscard]] double cycles_per_sec() const {
        return runs_per_sec() * static_cast<double>(cycles) /
               static_cast<double>(runs);
    }
};

constexpr std::uint64_t kChunkRuns = 50;

/// Ceiling on the armed-attribution overhead against the unarmed hot
/// pass, in percent. Armed runs replay like unarmed ones, so what is
/// left is the profiler's own hooks (about 20% on this workload); an
/// armed path that falls back to the interpreter costs about 68%. The
/// ratio of two interleaved passes on the same host catches that on
/// any runner, where an absolute runs/s baseline cannot.
constexpr double kMaxAttributionOverheadPct = 40.0;

/// Floor on the estimate pass's speedup: estimate_ubd on leased,
/// replaying machines against the fresh-machine interpreter, timed in
/// this process. A replayed sweep is about twice as fast; one that
/// silently falls back to interpreting is about 1x on any runner.
constexpr double kMinEstimateSpeedup = 1.3;

/// Folds one rotation's pass into the best-so-far for that mode: rates
/// take the fastest sustained window seen across rotations, while the
/// allocation audit keeps the WORST rotation — one allocating rotation
/// anywhere must still fail the bench.
void fold_best(PathResult& best, const PathResult& sample) {
    if (best.runs == 0) {
        best = sample;
        return;
    }
    best.allocs_per_run =
        std::max(best.allocs_per_run, sample.allocs_per_run);
    best.periods = std::min(best.periods, sample.periods);
    best.seconds = std::min(best.seconds, sample.seconds);
    if (sample.chunk_runs > 0 &&
        (best.chunk_runs == 0 ||
         sample.chunk_seconds_best < best.chunk_seconds_best)) {
        best.chunk_seconds_best = sample.chunk_seconds_best;
        best.chunk_runs = sample.chunk_runs;
    }
}

/// Tracks the best kChunkRuns-long window of a timed loop. now() is
/// allocation-free, so this is safe inside the counting scope.
class ChunkTimer {
public:
    void tick(PathResult& result) {
        if (++in_chunk_ < kChunkRuns) return;
        const double s =
            std::chrono::duration<double>(Clock::now() - start_).count();
        if (result.chunk_runs == 0 || s < result.chunk_seconds_best) {
            result.chunk_seconds_best = s;
            result.chunk_runs = kChunkRuns;
        }
        in_chunk_ = 0;
        start_ = Clock::now();
    }

private:
    Clock::time_point start_ = Clock::now();
    std::uint64_t in_chunk_ = 0;
};

std::uint64_t env_runs(const char* name, std::uint64_t fallback) {
    const char* text = std::getenv(name);
    if (text == nullptr || *text == '\0') return fallback;
    return static_cast<std::uint64_t>(std::strtoull(text, nullptr, 10));
}

/// RRB_HOTPATH_MODES="hot,naive" restricts which passes run — a
/// profiling aid (e.g. gprof of the replay path without the interpreted
/// reference modes drowning it out). Unset = all modes; CI never sets
/// it, so the shipped gate always measures everything.
bool mode_enabled(const char* mode) {
    const char* modes = std::getenv("RRB_HOTPATH_MODES");
    if (modes == nullptr || *modes == '\0') return true;
    const std::size_t len = std::strlen(mode);
    for (const char* at = modes; (at = std::strstr(at, mode)) != nullptr;
         at += len) {
        const bool starts = at == modes || at[-1] == ',';
        const bool ends = at[len] == '\0' || at[len] == ',';
        if (starts && ends) return true;
    }
    return false;
}

/// `value` printed with `format`, or `null` when it is not finite: a
/// mode left out by RRB_HOTPATH_MODES has no rate, and strict JSON has
/// no NaN or Infinity.
std::string json_number(const char* format, double value) {
    if (!std::isfinite(value)) return "null";
    char buf[64];
    std::snprintf(buf, sizeof(buf), format, value);
    return buf;
}

/// The committed reference's runs/sec for one section ("hot",
/// "attribution"), for the CI regression gate: finds the section object
/// in a previous BENCH_hotpath.json and reads its runs_per_sec. Returns
/// 0 when the file or field is missing, or the field is null (the gate
/// then reports and skips rather than failing on a fresh repo).
double baseline_runs_per_sec(const char* path, const char* section) {
    std::FILE* f = std::fopen(path, "r");
    if (f == nullptr) return 0.0;
    std::string text;
    char buf[4096];
    std::size_t got = 0;
    while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
        text.append(buf, got);
    }
    std::fclose(f);
    const std::size_t at_section =
        text.find("\"" + std::string(section) + "\"");
    if (at_section == std::string::npos) return 0.0;
    const std::string key = "\"runs_per_sec\": ";
    const std::size_t at = text.find(key, at_section);
    if (at == std::string::npos) return 0.0;
    const char* value = text.c_str() + at + key.size();
    if (std::strncmp(value, "null", 4) == 0) return 0.0;
    return std::strtod(value, nullptr);
}

/// Periods the steady-state fast-forward skipped in the run this thread
/// just made on its leased machine for `config` (a lease cache hit,
/// which never allocates).
std::uint64_t leased_periods(const MachineConfig& config) {
    engine::MachineLease lease(config);
    return lease.machine().periods_fast_forwarded();
}

/// The naive reference: fresh machine, naive stepping, per-run program
/// loads — semantically the pre-PR execution path. Runs the run indices
/// [first, first + runs) so its finishes are comparable one-to-one with
/// the hot path's.
PathResult run_naive(const MachineConfig& config, const Program& scua,
                     const std::vector<Program>& contenders,
                     const HwmCampaignOptions& options, std::uint64_t first,
                     std::uint64_t runs, std::vector<Cycle>& finishes) {
    PathResult result;
    const auto start = Clock::now();
    ChunkTimer chunks;
    for (std::uint64_t run = first; run < first + runs; ++run) {
        Machine machine(config);
        machine.set_cycle_skipping(false);
        std::uint64_t no_campaign = 0;
        const Cycle finish = detail::execute_campaign_run(
            machine, no_campaign, scua, contenders, options, run);
        result.cycles += finish;
        result.hwm = std::max(result.hwm, finish);
        finishes.push_back(finish);
        chunks.tick(result);
    }
    result.seconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    result.runs = runs;
    return result;
}

/// The production hot path, with the steady-state allocation audit:
/// after a warmup that sizes every reusable buffer, further runs must
/// not touch the heap at all. `finishes` must be pre-reserved — filling
/// it may not allocate inside the counting scope.
PathResult run_hot(const MachineConfig& config, const Program& scua,
                   const std::vector<Program>& contenders,
                   const HwmCampaignOptions& options, std::uint64_t runs,
                   std::uint64_t warmup, std::vector<Cycle>& finishes) {
    // The engine shard loops hoist the campaign fingerprint out of the
    // per-run path; the bench loop models them.
    const std::uint64_t campaign =
        detail::campaign_fingerprint(scua, contenders, options);
    for (std::uint64_t run = 0; run < warmup; ++run) {
        (void)detail::hwm_campaign_run(config, scua, contenders, options,
                                       run, campaign);
    }

    PathResult result;
    const std::uint64_t allocs_before = allocations_now();
    const auto start = Clock::now();
    {
        const CountScope counting;
        ChunkTimer chunks;
        for (std::uint64_t run = warmup; run < warmup + runs; ++run) {
            const Cycle finish = detail::hwm_campaign_run(
                config, scua, contenders, options, run, campaign);
            result.periods += leased_periods(config);
            result.cycles += finish;
            result.hwm = std::max(result.hwm, finish);
            finishes.push_back(finish);
            chunks.tick(result);
        }
    }
    result.seconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    result.runs = runs;
    result.allocs_per_run =
        static_cast<double>(allocations_now() - allocs_before) /
        static_cast<double>(runs);
    return result;
}

/// The pwcet fold's allocation audit over `runs` steady-state runs:
/// detail::fold_pwcet_run — the per-run fold of every pwcet path — may
/// allocate only the block-maxima map's node for each block a run opens.
struct FoldAudit {
    std::uint64_t runs = 0;
    std::uint64_t allocations = 0;
    std::uint64_t block_nodes = 0;

    [[nodiscard]] double per_run(std::uint64_t count) const {
        return runs == 0 ? NAN
                         : static_cast<double>(count) /
                               static_cast<double>(runs);
    }
};

FoldAudit audit_pwcet_fold(const MachineConfig& config, const Program& scua,
                           const std::vector<Program>& contenders,
                           const HwmCampaignOptions& options,
                           std::uint64_t runs, std::uint64_t warmup) {
    const sched::CampaignInputs inputs{
        config, scua, contenders, options,
        detail::campaign_fingerprint(scua, contenders, options)};
    PwcetAccumulator acc(PwcetSpec{}.block_size);
    for (std::uint64_t run = 0; run < warmup; ++run) {
        detail::fold_pwcet_run(acc, inputs, run);
    }
    FoldAudit audit;
    audit.runs = runs;
    const std::size_t blocks_before = acc.blocks().live_values();
    const std::uint64_t allocs_before = allocations_now();
    {
        const CountScope counting;
        for (std::uint64_t run = warmup; run < warmup + runs; ++run) {
            detail::fold_pwcet_run(acc, inputs, run);
        }
    }
    audit.allocations = allocations_now() - allocs_before;
    audit.block_nodes = acc.blocks().live_values() - blocks_before;
    return audit;
}

/// The hot path with the cycle-attribution profiler armed on every run,
/// folding into one AttributionAccumulator. The warmup runs fold into
/// the same accumulator: its matrices are sized by the first add(), so
/// the measured steady state must stay allocation-free with the
/// profiler on. Same allocation audit and finish capture as run_hot.
PathResult run_attributed(const MachineConfig& config, const Program& scua,
                          const std::vector<Program>& contenders,
                          const HwmCampaignOptions& options,
                          std::uint64_t runs, std::uint64_t warmup,
                          std::vector<Cycle>& finishes,
                          AttributionAccumulator& acc) {
    const std::uint64_t campaign =
        detail::campaign_fingerprint(scua, contenders, options);
    for (std::uint64_t run = 0; run < warmup; ++run) {
        (void)detail::hwm_campaign_attribute(config, scua, contenders,
                                             options, run, acc, campaign);
    }

    PathResult result;
    const std::uint64_t allocs_before = allocations_now();
    const auto start = Clock::now();
    {
        const CountScope counting;
        ChunkTimer chunks;
        for (std::uint64_t run = warmup; run < warmup + runs; ++run) {
            const Cycle finish = detail::hwm_campaign_attribute(
                config, scua, contenders, options, run, acc, campaign);
            result.periods += leased_periods(config);
            result.cycles += finish;
            result.hwm = std::max(result.hwm, finish);
            finishes.push_back(finish);
            chunks.tick(result);
        }
    }
    result.seconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    result.runs = runs;
    result.allocs_per_run =
        static_cast<double>(allocations_now() - allocs_before) /
        static_cast<double>(runs);
    return result;
}

/// Best (shortest) CPU time of one estimate per path, whether the two
/// paths' sweeps ever disagreed, and the replayed sweep's isolation and
/// contention runs with the periods they fast-forwarded.
struct EstimatePass {
    double seconds = 0.0;
    double naive_seconds = 0.0;
    std::uint64_t mismatches = 0;
    std::uint64_t runs = 0;
    std::uint64_t periods = 0;

    [[nodiscard]] double speedup() const {
        return seconds > 0.0 ? naive_seconds / seconds : 0.0;
    }
    [[nodiscard]] double periods_per_run() const {
        return runs > 0 ? static_cast<double>(periods) /
                              static_cast<double>(runs)
                        : 0.0;
    }
};

/// The replayed sweep's runs, counted by the backend below (the
/// estimate pass runs on the main thread only).
EstimatePass* counted_pass = nullptr;

/// The experiment primitives, counting each run and the periods it
/// fast-forwarded on this thread's leased machine.
Measurement counted_isolation(const MachineConfig& config,
                              const Program& scua, CoreId scua_core,
                              Cycle max_cycles) {
    const Measurement m = run_isolation(config, scua, scua_core, max_cycles);
    ++counted_pass->runs;
    counted_pass->periods += leased_periods(config);
    return m;
}

Measurement counted_contention(const MachineConfig& config,
                               const Program& scua,
                               const std::vector<Program>& contenders,
                               CoreId scua_core, Cycle max_cycles) {
    const Measurement m =
        run_contention(config, scua, contenders, scua_core, max_cycles);
    ++counted_pass->runs;
    counted_pass->periods += leased_periods(config);
    return m;
}

/// One rotation of the estimate pass: each path estimates once, from a
/// cold machine cache, as a fresh `rrbtool estimate` would.
void time_estimates(const MachineConfig& config, EstimatePass& pass) {
    UbdEstimatorOptions options;
    options.k_max = 40;
    options.rsk_iterations = 20;
    const auto timed = [&](const ExperimentBackend& backend,
                           double& best) {
        engine::MachineLease::drop_thread_cache();
        const auto start = Clock::now();
        UbdEstimate e = estimate_ubd(config, options, backend);
        const double s =
            std::chrono::duration<double>(Clock::now() - start).count();
        if (best == 0.0 || s < best) best = s;
        return e;
    };
    // Every rotation's sweep is the same: count the last one.
    pass.runs = 0;
    pass.periods = 0;
    counted_pass = &pass;
    const UbdEstimate hot =
        timed({&counted_isolation, &counted_contention}, pass.seconds);
    const UbdEstimate naive =
        timed(reference::fresh_machines(), pass.naive_seconds);
    if (hot.et_isolation != naive.et_isolation ||
        hot.et_contention != naive.et_contention) {
        ++pass.mismatches;
    }
}

}  // namespace

int main(int argc, char** argv) {
    const char* out_path = nullptr;
    const char* telemetry_path = nullptr;
    const char* baseline_path = nullptr;
    double max_regression_pct = -1.0;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            out_path = argv[++i];
        } else if (std::strcmp(argv[i], "--telemetry") == 0 &&
                   i + 1 < argc) {
            telemetry_path = argv[++i];
        } else if (std::strcmp(argv[i], "--baseline") == 0 &&
                   i + 1 < argc) {
            baseline_path = argv[++i];
        } else if (std::strcmp(argv[i], "--max-regression-pct") == 0 &&
                   i + 1 < argc) {
            max_regression_pct = std::strtod(argv[++i], nullptr);
        }
    }

    const std::uint64_t runs = env_runs("RRB_HOTPATH_RUNS", 400);
    const std::uint64_t warmup = env_runs("RRB_HOTPATH_WARMUP", 50);

    const MachineConfig config = MachineConfig::ngmp_ref();
    const Program scua = make_autobench(Autobench::kCacheb, 0x0100'0000,
                                        150, 9);
    const std::vector<Program> contenders =
        make_rsk_contenders(config, OpKind::kLoad);
    HwmCampaignOptions options;
    options.runs = static_cast<std::size_t>(warmup + runs);

    // Four modes, measured in rotation: hot, the naive reference, hot
    // with telemetry armed, hot with the cycle-attribution profiler
    // armed. Sequential one-shot passes would let a co-tenant burst on
    // a shared CI host land entirely inside one mode and skew its rate
    // (overhead ratios have come out anywhere from -136% to +22% that
    // way); rotating the modes gives each one samples spread across the
    // same noise environment, and fold_best keeps each mode's fastest
    // sustained window. Runs are index-deterministic, so the finish
    // vectors of any rotation compare element-wise: hot vs naive is the
    // live bit-identity check on the event-driven path, hot vs
    // telemetry/attribution proves arming is out-of-band. The telemetry
    // and attribution overhead ratios against the unarmed hot pass are
    // the numbers BENCH_hotpath.json tracks (target: under 2%). The
    // estimate pass rides the same rotation.
    const std::uint64_t rotations = env_runs("RRB_HOTPATH_ROTATIONS", 5);
    const std::uint64_t naive_runs = runs == 0 ? 0 : runs / 4 + 1;
    obs::TelemetryRegistry& registry = obs::TelemetryRegistry::instance();
    PathResult hot, naive, hot_telemetry, hot_attributed;
    FoldAudit fold;
    if (mode_enabled("hot")) {
        fold = audit_pwcet_fold(config, scua, contenders, options, runs,
                                warmup);
    }
    EstimatePass estimate;
    obs::CounterSnapshot telemetry_counters;
    AttributionAccumulator attribution;
    std::vector<Cycle> hot_finishes, naive_finishes, telemetry_finishes,
        attributed_finishes;
    hot_finishes.reserve(static_cast<std::size_t>(runs));
    naive_finishes.reserve(static_cast<std::size_t>(naive_runs));
    telemetry_finishes.reserve(static_cast<std::size_t>(runs));
    attributed_finishes.reserve(static_cast<std::size_t>(runs));
    for (std::uint64_t rotation = 0; rotation < rotations; ++rotation) {
        if (mode_enabled("hot")) {
            hot_finishes.clear();
            fold_best(hot, run_hot(config, scua, contenders, options, runs,
                                   warmup, hot_finishes));
        }

        if (mode_enabled("naive")) {
            naive_finishes.clear();
            fold_best(naive, run_naive(config, scua, contenders, options,
                                       warmup, naive_runs, naive_finishes));
        }

        if (mode_enabled("telemetry")) {
            registry.reset();
            registry.enable();
            const std::uint64_t allocs_before_telemetry = allocations_now();
            telemetry_finishes.clear();
            fold_best(hot_telemetry,
                      run_hot(config, scua, contenders, options, runs,
                              warmup, telemetry_finishes));
            // Bridge the interposer into the telemetry schema: the
            // steady-state allocation count travels as heap_allocations.
            obs::count(obs::kHeapAllocations,
                       allocations_now() - allocs_before_telemetry);
            telemetry_counters = registry.counters();
            registry.disable();
        }

        if (mode_enabled("attribution")) {
            attributed_finishes.clear();
            fold_best(hot_attributed,
                      run_attributed(config, scua, contenders, options,
                                     runs, warmup, attributed_finishes,
                                     attribution));
        }

        if (mode_enabled("estimate")) time_estimates(config, estimate);
    }
    const bool estimated = estimate.seconds > 0.0;
    std::uint64_t mismatches = 0;
    for (std::size_t i = 0; i < naive_finishes.size(); ++i) {
        if (naive_finishes[i] != hot_finishes[i]) ++mismatches;
    }
    const double speedup = naive.runs_per_sec() > 0.0
                               ? hot.runs_per_sec() / naive.runs_per_sec()
                               : 0.0;
    std::uint64_t telemetry_mismatches = 0;
    for (std::size_t i = 0; i < telemetry_finishes.size(); ++i) {
        if (telemetry_finishes[i] != hot_finishes[i]) {
            ++telemetry_mismatches;
        }
    }
    const double telemetry_overhead_pct =
        hot.runs_per_sec() > 0.0
            ? 100.0 * (1.0 - hot_telemetry.runs_per_sec() /
                                 hot.runs_per_sec())
            : 0.0;
    std::uint64_t attribution_mismatches = 0;
    for (std::size_t i = 0; i < attributed_finishes.size(); ++i) {
        if (attributed_finishes[i] != hot_finishes[i]) {
            ++attribution_mismatches;
        }
    }
    bool attribution_closed = true;
    for (std::size_t core = 0; core < attribution.num_cores(); ++core) {
        if (attribution.core_total(static_cast<CoreId>(core)) !=
            attribution.machine_cycles()) {
            attribution_closed = false;
        }
    }
    const double attribution_overhead_pct =
        hot.runs_per_sec() > 0.0
            ? 100.0 * (1.0 - hot_attributed.runs_per_sec() /
                                 hot.runs_per_sec())
            : 0.0;

    char head[2048];
    std::snprintf(
        head, sizeof(head),
        "{\n"
        "  \"workload\": \"cacheb-vs-3x-rsk-load, ngmp_ref, 150 "
        "iterations\",\n"
        "  \"runs\": %llu,\n"
        "  \"warmup_runs\": %llu,\n"
        "  \"hot\": {\"runs_per_sec\": %s, \"cycles_per_sec\": %s, "
        "\"allocations_per_run\": %s, "
        "\"periods_fast_forwarded_per_run\": %s},\n"
        "  \"naive\": {\"runs_per_sec\": %s, \"cycles_per_sec\": "
        "%s},\n"
        "  \"speedup_runs_per_sec\": %s,\n"
        "  \"hwm_hot\": %llu,\n"
        "  \"differential_mismatches\": %llu,\n"
        "  \"steady_state_allocation_free\": %s,\n"
        "  \"pwcet_fold\": {\"allocations_per_run\": %s, "
        "\"block_nodes_per_run\": %s},\n"
        "  \"telemetry\": {\n"
        "    \"runs_per_sec\": %s,\n"
        "    \"overhead_pct\": %s,\n"
        "    \"mismatches_vs_untelemetered\": %llu,\n"
        "    \"counters\": ",
        static_cast<unsigned long long>(runs),
        static_cast<unsigned long long>(warmup),
        json_number("%.1f", hot.runs_per_sec()).c_str(),
        json_number("%.3e", hot.cycles_per_sec()).c_str(),
        json_number("%.4f", hot.allocs_per_run).c_str(),
        json_number("%.2f", hot.periods_per_run()).c_str(),
        json_number("%.1f", naive.runs_per_sec()).c_str(),
        json_number("%.3e", naive.cycles_per_sec()).c_str(),
        json_number("%.2f", speedup).c_str(),
        static_cast<unsigned long long>(hot.hwm),
        static_cast<unsigned long long>(mismatches),
        hot.allocs_per_run == 0.0 ? "true" : "false",
        json_number("%.4f", fold.per_run(fold.allocations)).c_str(),
        json_number("%.4f", fold.per_run(fold.block_nodes)).c_str(),
        json_number("%.1f", hot_telemetry.runs_per_sec()).c_str(),
        json_number("%.2f", telemetry_overhead_pct).c_str(),
        static_cast<unsigned long long>(telemetry_mismatches));
    std::string json = head;
    json += obs::render_counters_json(telemetry_counters, "    ");
    json += "\n  },\n";
    char attr_json[1024];
    std::snprintf(
        attr_json, sizeof(attr_json),
        "  \"attribution\": {\n"
        "    \"runs_per_sec\": %s,\n"
        "    \"overhead_pct\": %s,\n"
        "    \"mismatches_vs_unarmed\": %llu,\n"
        "    \"allocations_per_run\": %s,\n"
        "    \"periods_fast_forwarded_per_run\": %s,\n"
        "    \"closed_accounting\": %s,\n"
        "    \"machine_cycles\": %llu\n"
        "  },\n"
        "  \"estimate\": {\n"
        "    \"workload\": \"estimate_ubd, ngmp_ref, k_max 40, 20 "
        "iterations\",\n"
        "    \"seconds\": %s,\n"
        "    \"naive_seconds\": %s,\n"
        "    \"speedup\": %s,\n"
        "    \"periods_fast_forwarded_per_run\": %s,\n"
        "    \"mismatches_vs_naive\": %llu\n"
        "  }\n"
        "}\n",
        json_number("%.1f", hot_attributed.runs_per_sec()).c_str(),
        json_number("%.2f", attribution_overhead_pct).c_str(),
        static_cast<unsigned long long>(attribution_mismatches),
        json_number("%.4f", hot_attributed.allocs_per_run).c_str(),
        json_number("%.2f", hot_attributed.periods_per_run()).c_str(),
        attribution_closed ? "true" : "false",
        static_cast<unsigned long long>(attribution.machine_cycles()),
        json_number("%.4f", estimated ? estimate.seconds : NAN).c_str(),
        json_number("%.4f", estimated ? estimate.naive_seconds : NAN)
            .c_str(),
        json_number("%.2f", estimated ? estimate.speedup() : NAN).c_str(),
        json_number("%.2f", estimated ? estimate.periods_per_run() : NAN)
            .c_str(),
        static_cast<unsigned long long>(estimate.mismatches));
    json += attr_json;

    std::fputs(json.c_str(), stdout);
    if (out_path != nullptr) {
        std::FILE* f = std::fopen(out_path, "w");
        if (f != nullptr) {
            std::fputs(json.c_str(), f);
            std::fclose(f);
        }
    }
    if (telemetry_path != nullptr) {
        obs::RunReportInfo info;
        info.command = "bench_hotpath";
        info.campaign.seed = 0;
        info.campaign.total_runs = runs;
        info.campaign.first_run = warmup;
        info.campaign.last_run = warmup + runs;
        info.jobs = 1;
        info.wall_ns = static_cast<std::uint64_t>(
            hot_telemetry.seconds * 1e9);
        if (!obs::write_run_report(telemetry_path, info,
                                   telemetry_counters, {})) {
            std::fprintf(stderr,
                         "warning: could not write telemetry report "
                         "to %s\n",
                         telemetry_path);
        }
    }

    int rc = 0;
    if (hot.allocs_per_run != 0.0) {
        std::fprintf(stderr,
                     "FAIL: hot path performed %.4f heap allocations per "
                     "run in steady state (must be 0)\n",
                     hot.allocs_per_run);
        rc = 1;
    }
    // The workload's schedule turns periodic early in every run: a pass
    // that never fast-forwards has lost the steady-state skip.
    if (hot.runs > 0 && hot.periods == 0) {
        std::fprintf(stderr,
                     "FAIL: the hot pass fast-forwarded no steady-state "
                     "period (periods_fast_forwarded must be above 0)\n");
        rc = 1;
    }
    if (hot_attributed.runs > 0 && hot_attributed.periods == 0) {
        std::fprintf(stderr,
                     "FAIL: the attribution-armed pass fast-forwarded no "
                     "steady-state period (periods_fast_forwarded must be "
                     "above 0)\n");
        rc = 1;
    }
    if (fold.allocations > fold.block_nodes) {
        std::fprintf(stderr,
                     "FAIL: the pwcet fold performed %llu heap allocations "
                     "over %llu runs, beyond the %llu block-maxima nodes "
                     "it may add\n",
                     static_cast<unsigned long long>(fold.allocations),
                     static_cast<unsigned long long>(fold.runs),
                     static_cast<unsigned long long>(fold.block_nodes));
        rc = 1;
    }
    if (hot_telemetry.allocs_per_run != 0.0) {
        std::fprintf(stderr,
                     "FAIL: hot path with telemetry armed performed %.4f "
                     "heap allocations per run in steady state (must "
                     "be 0)\n",
                     hot_telemetry.allocs_per_run);
        rc = 1;
    }
    if (mismatches != 0) {
        std::fprintf(stderr,
                     "FAIL: %llu of %zu differential runs disagree between "
                     "the hot and naive paths\n",
                     static_cast<unsigned long long>(mismatches),
                     naive_finishes.size());
        rc = 1;
    }
    if (telemetry_mismatches != 0) {
        std::fprintf(stderr,
                     "FAIL: %llu runs changed result when telemetry was "
                     "enabled (must be bit-identical)\n",
                     static_cast<unsigned long long>(telemetry_mismatches));
        rc = 1;
    }
    if (hot_attributed.allocs_per_run != 0.0) {
        std::fprintf(stderr,
                     "FAIL: hot path with attribution armed performed "
                     "%.4f heap allocations per run in steady state "
                     "(must be 0)\n",
                     hot_attributed.allocs_per_run);
        rc = 1;
    }
    if (attribution_mismatches != 0) {
        std::fprintf(stderr,
                     "FAIL: %llu runs changed result when attribution was "
                     "armed (must be bit-identical)\n",
                     static_cast<unsigned long long>(attribution_mismatches));
        rc = 1;
    }
    if (!attribution_closed) {
        std::fprintf(stderr,
                     "FAIL: attribution accounting is not closed — some "
                     "core's cause timeline does not sum to the machine "
                     "cycles\n");
        rc = 1;
    }
    if (hot.runs > 0 && hot_attributed.runs > 0 &&
        attribution_overhead_pct > kMaxAttributionOverheadPct) {
        std::fprintf(stderr,
                     "FAIL: attribution-armed overhead %.2f%% exceeds the "
                     "%.0f%% ceiling (armed runs must replay, not "
                     "interpret)\n",
                     attribution_overhead_pct, kMaxAttributionOverheadPct);
        rc = 1;
    }
    // The rsk-nop runs settle within a few bodies: a replayed sweep
    // that never fast-forwards has lost the steady-state skip of looping
    // scuas.
    if (estimated && estimate.periods == 0) {
        std::fprintf(stderr,
                     "FAIL: the replayed estimate fast-forwarded no "
                     "steady-state period (periods_fast_forwarded must be "
                     "above 0)\n");
        rc = 1;
    }
    if (estimate.mismatches != 0) {
        std::fprintf(stderr,
                     "FAIL: %llu estimate sweeps disagree between the "
                     "replayed and the fresh-machine paths\n",
                     static_cast<unsigned long long>(estimate.mismatches));
        rc = 1;
    }
    if (estimated && estimate.speedup() < kMinEstimateSpeedup) {
        std::fprintf(stderr,
                     "FAIL: estimate speedup %.2fx over the fresh-machine "
                     "interpreter is below the %.1fx floor (the sweep "
                     "must replay on leased machines)\n",
                     estimate.speedup(), kMinEstimateSpeedup);
        rc = 1;
    }
    if (baseline_path != nullptr && max_regression_pct >= 0.0) {
        struct Gate {
            const char* section;
            double measured;
        };
        const Gate gates[] = {
            {"hot", hot.runs_per_sec()},
            {"attribution", hot_attributed.runs_per_sec()},
        };
        for (const Gate& gate : gates) {
            const double reference =
                baseline_runs_per_sec(baseline_path, gate.section);
            if (reference <= 0.0) {
                std::fprintf(stderr,
                             "note: no %s runs_per_sec baseline in %s — "
                             "regression gate skipped\n",
                             gate.section, baseline_path);
                continue;
            }
            const double floor =
                reference * (1.0 - max_regression_pct / 100.0);
            if (gate.measured < floor) {
                std::fprintf(stderr,
                             "FAIL: %s path at %.1f runs/s is more than "
                             "%.0f%% below the committed baseline "
                             "%.1f runs/s\n",
                             gate.section, gate.measured,
                             max_regression_pct, reference);
                rc = 1;
            } else {
                std::fprintf(stderr,
                             "perf gate [%s]: %.1f runs/s vs baseline "
                             "%.1f (floor %.1f) — ok\n",
                             gate.section, gate.measured, reference, floor);
            }
        }
    }
    return rc;
}
