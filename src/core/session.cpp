#include "core/session.h"

#include <algorithm>
#include <numeric>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "engine/progress.h"
#include "engine/thread_pool.h"
#include "obs/telemetry.h"
#include "sched/campaign_scheduler.h"
#include "sim/contract.h"
#include "stats/series.h"

namespace rrb {

namespace {

/// Applies the set axis values to a copy of the base config, sharing
/// MachineConfig::scaled's choices (one 64KB L2 way per core, the
/// retime_bus timing model) where an axis is present and keeping the
/// base's settings where it is not.
MachineConfig apply_axes(MachineConfig config, std::optional<CoreId> cores,
                         std::optional<Cycle> lbus,
                         std::optional<ArbiterKind> arbiter) {
    if (cores.has_value()) {
        RRB_REQUIRE(*cores >= 1, "need at least one core");
        config.num_cores = *cores;
        config.l2_geometry.ways = *cores;
        config.l2_geometry.size_bytes = 64ULL * 1024 * *cores;
    }
    if (lbus.has_value()) config.retime_bus(*lbus);
    if (arbiter.has_value()) config.arbiter = *arbiter;
    config.validate();
    return config;
}

/// The statistical half of every pwcet path (standalone, sweep, batch,
/// checkpoint, resume), checked before any run starts.
void validate(const PwcetSpec& spec) {
    RRB_REQUIRE(spec.block_size >= 1, "block size must be positive");
    for (const double e : spec.exceedance) {
        RRB_REQUIRE(e > 0.0 && e < 1.0, "exceedance probability in (0,1)");
    }
}

engine::ReducePlan plan_of(const Scenario& scenario) {
    return engine::ReducePlan::for_count(
        static_cast<std::uint64_t>(scenario.run_protocol().runs));
}

/// Every plan shard of `range`, ascending.
std::vector<std::size_t> shards_of(engine::ReducePlan::ShardRange range) {
    std::vector<std::size_t> shards(range.size());
    std::iota(shards.begin(), shards.end(), range.first);
    return shards;
}

/// Lowers a scenario into the scheduler's work unit — the one lowering
/// every campaign uses, so a batch point and a standalone campaign fold
/// identical inputs.
sched::CampaignWork lower(const Scenario& scenario,
                          std::vector<std::size_t> shards,
                          const char* span_name = "campaign",
                          std::uint64_t span_index = 0) {
    return {{scenario.config(), scenario.scua_program(),
             scenario.contender_programs(), scenario.run_protocol()},
            std::move(shards),
            span_name,
            span_index};
}

// The per-run folds: how one campaign run lands in each accumulator
// (the pwcet fold is detail::fold_pwcet_run).

void fold_measurement(WhiteboxAccumulator& acc,
                      const sched::CampaignInputs& in, std::uint64_t run) {
    acc.add(run, detail::hwm_campaign_measure(in.config, in.scua,
                                              in.contenders, in.protocol,
                                              run, in.fingerprint));
}

/// Exec times below 2^53, so the trip through double is exact.
void fold_exec_time(Series& acc, const sched::CampaignInputs& in,
                    std::uint64_t run) {
    acc.add(static_cast<double>(detail::hwm_campaign_run(
        in.config, in.scua, in.contenders, in.protocol, run,
        in.fingerprint)));
}

void fold_attribution(AttributionAccumulator& acc,
                      const sched::CampaignInputs& in, std::uint64_t run) {
    static_cast<void>(detail::hwm_campaign_attribute(
        in.config, in.scua, in.contenders, in.protocol, run, acc,
        in.fingerprint));
}

/// Runs plan shards `shards` of the scenario's campaign as a batch of one
/// on `pool`, ticking `progress` (announced by the caller) once per run.
template <typename Acc>
engine::ShardSlice<Acc> run_alone(engine::ThreadPool& pool,
                                  engine::ProgressCounter* progress,
                                  const Scenario& scenario,
                                  std::vector<std::size_t> shards, Acc init,
                                  sched::RunFold<Acc> fold) {
    sched::CampaignScheduler scheduler(pool);
    scheduler.add(lower(scenario, std::move(shards)), std::move(init), fold);
    scheduler.run({.runs = progress});
    return scheduler.take<Acc>(0);
}

/// A whole campaign as a batch of one, announced on `progress`.
template <typename Acc>
engine::ShardSlice<Acc> run_whole(engine::ThreadPool& pool,
                                  engine::ProgressCounter* progress,
                                  const Scenario& scenario, Acc init,
                                  sched::RunFold<Acc> fold) {
    const engine::ReducePlan plan = plan_of(scenario);
    if (progress != nullptr) {
        progress->begin(static_cast<std::size_t>(plan.count));
    }
    return run_alone(pool, progress, scenario, shards_of({0, plan.shards()}),
                     std::move(init), fold);
}

/// A checkpoint of slice `slice` of a campaign, from the shards that ran
/// for it.
template <typename Acc>
Checkpoint<Acc> to_checkpoint(CheckpointMeta meta, const SliceSpec& slice,
                              const engine::ReducePlan& plan,
                              engine::ReducePlan::ShardRange range,
                              engine::ShardSlice<Acc> run) {
    Checkpoint<Acc> checkpoint;
    checkpoint.meta = std::move(meta);
    checkpoint.meta.slice_index = slice.index;
    checkpoint.meta.slice_count = slice.count;
    checkpoint.meta.first_run =
        range.size() > 0 ? plan.shard_begin(range.first) : 0;
    checkpoint.meta.last_run = checkpoint.meta.first_run + plan.runs(range);
    checkpoint.meta.et_isolation = run.et_isolation;
    checkpoint.meta.nr = run.nr;
    checkpoint.first_shard = range.first;
    checkpoint.shards = std::move(run.shards);
    return checkpoint;
}

/// Runs slice `slice` of a campaign as a batch of one, announced on
/// `progress`, and writes its checkpoint to `path`; `meta` is the
/// campaign identity. Returns the checkpoint written.
template <typename Acc>
Checkpoint<Acc> checkpoint_slice(engine::ThreadPool& pool,
                                 engine::ProgressCounter* progress,
                                 const Scenario& scenario, CheckpointMeta meta,
                                 const SliceSpec& slice,
                                 const std::string& path, Acc init,
                                 sched::RunFold<Acc> fold) {
    const engine::ReducePlan plan = plan_of(scenario);
    const engine::ReducePlan::ShardRange range =
        plan.slice(slice.index, slice.count);
    const obs::Span span("session.checkpoint", slice.index, range.size());
    if (progress != nullptr) {
        progress->begin(static_cast<std::size_t>(plan.runs(range)));
    }
    const Checkpoint<Acc> checkpoint = to_checkpoint(
        std::move(meta), slice, plan, range,
        run_alone(pool, progress, scenario, shards_of(range),
                  std::move(init), fold));
    save_checkpoint(path, checkpoint);
    return checkpoint;
}

template <typename Acc>
std::vector<Checkpoint<Acc>> load_all(const std::vector<std::string>& paths) {
    RRB_REQUIRE(!paths.empty(), "merge needs at least one checkpoint file");
    std::vector<Checkpoint<Acc>> checkpoints;
    checkpoints.reserve(paths.size());
    for (const std::string& path : paths) {
        checkpoints.push_back(load_checkpoint<Acc>(path));
    }
    return checkpoints;
}

}  // namespace

CheckpointMeta campaign_meta(const Scenario& scenario,
                             const PwcetSpec& spec) {
    const engine::ReducePlan plan = plan_of(scenario);
    CheckpointMeta meta;
    meta.scenario_fingerprint = scenario.fingerprint();
    meta.seed = scenario.run_protocol().seed;
    meta.total_runs = plan.count;
    meta.block_size = spec.block_size;
    meta.shard_size = plan.shard_size;
    meta.plan_shards = plan.shards();
    meta.shard_plan_hash =
        shard_plan_hash(meta.total_runs, meta.shard_size, meta.plan_shards);
    meta.last_run = meta.total_runs;
    meta.ubd_analytic = scenario.config().ubd_analytic();
    meta.exceedance = spec.exceedance;
    return meta;
}

void detail::fold_pwcet_run(PwcetAccumulator& acc,
                            const sched::CampaignInputs& in,
                            std::uint64_t run) {
    acc.add(run, detail::hwm_campaign_run(in.config, in.scua, in.contenders,
                                          in.protocol, run, in.fingerprint));
}

Session::Session() = default;
Session::~Session() = default;

Session& Session::jobs(std::size_t n) {
    RRB_REQUIRE(pool_ == nullptr,
                "set the jobs budget before the first campaign call");
    jobs_ = n;
    return *this;
}

Session& Session::progress(engine::ProgressCounter* sink) {
    progress_ = sink;
    return *this;
}

std::size_t Session::worker_budget() const noexcept {
    return jobs_ == 0 ? engine::ThreadPool::default_jobs() : jobs_;
}

engine::ThreadPool& Session::shared_pool() {
    if (pool_ == nullptr) {
        pool_ = std::make_unique<engine::ThreadPool>(worker_budget());
    }
    return *pool_;
}

Measurement Session::isolation(const Scenario& scenario) const {
    scenario.validate();
    const Cycle cap = scenario.run_protocol().max_cycles_per_run;
    Measurement m =
        run_isolation(scenario.config(), scenario.scua_program(), 0, cap);
    // A capped run is not a measurement — same contract as the
    // campaign paths. Probe with the low-level run_isolation when
    // deadline_reached is the thing being asked.
    require_within_cap(m, cap);
    return m;
}

Measurement Session::contention(const Scenario& scenario) const {
    scenario.validate();
    const Cycle cap = scenario.run_protocol().max_cycles_per_run;
    Measurement m = run_contention(scenario.config(),
                                   scenario.scua_program(),
                                   scenario.contender_programs(), 0, cap);
    require_within_cap(m, cap);
    return m;
}

SlowdownResult Session::slowdown(const Scenario& scenario) const {
    return {isolation(scenario), contention(scenario)};
}

HwmCampaignResult Session::hwm(const Scenario& scenario) {
    scenario.validate();
    const obs::Span span("session.hwm", 0,
                         scenario.run_protocol().runs);
    engine::ShardSlice<Series> run = run_whole(
        shared_pool(), progress_, scenario, Series{}, &fold_exec_time);
    const Series times = engine::merge_in_order(std::move(run.shards));
    HwmCampaignResult result;
    result.et_isolation = run.et_isolation;
    result.nr = run.nr;
    result.exec_times.assign(times.values().begin(), times.values().end());
    const auto [lwm, hwm] = std::minmax_element(result.exec_times.begin(),
                                                result.exec_times.end());
    result.high_water_mark = *hwm;
    result.low_water_mark = *lwm;
    return result;
}

PwcetCampaignResult Session::pwcet(const Scenario& scenario,
                                   const PwcetSpec& spec) {
    scenario.validate();
    validate(spec);
    const obs::Span span("session.pwcet", 0,
                         scenario.run_protocol().runs);
    engine::ShardSlice<PwcetAccumulator> run =
        run_whole(shared_pool(), progress_, scenario,
                  PwcetAccumulator(spec.block_size),
                  &detail::fold_pwcet_run);
    return finalize_pwcet_campaign(
        engine::merge_in_order(std::move(run.shards)), run.et_isolation,
        run.nr, spec.exceedance);
}

engine::WhiteboxCampaignResult Session::whitebox(const Scenario& scenario) {
    scenario.validate();
    const obs::Span span("session.whitebox", 0,
                         scenario.run_protocol().runs);
    engine::ShardSlice<WhiteboxAccumulator> run =
        run_whole(shared_pool(), progress_, scenario, WhiteboxAccumulator{},
                  &fold_measurement);
    return {run.et_isolation, run.nr,
            engine::merge_in_order(std::move(run.shards))};
}

engine::AttributionCampaignResult Session::attribution(
    const Scenario& scenario) {
    scenario.validate();
    const obs::Span span("session.attribution", 0,
                         scenario.run_protocol().runs);
    engine::ShardSlice<AttributionAccumulator> run =
        run_whole(shared_pool(), progress_, scenario,
                  AttributionAccumulator{}, &fold_attribution);
    return {run.et_isolation, run.nr,
            engine::merge_in_order(std::move(run.shards))};
}

SweepResult Session::sweep(const Scenario& scenario, const SweepAxes& axes,
                           const PwcetSpec& spec) {
    scenario.validate();
    validate(spec);

    // Enumerate every axis. An empty axis contributes a single
    // disengaged value: apply_axes leaves the base config's setting
    // completely untouched (re-timing the bus to an equal lbus would
    // still be a different machine).
    const auto axis_values = [](const auto& axis) {
        using Value = typename std::decay_t<decltype(axis)>::value_type;
        std::vector<std::optional<Value>> values;
        if (axis.empty()) {
            values.push_back(std::nullopt);
        } else {
            for (const Value& v : axis) values.push_back(v);
        }
        return values;
    };
    const auto cores = axis_values(axes.cores);
    const auto lbus = axis_values(axes.lbus);
    const auto arbiters = axis_values(axes.arbiters);

    const std::size_t total_runs =
        axes.points() * scenario.run_protocol().runs;
    if (progress_ != nullptr) progress_->begin(total_runs);

    const obs::Span sweep_span("session.sweep", 0, total_runs);
    // Lower the whole grid up front, then drain it as one flat
    // (campaign × shard) queue — no barrier between grid points, so
    // the tail shards of one point overlap the head of the next and
    // every worker stays busy to the end of the grid.
    sched::CampaignScheduler scheduler(shared_pool());
    const engine::ReducePlan plan = plan_of(scenario);
    SweepResult result;
    result.points.reserve(axes.points());
    for (const std::optional<CoreId>& c : cores) {
        for (const std::optional<Cycle>& l : lbus) {
            for (const std::optional<ArbiterKind>& a : arbiters) {
                SweepPoint point;
                point.config = apply_axes(scenario.config(), c, l, a);
                point.cores = point.config.num_cores;
                point.lbus = point.config.load_hit_service();
                point.arbiter = point.config.arbiter;
                const Scenario retargeted =
                    scenario.with_config(point.config);
                scheduler.add(
                    lower(retargeted, shards_of({0, plan.shards()}),
                          "grid-point", result.points.size()),
                    PwcetAccumulator(spec.block_size),
                    &detail::fold_pwcet_run);
                result.points.push_back(std::move(point));
            }
        }
    }
    scheduler.run({.runs = progress_});
    for (std::size_t p = 0; p < result.points.size(); ++p) {
        engine::ShardSlice<PwcetAccumulator> run =
            scheduler.take<PwcetAccumulator>(p);
        result.points[p].result = finalize_pwcet_campaign(
            engine::merge_in_order(std::move(run.shards)), run.et_isolation,
            run.nr, spec.exceedance);
    }
    return result;
}

BatchResult Session::batch(const std::vector<BatchItem>& items,
                           sched::BatchProgress* monitor) {
    RRB_REQUIRE(!items.empty(), "batch needs at least one scenario");
    RRB_REQUIRE(monitor == nullptr || monitor->campaigns() == items.size(),
                "batch monitor must be announced with one entry per item");
    std::size_t total_runs = 0;
    for (const BatchItem& item : items) {
        item.scenario.validate();
        validate(item.spec);
        total_runs += item.scenario.run_protocol().runs;
    }
    if (progress_ != nullptr) progress_->begin(total_runs);
    const obs::Span span("session.batch", 0, total_runs);

    sched::CampaignScheduler scheduler(shared_pool());
    for (std::size_t i = 0; i < items.size(); ++i) {
        scheduler.add(lower(items[i].scenario,
                            shards_of({0, plan_of(items[i].scenario).shards()}),
                            "campaign", i),
                      PwcetAccumulator(items[i].spec.block_size),
                      &detail::fold_pwcet_run);
    }
    scheduler.run({.batch = monitor, .runs = progress_});

    BatchResult result;
    result.points.reserve(items.size());
    for (std::size_t i = 0; i < items.size(); ++i) {
        const BatchItem& item = items[i];
        BatchPointResult& point = result.points.emplace_back();
        point.name = item.name;
        const sched::CampaignScheduler::CampaignStatus& status =
            scheduler.status(i);
        if (status.failed) {
            // This scenario's failure domain only: report it and keep
            // collecting the healthy campaigns' results.
            point.ok = false;
            point.error = status.error;
            continue;
        }
        // The whole campaign as slice 0 of 1 — the exact checkpoint
        // `checkpoint(scenario, spec, {0, 1}, path)` would have written,
        // so batch output farms through the same merge tooling.
        const engine::ReducePlan plan = plan_of(item.scenario);
        point.checkpoint = to_checkpoint(
            campaign_meta(item.scenario, item.spec), {0, 1}, plan,
            {0, plan.shards()}, scheduler.take<PwcetAccumulator>(i));
        point.result = finalize_pwcet_campaign(
            engine::merge_in_order(point.checkpoint.shards),
            point.checkpoint.meta.et_isolation, point.checkpoint.meta.nr,
            item.spec.exceedance);
    }
    return result;
}

PwcetCheckpoint Session::checkpoint(const Scenario& scenario,
                                    const PwcetSpec& spec,
                                    const SliceSpec& slice,
                                    const std::string& path) {
    scenario.validate();
    validate(spec);
    return checkpoint_slice(
        shared_pool(), progress_, scenario, campaign_meta(scenario, spec),
        slice, path, PwcetAccumulator(spec.block_size),
        &detail::fold_pwcet_run);
}

WhiteboxCheckpoint Session::checkpoint(const Scenario& scenario,
                                       const SliceSpec& slice,
                                       const std::string& path) {
    scenario.validate();
    // The campaign identity minus the EVT half: white-box campaigns
    // have no block size or exceedance list (encoded as 0 / empty).
    return checkpoint_slice(
        shared_pool(), progress_, scenario,
        campaign_meta(scenario, PwcetSpec{0, {}}), slice, path,
        WhiteboxAccumulator{}, &fold_measurement);
}

MergedPwcetCampaign Session::merge(
    const std::vector<std::string>& paths) const {
    return merge_pwcet_checkpoints(load_all<PwcetAccumulator>(paths), paths);
}

MergedWhiteboxCampaign Session::merge_whitebox(
    const std::vector<std::string>& paths) const {
    return merge_checkpoints(load_all<WhiteboxAccumulator>(paths), paths);
}

PwcetCampaignResult Session::resume(const Scenario& scenario,
                                    const PwcetSpec& spec,
                                    const std::vector<std::string>& paths) {
    return resume_impl(scenario, spec, paths, nullptr);
}

PwcetCampaignResult Session::resume(const Scenario& scenario,
                                    const PwcetSpec& spec,
                                    const std::vector<std::string>& paths,
                                    ResumeRecovery& recovery) {
    return resume_impl(scenario, spec, paths, &recovery);
}

PwcetCampaignResult Session::resume_impl(
    const Scenario& scenario, const PwcetSpec& spec,
    const std::vector<std::string>& paths, ResumeRecovery* recovery) {
    scenario.validate();
    validate(spec);
    const obs::Span span("session.resume", 0,
                         scenario.run_protocol().runs);
    const engine::ReducePlan plan = plan_of(scenario);
    CheckpointMeta expected = campaign_meta(scenario, spec);

    // Load and validate: every checkpoint must identify as a slice of
    // *this* campaign before any of its state is trusted. The expected
    // meta knows everything except the isolation baseline (measured,
    // not specified); the first *accepted* checkpoint supplies it and
    // every later one must agree. In recovery mode a checkpoint that
    // fails to load or identify is quarantined (or, if unreadable at
    // the I/O level, just recorded) and its coverage recomputed; in
    // strict mode it throws exactly as before.
    ShardCoverage<PwcetAccumulator> coverage(plan.shards());
    bool have_baseline = false;
    for (std::size_t i = 0; i < paths.size(); ++i) {
        PwcetCheckpoint checkpoint;
        try {
            checkpoint = load_pwcet_checkpoint(paths[i]);
            // Adopt the baseline transactionally: a mismatched first
            // checkpoint must not poison `expected` for its successors.
            CheckpointMeta candidate = expected;
            if (!have_baseline) {
                candidate.et_isolation = checkpoint.meta.et_isolation;
                candidate.nr = checkpoint.meta.nr;
            }
            require_same_campaign(checkpoint.meta, candidate, paths[i],
                                  "the campaign being resumed");
            expected = candidate;
            have_baseline = true;
        } catch (const CheckpointError& e) {
            if (recovery == nullptr) throw;
            RecoveryAction action;
            action.path = paths[i];
            action.reason = e.reason().empty() ? e.what() : e.reason();
            if (e.kind() != CheckpointError::Kind::kIo) {
                // The file exists but is not a usable slice of this
                // campaign — move it aside so a re-run cannot trip
                // over it again.
                action.quarantined_to = quarantine_checkpoint(paths[i]);
            }
            recovery->actions.push_back(std::move(action));
            continue;
        }
        const std::optional<std::size_t> duplicate = coverage.adopt(
            checkpoint, i, paths, /*strict=*/recovery == nullptr);
        if (duplicate) {
            // Valid data, redundant coverage (e.g. the same slice
            // checkpointed twice across crashes): first owner wins, the
            // file stays in place.
            recovery->actions.push_back(
                {paths[i],
                 "shard " + std::to_string(*duplicate) +
                     " already covered by " +
                     paths[*coverage.owner[*duplicate]] +
                     "; ignoring the duplicate coverage",
                 std::string()});
        }
    }

    // Every uncovered shard runs as one campaign — one isolation
    // measurement however many gaps the checkpoints left. Progress is
    // announced once for the whole campaign, with the checkpointed runs
    // counted as already completed: the progress line (and any heartbeat
    // ETA built on it) sees "covered/total" from the first tick.
    std::vector<std::size_t> uncovered;
    std::uint64_t covered_runs = 0;
    for (std::size_t s = 0; s < plan.shards(); ++s) {
        if (coverage.owner[s]) {
            covered_runs += plan.shard_end(s) - plan.shard_begin(s);
        } else {
            uncovered.push_back(s);
        }
    }
    if (progress_ != nullptr) {
        progress_->begin_resumed(static_cast<std::size_t>(plan.count),
                                 static_cast<std::size_t>(covered_runs));
    }
    if (!uncovered.empty()) {
        obs::count(obs::kResumeShardsRerun, uncovered.size());
        if (recovery != nullptr) recovery->shards_rerun += uncovered.size();
        engine::ShardSlice<PwcetAccumulator> fresh = run_alone(
            shared_pool(), progress_, scenario, std::move(uncovered),
            PwcetAccumulator(spec.block_size),
            &detail::fold_pwcet_run);
        if (have_baseline && (fresh.et_isolation != expected.et_isolation ||
                              fresh.nr != expected.nr)) {
            // The fingerprints matched, so a diverging deterministic
            // baseline means the checkpoint does not come from this
            // scenario after all.
            throw CheckpointError(
                "checkpointed isolation baseline disagrees with the "
                "scenario being resumed");
        }
        expected.et_isolation = fresh.et_isolation;
        expected.nr = fresh.nr;
        for (std::size_t k = 0; k < fresh.indices.size(); ++k) {
            coverage.by_shard[fresh.indices[k]] = std::move(fresh.shards[k]);
        }
    }
    return finalize_pwcet_campaign(
        engine::merge_in_order(std::move(coverage.by_shard)),
        expected.et_isolation,
        expected.nr, spec.exceedance);
}

}  // namespace rrb
