// Session: the single entry point that executes Scenarios.
//
// A Scenario (core/scenario.h) says *what* to run; a Session owns the
// execution policy — worker budget, progress sink, one shared thread
// pool reused across calls — and exposes typed entry points:
//
//   Session session;
//   session.jobs(8).progress(&counter);
//   HwmCampaignResult   hwm = session.hwm(scenario);
//   PwcetCampaignResult p   = session.pwcet(scenario, PwcetSpec{});
//   auto                wb  = session.whitebox(scenario);
//   SweepResult         g   = session.sweep(scenario, axes, spec);
//
// Every campaign entry point runs through sched::CampaignScheduler on
// the session's shared pool: hwm, pwcet, whitebox, attribution, both
// checkpoint overloads and resume each submit a batch of one; sweep()
// and batch() submit many. Results are therefore bit-identical at every
// jobs value, including 1, and a sweep grid point or batch scenario is
// bit-identical to the standalone call by construction. sweep() runs a
// grid of MachineConfig variations (cores / lbus / arbiter axes) where
// each grid point is a streamed pWCET campaign, drained as ONE flat
// (campaign × shard) queue — no per-point barrier, so a wide grid keeps
// every worker busy to the end. batch() does the same for heterogeneous
// scenarios and hands back one whole-campaign checkpoint per scenario.
//
// This is the high-level layer; the per-run primitives in
// core/campaign.h and core/experiment.h sit underneath.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include <string>

#include "core/campaign.h"
#include "core/experiment.h"
#include "core/scenario.h"
#include "engine/reduce.h"
#include "machine/config.h"
#include "sim/types.h"
#include "stats/checkpoint.h"

namespace rrb {

namespace sched {
class BatchProgress;
struct CampaignInputs;
}  // namespace sched

namespace detail {

/// The per-run fold of every pwcet path (standalone, checkpoint, resume,
/// sweep, batch): runs run `run` on a leased machine and folds its
/// finish cycle — no Measurement snapshot, so no histogram copies.
/// Public for bench_hotpath's allocation audit.
void fold_pwcet_run(PwcetAccumulator& acc,
                    const sched::CampaignInputs& inputs, std::uint64_t run);

}  // namespace detail

/// Axes of a MachineConfig grid. Empty axis = keep the base scenario's
/// value (a single implicit point on that axis); the grid is the cross
/// product of the non-empty axes, enumerated cores-major, then lbus,
/// then arbiter — a pure function of the axes, never of the jobs count.
struct SweepAxes {
    std::vector<CoreId> cores;
    std::vector<Cycle> lbus;  ///< bus occupancy of one L2 load hit
    std::vector<ArbiterKind> arbiters;

    [[nodiscard]] std::size_t points() const noexcept {
        const auto dim = [](std::size_t n) { return n == 0 ? 1 : n; };
        return dim(cores.size()) * dim(lbus.size()) * dim(arbiters.size());
    }
};

/// One grid point: the axis values it was built from, the derived
/// config, and the streamed pWCET campaign result — bit-identical to
/// running Session::pwcet standalone on `config` with the same
/// scenario protocol and spec.
struct SweepPoint {
    CoreId cores = 0;
    Cycle lbus = 0;
    ArbiterKind arbiter = ArbiterKind::kRoundRobin;
    MachineConfig config;
    PwcetCampaignResult result;
};

struct SweepResult {
    std::vector<SweepPoint> points;  ///< in axes enumeration order
};

/// One scenario of a batch() call: a label (names the checkpoint and
/// report lines; unique within the batch) plus the scenario and its
/// statistical spec. Scenarios may be fully heterogeneous — different
/// configs, workloads, run counts, seeds.
struct BatchItem {
    std::string name;
    Scenario scenario;
    PwcetSpec spec;
};

/// One completed batch campaign: the whole-campaign checkpoint (slice
/// 0 of 1 — loadable by merge() on its own or alongside nothing else)
/// and the finalized result, both bit-identical to running
/// `pwcet(scenario, spec)` standalone. Campaigns are independent
/// failure domains (sched::CampaignScheduler supervision): when a
/// scenario's campaign fails, its point comes back with ok == false
/// and the first captured error — checkpoint/result are
/// default-constructed and meaningless — while every other point is
/// exactly what an all-healthy batch would have produced.
struct BatchPointResult {
    std::string name;
    bool ok = true;
    std::string error;  ///< first captured failure, when !ok
    PwcetCheckpoint checkpoint;
    PwcetCampaignResult result;
};

struct BatchResult {
    std::vector<BatchPointResult> points;  ///< in batch order
};

/// Which slice of a checkpointed campaign to run: slice `index` of
/// `count`. Slices divide the campaign's shard plan (engine/reduce.h)
/// into contiguous ranges, so any full set of slices — run on any mix
/// of processes or machines — merges into exactly the monolithic
/// result.
struct SliceSpec {
    std::size_t index = 0;
    std::size_t count = 1;
};

/// The identity of `scenario`'s campaign under `spec`: scenario
/// fingerprint, seed, run count, block size, shard plan, analytic ubd
/// and exceedance list, covering every run as slice 0 of 1. Checkpoints
/// stamp it (narrowed to their slice, plus the isolation baseline that
/// ran), resume validates loaded checkpoints against it, and run
/// reports record it. Campaigns without an EVT half (hwm, whitebox,
/// attribution) pass PwcetSpec{0, {}}.
[[nodiscard]] CheckpointMeta campaign_meta(const Scenario& scenario,
                                           const PwcetSpec& spec);

class Session {
public:
    Session();
    ~Session();

    Session(const Session&) = delete;
    Session& operator=(const Session&) = delete;

    // --------------------------------------------- execution policy

    /// Worker budget; 0 = hardware concurrency. Must be set before the
    /// first campaign call — the shared pool is built lazily at that
    /// width and reused for the session's lifetime. The pool is sized
    /// to the budget, not to any one call's workload: clamping to the
    /// first campaign's run count would silently under-parallelize
    /// every later, larger call. Workers beyond a small campaign's
    /// needs just sleep.
    Session& jobs(std::size_t n);
    [[nodiscard]] std::size_t jobs() const noexcept { return jobs_; }

    /// The resolved worker count the shared pool has (or will be built
    /// with): the jobs budget, with 0 resolved to hardware concurrency.
    /// Front ends should report this rather than re-deriving the
    /// resolution policy.
    [[nodiscard]] std::size_t worker_budget() const noexcept;

    /// Optional progress sink, announced with the runs a call will
    /// execute and ticked once per run: a sweep's total is points ×
    /// runs, a batch's the sum of its scenarios' runs, and resume counts
    /// its checkpointed runs as already completed.
    Session& progress(engine::ProgressCounter* sink);

    // ------------------------------------------------- entry points

    /// Single runs (no campaign randomization): the scua alone, and the
    /// scua against the scenario's contenders. Both respect the
    /// scenario protocol's cycle cap.
    [[nodiscard]] Measurement isolation(const Scenario& scenario) const;
    [[nodiscard]] Measurement contention(const Scenario& scenario) const;
    [[nodiscard]] SlowdownResult slowdown(const Scenario& scenario) const;

    /// Materializing HWM campaign (one exec time per run, folded as a
    /// run-ordered Series).
    [[nodiscard]] HwmCampaignResult hwm(const Scenario& scenario);

    /// Streamed pWCET campaign: O(runs / block_size) live memory.
    [[nodiscard]] PwcetCampaignResult pwcet(const Scenario& scenario,
                                            const PwcetSpec& spec = {});

    /// White-box campaign statistics through the sharded merge path.
    [[nodiscard]] engine::WhiteboxCampaignResult whitebox(
        const Scenario& scenario);

    /// Cycle-attribution campaign: every run executes with the
    /// profiler armed and the per-core cause timelines plus the
    /// per-contender blame matrix are summed over the campaign.
    /// Exact integer sums → bit-identical at every jobs value and
    /// through any shard/merge slicing.
    [[nodiscard]] engine::AttributionCampaignResult attribution(
        const Scenario& scenario);

    /// Grid of MachineConfig variations, each point a streamed pWCET
    /// campaign over the re-targeted scenario. See the module comment
    /// for the nesting/jobs contract.
    [[nodiscard]] SweepResult sweep(const Scenario& scenario,
                                    const SweepAxes& axes,
                                    const PwcetSpec& spec = {});

    /// Runs every scenario of the batch as one flat (campaign × shard)
    /// queue on the shared pool — concurrent heterogeneous campaigns,
    /// each result and checkpoint bit-identical to a standalone
    /// pwcet()/checkpoint() of that scenario. `monitor`, if given, must
    /// already be announce()d with one (name, runs) entry per item in
    /// batch order; the session's progress sink ticks per run across
    /// the whole batch.
    [[nodiscard]] BatchResult batch(const std::vector<BatchItem>& items,
                                    sched::BatchProgress* monitor = nullptr);

    // --------------------------------------- checkpointed campaigns

    /// Runs slice `slice.index` of `slice.count` of the scenario's
    /// pWCET campaign and writes its accumulator state plus campaign
    /// identity (scenario fingerprint, seed, run range, shard-plan
    /// hash) to `path`. Merging every slice — across processes or
    /// machines — is bit-identical to `pwcet(scenario, spec)` at every
    /// jobs value. Returns the checkpoint that was written.
    PwcetCheckpoint checkpoint(const Scenario& scenario,
                               const PwcetSpec& spec, const SliceSpec& slice,
                               const std::string& path);

    /// White-box overload: runs slice `slice.index` of `slice.count` of
    /// the scenario's *white-box* campaign (gamma / ready-contenders /
    /// injection histograms plus the run-ordered exec-time series) and
    /// writes the slice to `path`. Merging every slice reproduces
    /// `whitebox(scenario)` bit-identically — the distributed form of
    /// the validation-figure campaigns.
    WhiteboxCheckpoint checkpoint(const Scenario& scenario,
                                  const SliceSpec& slice,
                                  const std::string& path);

    /// Loads, cross-validates and merges checkpoint files into the
    /// full-campaign result. Throws CheckpointError — naming the file —
    /// on unreadable/corrupt input, on checkpoints from different
    /// campaigns, and on duplicate or missing slices.
    [[nodiscard]] MergedPwcetCampaign merge(
        const std::vector<std::string>& paths) const;

    /// White-box counterpart of merge(); rejects pwcet checkpoints (the
    /// file format tags its payload kind).
    [[nodiscard]] MergedWhiteboxCampaign merge_whitebox(
        const std::vector<std::string>& paths) const;

    /// Completes a partially checkpointed campaign: validates every
    /// checkpoint against this (scenario, spec) — mismatched
    /// fingerprints, seeds, plans and duplicate slices are rejected
    /// loudly — runs whatever shard ranges no checkpoint covers, and
    /// returns the merged result, bit-identical to `pwcet(scenario,
    /// spec)`. With full coverage nothing re-runs; with no paths this
    /// is the monolithic campaign.
    [[nodiscard]] PwcetCampaignResult resume(
        const Scenario& scenario, const PwcetSpec& spec,
        const std::vector<std::string>& paths);

    /// One defensive step resume took in recovery mode, recorded so the
    /// operator (and the telemetry report, via the
    /// checkpoints_quarantined / resume_shards_rerun counters) can see
    /// exactly what was salvaged versus recomputed.
    struct RecoveryAction {
        std::string path;    ///< the checkpoint file acted on
        std::string reason;  ///< why it could not be used as-is
        /// `<path>.corrupt` when the file was quarantined; empty when
        /// it was left in place (e.g. valid data duplicating coverage).
        std::string quarantined_to;
    };

    struct ResumeRecovery {
        std::vector<RecoveryAction> actions;
        std::uint64_t shards_rerun = 0;  ///< shards not taken from disk
    };

    /// Recovery-mode resume, for completing a campaign after a crash
    /// with whatever landed on disk: instead of throwing, an
    /// unreadable/corrupt/mismatched checkpoint is quarantined to
    /// `<path>.corrupt` and a duplicate-coverage file is ignored — each
    /// recorded in `recovery` — and the uncovered ranges re-run. The
    /// merged result is still bit-identical to `pwcet(scenario, spec)`:
    /// recovery changes which work re-runs, never what it computes.
    [[nodiscard]] PwcetCampaignResult resume(
        const Scenario& scenario, const PwcetSpec& spec,
        const std::vector<std::string>& paths, ResumeRecovery& recovery);

private:
    /// Shared body of the two resume overloads; `recovery == nullptr`
    /// is strict mode (every bad checkpoint throws).
    [[nodiscard]] PwcetCampaignResult resume_impl(
        const Scenario& scenario, const PwcetSpec& spec,
        const std::vector<std::string>& paths, ResumeRecovery* recovery);

    [[nodiscard]] engine::ThreadPool& shared_pool();

    std::size_t jobs_ = 0;
    engine::ProgressCounter* progress_ = nullptr;
    std::unique_ptr<engine::ThreadPool> pool_;
};

}  // namespace rrb
