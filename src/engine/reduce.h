// Sharded streaming reduction: campaigns that never materialize results.
//
// This module owns the three pieces every campaign executor shares: the
// shard plan, the one per-shard body (fold_shard) and the one in-order
// shard merge (merge_in_order). sched::CampaignScheduler runs every
// campaign through them; reduce_indexed_shards runs an arbitrary indexed
// fold through them on a pool of its own. Campaigns reach all of this
// through the Scenario/Session API (core/scenario.h, core/session.h).
// The determinism contract is "fold results into mergeable accumulators
// without ever holding them":
//
//   * Each shard owns a contiguous run range and folds it locally, in
//     ascending run order, into its own accumulator.
//   * Shard accumulators merge in shard order, so the overall fold order
//     is exactly run order 0..n-1 — whatever thread ran which shard.
//   * The shard plan is a pure function of the run count (see
//     ReducePlan::for_count), never of the job count or the hardware, so
//     even rounding-sensitive folds (Chan-merged floating-point moments)
//     see an identical merge tree — and produce bit-identical results —
//     at every --jobs value.
//
// The accumulator concept: copy-constructible (the initial value seeds
// every shard, carrying configuration such as the EVT block size), a
// per-index fold handed in alongside it, and
// `void merge(const Accumulator& later_shard)`.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "engine/progress.h"
#include "engine/thread_pool.h"
#include "fault/fault.h"
#include "obs/telemetry.h"
#include "sim/contract.h"
#include "sim/types.h"
#include "stats/attribution.h"
#include "stats/streaming.h"

namespace rrb::engine {

struct EngineOptions {
    /// Worker threads; 0 means ThreadPool::default_jobs() (hardware
    /// concurrency). The job count never changes results, only speed.
    std::size_t jobs = 0;
    /// Optional progress sink; begin() is called with the batch size and
    /// tick() once per finished job.
    ProgressCounter* progress = nullptr;
};

/// `options.jobs` resolved against the actual amount of work: 0 maps to
/// hardware concurrency, and the pool is never wider than `work_items`.
[[nodiscard]] inline std::size_t effective_jobs(
    std::size_t requested, std::size_t work_items) noexcept {
    const std::size_t jobs =
        requested == 0 ? ThreadPool::default_jobs() : requested;
    return std::max<std::size_t>(1, std::min(jobs, work_items));
}

/// Contiguous sharding of the run range [0, count). Pure function of
/// `count`: the plan — and therefore every merge tree built from it —
/// is identical whatever the worker count, which is what makes
/// floating-point folds reproducible across --jobs values. The shard
/// size targets kTargetShards shards so any realistic pool stays busy
/// while slot bookkeeping stays O(1)-ish.
struct ReducePlan {
    static constexpr std::uint64_t kTargetShards = 256;

    std::uint64_t count = 0;
    std::uint64_t shard_size = 1;

    [[nodiscard]] static ReducePlan for_count(std::uint64_t count) noexcept {
        ReducePlan plan;
        plan.count = count;
        plan.shard_size =
            count <= kTargetShards
                ? 1
                : (count + kTargetShards - 1) / kTargetShards;
        return plan;
    }

    [[nodiscard]] std::size_t shards() const noexcept {
        return count == 0
                   ? 0
                   : static_cast<std::size_t>(
                         (count + shard_size - 1) / shard_size);
    }
    [[nodiscard]] std::uint64_t shard_begin(std::size_t shard) const noexcept {
        return static_cast<std::uint64_t>(shard) * shard_size;
    }
    [[nodiscard]] std::uint64_t shard_end(std::size_t shard) const noexcept {
        const std::uint64_t end = shard_begin(shard) + shard_size;
        return end < count ? end : count;
    }

    /// Contiguous shard range [first, last) of one plan.
    struct ShardRange {
        std::size_t first = 0;
        std::size_t last = 0;

        [[nodiscard]] std::size_t size() const noexcept {
            return last - first;
        }
    };

    /// Runs in the shards [range.first, range.last).
    [[nodiscard]] std::uint64_t runs(ShardRange range) const noexcept {
        return range.size() == 0
                   ? 0
                   : shard_end(range.last - 1) - shard_begin(range.first);
    }

    /// Slice `slice_index` of `slice_count`: the plan's shards divided
    /// into contiguous, collectively exhaustive, mutually disjoint
    /// ranges. Slicing at shard granularity — never splitting a shard —
    /// is what keeps a checkpointed slice's accumulators bit-identical
    /// to the monolithic fold's: each shard is always folded whole, in
    /// run order, by exactly one worker. With more slices than shards
    /// the trailing slices are empty, which is valid (their checkpoints
    /// simply cover no runs).
    [[nodiscard]] ShardRange slice(std::size_t slice_index,
                                   std::size_t slice_count) const {
        RRB_REQUIRE(slice_count >= 1, "need at least one slice");
        RRB_REQUIRE(slice_index < slice_count,
                    "slice index must be below the slice count");
        const std::size_t total = shards();
        return {total * slice_index / slice_count,
                total * (slice_index + 1) / slice_count};
    }
};

/// One campaign's folded shards: the isolation baseline plus one
/// *unmerged* accumulator per plan shard it ran, in ascending shard
/// order. A shard accumulator depends only on (plan, shard index, fold),
/// so a shard folded by slice 3 of 4 on another machine is bit-identical
/// to the one the monolithic run would have produced — and the fan-in
/// can always replay the one true merge sequence (merge_in_order).
template <typename Acc>
struct ShardSlice {
    Cycle et_isolation = 0;
    std::uint64_t nr = 0;              ///< scua bus requests (PMC)
    std::vector<std::size_t> indices;  ///< plan shard of each accumulator
    std::vector<Acc> shards;           ///< parallel to `indices`
};

/// The per-shard body every executor runs: the shard fault site, the
/// shard span (child of `parent_span`), `fold(acc, i)` over the shard's
/// index range in ascending order into a copy of `init` with one
/// `tick()` per index, and the shard counters. `campaign` is the fault
/// key: the campaign index in submission order (a standalone campaign is
/// campaign 0).
template <typename Acc, typename Fold, typename Tick>
[[nodiscard]] Acc fold_shard(const ReducePlan& plan, std::size_t shard,
                             std::uint64_t campaign,
                             std::uint64_t parent_span, const Acc& init,
                             Fold&& fold, Tick&& tick) {
    // Fault site: a worker dying mid-campaign before its shard folds.
    // Off the per-run path — one disarmed load per shard, evaluated
    // before any tick so an injected retry replays the shard exactly.
    if (fault::should_fire(fault::Site::kShardThrow, campaign)) {
        throw std::runtime_error("injected shard worker failure (campaign " +
                                 std::to_string(campaign) + ")");
    }
    const std::uint64_t first = plan.shard_begin(shard);
    const std::uint64_t last = plan.shard_end(shard);
    const std::uint64_t begin_ns =
        obs::enabled() ? obs::TelemetryRegistry::instance().now_ns() : 0;
    const obs::Span span("shard", parent_span, shard, last - first);
    Acc acc = init;  // carries configuration state
    for (std::uint64_t i = first; i < last; ++i) {
        fold(acc, i);
        tick();
    }
    obs::count(obs::kShardsCompleted);
    if (obs::enabled()) {
        obs::count(obs::kShardWallNs,
                   obs::TelemetryRegistry::instance().now_ns() - begin_ns);
    }
    return acc;
}

/// The one merge sequence every campaign total goes through: shard
/// accumulators left-merged in ascending plan-shard order, which is run
/// order — the order bit-identity requires (see the module comment).
template <typename Acc>
[[nodiscard]] Acc merge_in_order(std::vector<Acc> shards) {
    RRB_REQUIRE(!shards.empty(), "a campaign total needs at least one shard");
    Acc total = std::move(shards.front());
    for (std::size_t s = 1; s < shards.size(); ++s) total.merge(shards[s]);
    return total;
}

/// Folds the plan's shards [range.first, range.last) concurrently with
/// fold_shard, on a pool of `engine.jobs` workers built for the call,
/// and returns the *unmerged* per-shard accumulators in shard order.
/// `fold` must be safe to call concurrently on distinct accumulators.
/// Progress begins with the range's index count and ticks once per
/// index.
template <typename Accumulator, typename Fold>
[[nodiscard]] std::vector<Accumulator> reduce_indexed_shards(
    const ReducePlan& plan, ReducePlan::ShardRange range, Fold&& fold,
    const Accumulator& init, const EngineOptions& engine = {}) {
    RRB_REQUIRE(range.first <= range.last && range.last <= plan.shards(),
                "shard range outside the plan");
    if (engine.progress != nullptr) {
        engine.progress->begin(static_cast<std::size_t>(plan.runs(range)));
    }
    std::vector<Accumulator> shards(range.size(), init);
    if (!shards.empty()) {
        // The pool width never changes results: the shard plan — and
        // with it every merge tree — depends only on `count`.
        ThreadPool pool(effective_jobs(engine.jobs, range.size()));
        // The shard spans' parent is whatever span is open on the
        // *submitting* thread — captured here because the workers' own
        // span stacks are unrelated.
        const std::uint64_t parent_span = obs::current_span();
        const auto tick = [&engine] {
            if (engine.progress != nullptr) engine.progress->tick();
        };
        for (std::size_t s = 0; s < range.size(); ++s) {
            pool.submit([&shards, &plan, &range, &fold, &init, &tick,
                         parent_span, s] {
                shards[s] = fold_shard(plan, range.first + s, 0, parent_span,
                                       init, fold, tick);
            });
        }
        pool.wait_idle();  // rethrows the first shard failure
    }
    return shards;
}

/// White-box campaign statistics: the gamma / ready-contenders /
/// injection-delta histograms and the run-ordered execution-time series,
/// identical to a serial fold of hwm_campaign_measure over the campaign.
struct WhiteboxCampaignResult {
    Cycle et_isolation = 0;
    std::uint64_t nr = 0;
    WhiteboxAccumulator stats;
};

/// Cycle-attribution campaign totals: every run executed with the
/// profiler armed, its finalized per-core cause timelines and
/// per-contender blame matrix summed — identical to a serial fold of
/// hwm_campaign_attribute over the campaign.
struct AttributionCampaignResult {
    Cycle et_isolation = 0;
    std::uint64_t nr = 0;  ///< scua bus requests (PMC)
    AttributionAccumulator attribution;
};

}  // namespace rrb::engine
