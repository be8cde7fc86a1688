// Parallel execution primitives: the worker budget and ordered grid
// collection.
//
// Every run of a measurement campaign — and every point of a sensitivity
// grid — is an independent simulation: its own Machine, its own RNG
// stream, no shared mutable state. That makes them embarrassingly
// parallel *if* two things hold:
//
//   1. Determinism. Run i draws its random offsets from a Pcg32 seeded
//      by SeedSequence(campaign_seed).seed_for(i) — a pure function of
//      (seed, i) — so the schedule of threads can never leak into the
//      numbers.
//   2. Ordered collection. run_grid lands per-point results in a
//      pre-sized slot vector indexed by point, so collection order is
//      grid order whatever worker finishes first.
//
// Campaigns themselves run through sched::CampaignScheduler over the
// shard plan of engine/reduce.h; the public facade is the
// Scenario/Session API (core/scenario.h, core/session.h).
#pragma once

#include <algorithm>
#include <cstddef>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "engine/progress.h"
#include "engine/thread_pool.h"

namespace rrb::engine {

struct EngineOptions {
    /// Worker threads; 0 means ThreadPool::default_jobs() (hardware
    /// concurrency). The job count never changes results, only speed.
    std::size_t jobs = 0;
    /// Optional progress sink; begin() is called with the batch size and
    /// tick() once per finished job.
    ProgressCounter* progress = nullptr;
    /// Optional non-owning shared pool. When set, grids and reductions
    /// submit to it instead of spawning their own workers, and `jobs` no
    /// longer sizes anything — the pool's width is the budget. The
    /// caller must not drive the same pool from two batches at once
    /// (wait_idle() waits for *all* submitted jobs).
    ThreadPool* pool = nullptr;
};

/// `options.jobs` resolved against the actual amount of work: 0 maps to
/// hardware concurrency, and the pool is never wider than `work_items`.
[[nodiscard]] inline std::size_t effective_jobs(
    std::size_t requested, std::size_t work_items) noexcept {
    const std::size_t jobs =
        requested == 0 ? ThreadPool::default_jobs() : requested;
    return std::max<std::size_t>(1, std::min(jobs, work_items));
}

/// Evaluates `fn` on every grid point concurrently and returns the
/// results in grid order (results[i] == fn(points[i])). `fn` must be
/// callable from multiple threads at once — in this codebase that means
/// "builds its own Machine", which every experiment entry point does.
/// The first exception thrown by any point propagates to the caller
/// after the remaining in-flight points finish.
template <typename Point, typename Fn>
[[nodiscard]] auto run_grid(const std::vector<Point>& points, Fn&& fn,
                            const EngineOptions& engine = {})
    -> std::vector<std::decay_t<std::invoke_result_t<Fn&, const Point&>>> {
    using Result = std::decay_t<std::invoke_result_t<Fn&, const Point&>>;
    static_assert(!std::is_void_v<Result>,
                  "grid functions must return a value");

    if (engine.progress != nullptr) engine.progress->begin(points.size());
    std::vector<Result> results;
    if (points.empty()) return results;

    // Slots, not push_back: each job writes its own index, so collection
    // order is grid order no matter which worker finishes first.
    std::vector<std::optional<Result>> slots(points.size());
    {
        // A shared pool (engine.pool) is borrowed as-is; otherwise a
        // batch-local pool is sized against the work. wait_idle() returns
        // only after every submitted job finished, so the stack state the
        // jobs capture outlives them in both cases.
        std::optional<ThreadPool> local;
        ThreadPool& pool =
            engine.pool != nullptr
                ? *engine.pool
                : local.emplace(effective_jobs(engine.jobs, points.size()));
        for (std::size_t i = 0; i < points.size(); ++i) {
            pool.submit([&slots, &points, &fn, &engine, i] {
                slots[i].emplace(fn(points[i]));
                if (engine.progress != nullptr) engine.progress->tick();
            });
        }
        pool.wait_idle();  // rethrows the first job failure
    }
    results.reserve(slots.size());
    for (std::optional<Result>& slot : slots) {
        results.push_back(std::move(*slot));
    }
    return results;
}

}  // namespace rrb::engine
