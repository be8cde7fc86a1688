#include "engine/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "obs/telemetry.h"
#include "sim/contract.h"

namespace rrb::engine {

ThreadPool::ThreadPool(std::size_t threads, std::size_t max_queued)
    : max_queued_(std::max<std::size_t>(1, max_queued)) {
    const std::size_t n = std::max<std::size_t>(1, threads);
    workers_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        workers_.emplace_back([this] { worker_loop(); });
    }
}

ThreadPool::~ThreadPool() {
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    work_ready_.notify_all();
    for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> job) {
    RRB_REQUIRE(job != nullptr, "cannot submit an empty job");
    // Telemetry: live queue depth for the heartbeat is the difference
    // between submitted and executed jobs — no pool state is exposed.
    obs::count(obs::kJobsSubmitted);
    {
        std::unique_lock<std::mutex> lock(mutex_);
        queue_changed_.wait(lock,
                            [this] { return queue_.size() < max_queued_; });
        queue_.push_back(std::move(job));
    }
    work_ready_.notify_one();
}

void ThreadPool::wait_idle() {
    std::unique_lock<std::mutex> lock(mutex_);
    all_done_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
    if (first_error_) {
        std::exception_ptr error;
        std::swap(error, first_error_);
        lock.unlock();
        std::rethrow_exception(error);
    }
}

std::size_t ThreadPool::default_jobs() noexcept {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

void ThreadPool::worker_loop() {
    for (;;) {
        std::function<void()> job;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            work_ready_.wait(
                lock, [this] { return stopping_ || !queue_.empty(); });
            if (queue_.empty()) return;  // stopping_ and drained
            job = std::move(queue_.front());
            queue_.pop_front();
            ++active_;
        }
        queue_changed_.notify_one();
        try {
            if (obs::enabled()) {
                // Busy-ns powers the run report's worker_utilization.
                // A job lands only when it ends, so the live heartbeat
                // reads shard_wall_ns instead. Two clock reads per job
                // cost nothing; with telemetry off not even those
                // happen.
                const auto begin = std::chrono::steady_clock::now();
                job();
                obs::count(
                    obs::kWorkerBusyNs,
                    static_cast<std::uint64_t>(
                        std::chrono::duration_cast<
                            std::chrono::nanoseconds>(
                            std::chrono::steady_clock::now() - begin)
                            .count()));
            } else {
                job();
            }
            obs::count(obs::kJobsExecuted);
        } catch (...) {
            const std::lock_guard<std::mutex> lock(mutex_);
            if (!first_error_) first_error_ = std::current_exception();
        }
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            --active_;
            if (queue_.empty() && active_ == 0) all_done_.notify_all();
        }
    }
}

}  // namespace rrb::engine
