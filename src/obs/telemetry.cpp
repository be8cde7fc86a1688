#include "obs/telemetry.h"

#include <chrono>
#include <deque>
#include <mutex>

namespace rrb::obs {

const char* counter_name(Counter c) noexcept {
    switch (c) {
        case kRunsCompleted: return "runs_completed";
        case kCyclesSimulated: return "cycles_simulated";
        case kEventsSkipped: return "events_skipped";
        case kCyclesSkipped: return "cycles_skipped";
        case kBusOnlySteps: return "bus_only_steps";
        case kStepsScuaCompletion: return "steps_scua_completion";
        case kStepsScuaTick: return "steps_scua_tick";
        case kStepsDramEvent: return "steps_dram_event";
        case kStepsContender: return "steps_contender";
        case kStepsArbitration: return "steps_arbitration";
        case kPeriodsFastForwarded: return "periods_fast_forwarded";
        case kCyclesFastForwarded: return "cycles_fast_forwarded";
        case kLeaseHits: return "lease_hits";
        case kLeaseMisses: return "lease_misses";
        case kLeaseEvictions: return "lease_evictions";
        case kJobsSubmitted: return "jobs_submitted";
        case kJobsExecuted: return "jobs_executed";
        case kWorkerBusyNs: return "worker_busy_ns";
        case kShardsCompleted: return "shards_completed";
        case kShardWallNs: return "shard_wall_ns";
        case kSchedItemsEnqueued: return "sched_items_enqueued";
        case kSchedDispatches: return "sched_dispatches";
        case kSchedAffinityHits: return "sched_affinity_hits";
        case kSchedSteals: return "sched_steals";
        case kReplayDecodes: return "replay_decodes";
        case kReplayDeclinesOpCap: return "replay_declines_op_cap";
        case kReplayDeclinesBoundaryCap:
            return "replay_declines_boundary_cap";
        case kReplayDeclinesDirtyReplica:
            return "replay_declines_dirty_replica";
        case kReplayDeclinesInjected: return "replay_declines_injected";
        case kReplayRuns: return "replay_runs";
        case kReplayFallbackRuns: return "replay_fallback_runs";
        case kHeapAllocations: return "heap_allocations";
        case kSchedRetries: return "sched_retries";
        case kSchedFailures: return "sched_failures";
        case kSchedItemsSkipped: return "sched_items_skipped";
        case kCheckpointsQuarantined: return "checkpoints_quarantined";
        case kResumeShardsRerun: return "resume_shards_rerun";
        case kCounterCount: break;
    }
    return "?";
}

namespace detail {
std::atomic<bool> g_enabled{false};
}  // namespace detail

namespace {

using SteadyClock = std::chrono::steady_clock;

thread_local std::uint64_t t_current_span = 0;

}  // namespace

struct TelemetryRegistry::Impl {
    /// Guards block registration and the span list — never the counter
    /// bumps themselves.
    mutable std::mutex mutex;
    /// deque: pointer-stable, so worker threads cache raw block
    /// pointers for the process lifetime.
    std::deque<detail::CounterBlock> blocks;
    std::vector<SpanRecord> spans;
    std::uint64_t next_span_id = 1;
    SteadyClock::time_point epoch = SteadyClock::now();
};

TelemetryRegistry::TelemetryRegistry() : impl_(new Impl) {}

TelemetryRegistry& TelemetryRegistry::instance() {
    // Leaked singleton: worker threads may bump their blocks during
    // static destruction (detached tooling, late pool teardown); a
    // destroyed registry would dangle every cached block pointer.
    static TelemetryRegistry* registry = new TelemetryRegistry();
    return *registry;
}

void TelemetryRegistry::enable() {
    detail::g_enabled.store(true, std::memory_order_relaxed);
}

void TelemetryRegistry::disable() {
    detail::g_enabled.store(false, std::memory_order_relaxed);
}

CounterSnapshot TelemetryRegistry::counters() const {
    CounterSnapshot snapshot;
    const std::lock_guard<std::mutex> lock(impl_->mutex);
    for (const detail::CounterBlock& block : impl_->blocks) {
        for (std::size_t i = 0; i < kCounterCount; ++i) {
            snapshot.values[i] +=
                block.values[i].load(std::memory_order_relaxed);
        }
    }
    return snapshot;
}

std::vector<SpanRecord> TelemetryRegistry::spans() const {
    const std::lock_guard<std::mutex> lock(impl_->mutex);
    return impl_->spans;
}

void TelemetryRegistry::reset() {
    const std::lock_guard<std::mutex> lock(impl_->mutex);
    for (detail::CounterBlock& block : impl_->blocks) {
        for (std::size_t i = 0; i < kCounterCount; ++i) {
            block.values[i].store(0, std::memory_order_relaxed);
        }
    }
    impl_->spans.clear();
    impl_->next_span_id = 1;
    impl_->epoch = SteadyClock::now();
}

std::uint64_t TelemetryRegistry::now_ns() const {
    SteadyClock::time_point epoch;
    {
        const std::lock_guard<std::mutex> lock(impl_->mutex);
        epoch = impl_->epoch;
    }
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            SteadyClock::now() - epoch)
            .count());
}

std::size_t TelemetryRegistry::worker_blocks() const {
    const std::lock_guard<std::mutex> lock(impl_->mutex);
    return impl_->blocks.size();
}

std::uint64_t TelemetryRegistry::open_span(const char* name,
                                           std::uint64_t parent,
                                           std::uint64_t index,
                                           std::uint64_t items) {
    if (!enabled()) return 0;
    const std::uint64_t begin = now_ns();
    const std::lock_guard<std::mutex> lock(impl_->mutex);
    SpanRecord record;
    record.id = impl_->next_span_id++;
    record.parent = parent;
    record.name = name;
    record.index = index;
    record.items = items;
    record.begin_ns = begin;
    impl_->spans.push_back(record);
    return record.id;
}

void TelemetryRegistry::close_span(std::uint64_t id) {
    if (id == 0) return;
    const std::uint64_t end = now_ns();
    const std::lock_guard<std::mutex> lock(impl_->mutex);
    // Spans close in roughly open order; scan from the back.
    for (std::size_t i = impl_->spans.size(); i-- > 0;) {
        if (impl_->spans[i].id == id) {
            impl_->spans[i].end_ns = end;
            return;
        }
    }
}

namespace detail {
CounterBlock* acquire_block() {
    // Registration is the one locked operation a worker performs, and
    // only once per thread: the block lives in the leaked registry, so
    // the returned pointer stays valid for the process lifetime.
    TelemetryRegistry::Impl* impl = TelemetryRegistry::instance().impl_;
    const std::lock_guard<std::mutex> lock(impl->mutex);
    impl->blocks.emplace_back();
    return &impl->blocks.back();
}
}  // namespace detail

std::uint64_t current_span() noexcept { return t_current_span; }

Span::Span(const char* name, std::uint64_t index, std::uint64_t items)
    : Span(name, t_current_span, index, items) {}

Span::Span(const char* name, std::uint64_t parent, std::uint64_t index,
           std::uint64_t items) {
    id_ = TelemetryRegistry::instance().open_span(name, parent, index,
                                                  items);
    previous_ = t_current_span;
    if (id_ != 0) t_current_span = id_;
}

Span::~Span() {
    if (id_ != 0) {
        t_current_span = previous_;
        TelemetryRegistry::instance().close_span(id_);
    }
}

}  // namespace rrb::obs
