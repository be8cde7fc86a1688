// Campaign scheduler: (campaign × plan-shard) as the unit of work, and
// the only code that runs campaigns.
//
// Every campaign — a standalone hwm / pwcet / whitebox / attribution
// call, a checkpoint slice, resume's uncovered shards, a sweep grid
// point, a batch scenario — is submitted here, alone or alongside
// others. The scheduler flattens the batch into one global work queue
// (every campaign's isolation baseline plus every submitted shard of its
// reduce plan) and drains it across the one shared ThreadPool with no
// barrier until the whole batch is done. A campaign is generic over its
// accumulator: an initial accumulator plus a per-run fold, each shard
// folded by engine::fold_shard — so "standalone equals batch point"
// holds by construction.
//
// Determinism: a shard accumulator depends only on (plan, shard index,
// fold) — the engine/reduce.h contract — and the isolation baseline is
// a deterministic measurement, so *which worker* runs *which item when*
// cannot leak into any campaign's numbers. take() hands back the
// campaign's engine::ShardSlice, bit for bit the same at every jobs
// value.
//
// Lease affinity: workers keep per-thread machine caches keyed by
// config (engine::MachineLease); work is bucketed by
// MachineConfig::fingerprint. The dispatch loop prefers handing a
// worker another item of the fingerprint it just ran — the machine is
// hot in its cache — and falls back to *stealing* from
// the fingerprint class with the most work left, so no core ever idles
// while any queue is non-empty. Dispatch decisions are observable via
// the sched_* telemetry counters (hits + steals == dispatches).
//
// Supervision: each campaign is its own failure domain. A work item
// that throws marks *its* campaign failed (first exception captured;
// sched_failures counts campaigns, not throws) while every other
// campaign keeps draining — already-queued items of a failed campaign
// are dispatched but skipped (sched_items_skipped), so the dispatch
// invariant hits + steals == dispatches == enqueued always holds.
// Failures of class fault::TransientError (transient I/O, lease
// rebuild) are retried in place up to a bounded per-item budget
// (sched_retries) before counting as a campaign failure. take() on a
// failed campaign rethrows its captured exception; status() reports
// without throwing — how Session::batch turns one bad scenario into a
// per-point error instead of a poisoned batch.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/campaign.h"
#include "engine/progress.h"
#include "engine/reduce.h"
#include "engine/thread_pool.h"
#include "isa/program.h"
#include "machine/config.h"
#include "obs/heartbeat.h"
#include "sim/contract.h"

namespace rrb::sched {

/// Aggregate + per-campaign progress for one scheduler batch, readable
/// by a heartbeat thread while workers tick. announce() fixes the
/// structure (names, totals) before any concurrent access; the counters
/// themselves are lock-free.
class BatchProgress {
public:
    /// Declares the batch: one (name, total runs) per campaign, in
    /// campaign order. Call once, before the scheduler runs and before
    /// any reporter thread samples. Re-announcing resets everything.
    void announce(
        const std::vector<std::pair<std::string, std::size_t>>& campaigns);

    [[nodiscard]] engine::ProgressCounter& aggregate() noexcept {
        return aggregate_;
    }
    [[nodiscard]] const engine::ProgressCounter& aggregate() const noexcept {
        return aggregate_;
    }
    [[nodiscard]] std::size_t campaigns() const noexcept {
        return campaigns_.size();
    }
    [[nodiscard]] const std::string& name(std::size_t i) const {
        return campaigns_[i].name;
    }
    [[nodiscard]] engine::ProgressCounter& campaign(std::size_t i) {
        return campaigns_[i].progress;
    }
    [[nodiscard]] const engine::ProgressCounter& campaign(
        std::size_t i) const {
        return campaigns_[i].progress;
    }

    /// View for HeartbeatMeter's multi-campaign sample. The pointers
    /// stay valid until the next announce().
    [[nodiscard]] std::vector<obs::CampaignSample> samples() const;

private:
    struct Entry {
        std::string name;
        engine::ProgressCounter progress;
    };

    engine::ProgressCounter aggregate_;
    std::deque<Entry> campaigns_;  ///< deque: counters must not move
};

/// What every run of one campaign reads: the lowered scenario.
struct CampaignInputs {
    MachineConfig config;
    Program scua;
    std::vector<Program> contenders;
    HwmCampaignOptions protocol;
    /// detail::campaign_fingerprint of the programs, hashed once per
    /// campaign by CampaignScheduler::add rather than once per run.
    std::uint64_t fingerprint = 0;
};

/// One campaign to schedule: its inputs, which shards of its plan
/// (engine::ReducePlan::for_count(inputs.protocol.runs)) to fold, and
/// its span identity.
struct CampaignWork {
    CampaignInputs inputs;
    /// Plan shards to fold, ascending and distinct. May be empty (a
    /// checkpoint slice past the plan's last shard): the campaign then
    /// only measures its isolation baseline.
    std::vector<std::size_t> shards;
    /// Span identity for the telemetry timeline. The name must be a
    /// static string (obs::SpanRecord does not copy it).
    const char* span_name = "campaign";
    std::uint64_t span_index = 0;
};

/// Folds campaign run `run` into a shard accumulator.
template <typename Acc>
using RunFold = void (*)(Acc& acc, const CampaignInputs& inputs,
                         std::uint64_t run);

class CampaignScheduler {
public:
    /// The scheduler drains onto `pool` and owns it for the duration of
    /// run() — the ThreadPool contract forbids concurrent batches.
    explicit CampaignScheduler(engine::ThreadPool& pool);
    ~CampaignScheduler();

    CampaignScheduler(const CampaignScheduler&) = delete;
    CampaignScheduler& operator=(const CampaignScheduler&) = delete;

    /// Enqueues a campaign whose shards start from copies of `init` and
    /// fold every run with `fold`; returns its index (take() key, and
    /// the key of its fault sites). Validates the work eagerly, on the
    /// calling thread. Must precede run().
    template <typename Acc>
    std::size_t add(CampaignWork work, Acc init,
                    std::type_identity_t<RunFold<Acc>> fold) {
        return enqueue(std::make_unique<Folding<Acc>>(std::move(work),
                                                      std::move(init), fold));
    }

    struct RunOptions {
        /// Ticked once per contention run (aggregate and the owning
        /// campaign's counter). The scheduler never calls begin() —
        /// announce totals via BatchProgress::announce.
        BatchProgress* batch = nullptr;
        /// Ticked once per contention run. Pre-announced by the caller.
        engine::ProgressCounter* runs = nullptr;
    };

    /// Drains every queued item across the pool; returns when the whole
    /// batch is done. Call once. Never throws for item failures: each
    /// campaign is supervised independently (see the module comment) —
    /// inspect status() or let take() rethrow per campaign.
    void run(const RunOptions& options);
    void run() { run(RunOptions{}); }

    /// Post-run verdict for one campaign: ok, or failed with the first
    /// captured exception's message.
    struct CampaignStatus {
        bool failed = false;
        std::string error;
    };

    /// Valid after run(). Never throws.
    [[nodiscard]] const CampaignStatus& status(std::size_t index) const;

    /// Moves campaign `index`'s result out: its isolation baseline and
    /// one accumulator per submitted shard. `Acc` must be the type the
    /// campaign was added with. Valid once per campaign, after run().
    /// Rethrows the campaign's first captured exception if it failed.
    template <typename Acc>
    [[nodiscard]] engine::ShardSlice<Acc> take(std::size_t index) {
        auto* campaign = dynamic_cast<Folding<Acc>*>(&claim(index));
        RRB_REQUIRE(campaign != nullptr,
                    "take() with another accumulator type than add()");
        campaign->slice.et_isolation = campaign->et_isolation;
        campaign->slice.nr = campaign->nr;
        return std::move(campaign->slice);
    }

    /// Total work items (isolation baselines + shards) this batch holds.
    [[nodiscard]] std::size_t work_items() const noexcept;

private:
    /// A queued campaign, whatever it folds: the work, its plan, and the
    /// state the drain loop tracks.
    struct Campaign {
        explicit Campaign(CampaignWork w);
        virtual ~Campaign() = default;

        /// Folds the `slot`-th submitted shard and keeps its accumulator.
        /// `index` is this campaign's index in the batch.
        virtual void run_shard(std::size_t slot, std::size_t index,
                               const RunOptions& options) = 0;

        CampaignWork work;
        engine::ReducePlan plan;
        std::uint64_t fingerprint = 0;  ///< config fingerprint, never 0
        std::uint64_t runs = 0;         ///< runs in the submitted shards
        std::uint64_t span = 0;  ///< campaign span, open while running
        std::atomic<std::size_t> remaining{0};  ///< items left
        Cycle et_isolation = 0;
        std::uint64_t nr = 0;
        bool taken = false;
        /// Failure domain: set once by the first throwing item (later
        /// items of this campaign are skipped, not executed). The flag
        /// is the workers' fast check; error/status are written under
        /// the state mutex before the flag is released.
        std::atomic<bool> failed{false};
        std::exception_ptr error;
        CampaignStatus status;
    };

    template <typename Acc>
    struct Folding final : Campaign {
        Folding(CampaignWork w, Acc initial, RunFold<Acc> run_fold)
            : Campaign(std::move(w)), init(std::move(initial)), fold(run_fold) {
            slice.indices = work.shards;
            slice.shards.assign(work.shards.size(), init);
        }

        void run_shard(std::size_t slot, std::size_t index,
                       const RunOptions& options) override {
            slice.shards[slot] = engine::fold_shard(
                plan, work.shards[slot], index, span, init,
                [this](Acc& acc, std::uint64_t run) {
                    fold(acc, work.inputs, run);
                },
                [&options, index] { tick(options, index); });
        }

        Acc init;
        RunFold<Acc> fold;
        engine::ShardSlice<Acc> slice;  ///< filled shard by shard
    };

    struct WorkItem;
    struct Bucket;
    struct State;

    std::size_t enqueue(std::unique_ptr<Campaign> campaign);
    Campaign& claim(std::size_t index);
    static void tick(const RunOptions& options, std::size_t index);
    void execute(const WorkItem& item, const RunOptions& options);
    void run_item(const WorkItem& item, const RunOptions& options);
    void fail(Campaign& campaign, std::exception_ptr error) noexcept;
    [[nodiscard]] bool next_item(std::uint64_t& last_fingerprint,
                                 WorkItem& out);

    engine::ThreadPool& pool_;
    std::vector<std::unique_ptr<Campaign>> campaigns_;
    std::unique_ptr<State> state_;
    bool ran_ = false;
};

}  // namespace rrb::sched
