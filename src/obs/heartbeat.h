// Live campaign heartbeat: the human-facing telemetry sink.
//
// A HeartbeatMeter samples a ProgressCounter plus the telemetry
// counters and renders one status line — completed/total, runs/sec over
// the sampling window, ETA, worker utilization — for the CLI to print
// on stderr at `--heartbeat <sec>` intervals. Rates come from deltas
// between consecutive samples, so a long campaign's line tracks the
// *current* throughput, not the lifetime average; the first sample
// establishes the baseline window.
//
// The meter also powers the default progress line's ETA / runs-per-sec
// suffix: engine::render_progress stays the deterministic
// "completed/total (pp%)" core, and the meter appends the live half.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "engine/progress.h"
#include "obs/telemetry.h"

namespace rrb::obs {

/// One concurrently-running campaign a multi-campaign heartbeat reports
/// on: a stable name and the campaign's own progress counter. Pointers,
/// not copies — the meter samples live counters each call.
struct CampaignSample {
    const std::string* name = nullptr;
    const engine::ProgressCounter* progress = nullptr;
};

class HeartbeatMeter {
public:
    /// `workers` scales the utilization denominator (the resolved jobs
    /// budget); 0 suppresses the utilization field.
    explicit HeartbeatMeter(std::size_t workers = 0);

    /// One sample: "c/t (pp%) | R runs/s | eta Ss[ | workers UU%]".
    /// Utilization is the window's growth in shard_wall_ns, which each
    /// shard adds as it ends, over the window times `workers`; a pool
    /// job's worker_busy_ns lands only when the job ends, and a
    /// scheduler's drain loops end with the batch. Percentage and ETA
    /// clamp when completed overshoots the announced total (a sample
    /// taken while the counter is re-announced).
    /// Rates are measured over ProgressCounter::fresh() — work executed
    /// by *this* process — so a resumed campaign's checkpointed runs
    /// raise the completed/total line without inflating runs/s, and the
    /// ETA covers only the runs that still have to execute.
    [[nodiscard]] std::string sample(
        const engine::ProgressCounter& progress);

    /// Multi-campaign sample for a scheduler batch: the aggregate line
    /// (as sample()), then one " | name c/t R/s" chip per campaign.
    /// Every counter is read exactly once against one shared sampling
    /// window, so concurrent heterogeneous campaigns cannot corrupt
    /// each other's rates however their ticks interleave; per-campaign
    /// window state is keyed by position, so pass the same campaign
    /// list (in the same order) on every call.
    [[nodiscard]] std::string sample(
        const engine::ProgressCounter& aggregate,
        std::span<const CampaignSample> campaigns);

private:
    std::size_t workers_;
    bool primed_ = false;
    std::uint64_t last_ns_ = 0;
    std::size_t last_fresh_ = 0;
    std::uint64_t last_shard_ns_ = 0;
    double last_rate_ = 0.0;  ///< carried over empty windows
    /// Per-campaign window state (multi-campaign form), by position.
    std::vector<std::size_t> last_campaign_fresh_;
    std::vector<double> last_campaign_rate_;
};

}  // namespace rrb::obs
