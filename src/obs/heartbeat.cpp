#include "obs/heartbeat.h"

#include <algorithm>
#include <cstdio>

namespace rrb::obs {

HeartbeatMeter::HeartbeatMeter(std::size_t workers) : workers_(workers) {
    // Prime the window at construction so the very first sample
    // measures from meter birth (campaign start) instead of reporting
    // a rate of zero.
    TelemetryRegistry& registry = TelemetryRegistry::instance();
    primed_ = true;
    last_ns_ = registry.now_ns();
    last_shard_ns_ = enabled() ? registry.counters()[kShardWallNs] : 0;
}

std::string HeartbeatMeter::sample(
    const engine::ProgressCounter& progress) {
    TelemetryRegistry& registry = TelemetryRegistry::instance();
    const std::uint64_t now = registry.now_ns();
    const std::size_t completed = progress.completed();
    const std::size_t fresh = progress.fresh();
    const std::size_t total = progress.total();
    const std::uint64_t shard_ns =
        enabled() ? registry.counters()[kShardWallNs] : 0;

    double rate = last_rate_;
    double utilization = -1.0;
    if (primed_ && now > last_ns_) {
        const double window_sec =
            static_cast<double>(now - last_ns_) / 1e9;
        // Rate from the *fresh* (this-process) count: a resumed
        // campaign's checkpointed baseline never counts as throughput.
        // A counter re-announced between samples (a Session reused for
        // another call) steps backwards; only a forward delta is a rate
        // observation.
        if (fresh >= last_fresh_) {
            rate = static_cast<double>(fresh - last_fresh_) /
                   window_sec;
        }
        if (workers_ > 0 && enabled() && shard_ns >= last_shard_ns_) {
            utilization = std::min(
                1.0, static_cast<double>(shard_ns - last_shard_ns_) /
                         (static_cast<double>(now - last_ns_) *
                          static_cast<double>(workers_)));
        }
    }
    primed_ = true;
    last_ns_ = now;
    last_fresh_ = fresh;
    last_shard_ns_ = shard_ns;
    last_rate_ = rate;

    std::string line = engine::render_progress(progress);
    char buf[96];
    std::snprintf(buf, sizeof(buf), " | %.0f runs/s", rate);
    line += buf;
    if (rate > 0.0 && total > completed) {
        const double eta_sec =
            static_cast<double>(total - completed) / rate;
        std::snprintf(buf, sizeof(buf), " | eta %.0fs", eta_sec);
        line += buf;
    } else {
        // Overshoot or done: remaining work is zero, never negative.
        line += " | eta 0s";
    }
    if (utilization >= 0.0) {
        std::snprintf(buf, sizeof(buf), " | workers %.0f%%",
                      100.0 * utilization);
        line += buf;
    }
    return line;
}

std::string HeartbeatMeter::sample(
    const engine::ProgressCounter& aggregate,
    std::span<const CampaignSample> campaigns) {
    // The aggregate pass advances last_ns_ to "now"; the per-campaign
    // rates below reuse exactly that window, so one call = one
    // consistent sampling instant for every counter.
    const std::uint64_t prev_ns = last_ns_;
    const bool was_primed = primed_;
    std::string line = sample(aggregate);
    const std::uint64_t now = last_ns_;

    last_campaign_fresh_.resize(campaigns.size(), 0);
    last_campaign_rate_.resize(campaigns.size(), 0.0);
    char buf[160];
    for (std::size_t i = 0; i < campaigns.size(); ++i) {
        const CampaignSample& c = campaigns[i];
        const std::size_t fresh = c.progress->fresh();
        double rate = last_campaign_rate_[i];
        if (was_primed && now > prev_ns &&
            fresh >= last_campaign_fresh_[i]) {
            rate = static_cast<double>(fresh - last_campaign_fresh_[i]) /
                   (static_cast<double>(now - prev_ns) / 1e9);
        }
        last_campaign_fresh_[i] = fresh;
        last_campaign_rate_[i] = rate;
        std::snprintf(buf, sizeof(buf), " | %s %zu/%zu %.0f/s",
                      c.name->c_str(), c.progress->completed(),
                      c.progress->total(), rate);
        line += buf;
    }
    return line;
}

}  // namespace rrb::obs
