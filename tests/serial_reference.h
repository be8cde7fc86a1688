// Serial references for the campaign executors: every run folded on
// the calling thread, plan shard by plan shard, then the shard
// accumulators left-merged in index order — the order bit-identity
// requires. No pool and no scheduler, so a Session result that matches
// one of these matches an independent fold.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/campaign.h"
#include "core/experiment.h"
#include "engine/reduce.h"
#include "isa/program.h"
#include "machine/config.h"
#include "stats/checkpoint.h"

namespace rrb::reference {

/// Folds runs [0, runs) into a copy of `init` per plan shard and
/// left-merges the shards in index order.
template <typename Acc, typename Fold>
Acc serial_fold(std::uint64_t runs, const Acc& init, Fold&& fold) {
    const engine::ReducePlan plan = engine::ReducePlan::for_count(runs);
    std::optional<Acc> total;
    for (std::size_t s = 0; s < plan.shards(); ++s) {
        Acc shard = init;
        for (std::uint64_t run = plan.shard_begin(s);
             run < plan.shard_end(s); ++run) {
            fold(shard, run);
        }
        if (total) {
            total->merge(shard);
        } else {
            total.emplace(std::move(shard));
        }
    }
    return *total;
}

inline Measurement isolation(const MachineConfig& config, const Program& scua,
                             const HwmCampaignOptions& protocol) {
    return run_isolation(config, scua, 0, protocol.max_cycles_per_run);
}

inline PwcetCampaignResult pwcet(const MachineConfig& config,
                                 const Program& scua,
                                 const std::vector<Program>& contenders,
                                 const PwcetCampaignOptions& options) {
    const PwcetAccumulator acc = serial_fold(
        options.protocol.runs, PwcetAccumulator(options.block_size),
        [&](PwcetAccumulator& a, std::uint64_t run) {
            a.add(run, detail::hwm_campaign_measure(
                           config, scua, contenders, options.protocol, run));
        });
    const Measurement isol = isolation(config, scua, options.protocol);
    return finalize_pwcet_campaign(acc, isol.exec_time, isol.bus_requests,
                                   options.exceedance);
}

inline engine::WhiteboxCampaignResult whitebox(
    const MachineConfig& config, const Program& scua,
    const std::vector<Program>& contenders,
    const HwmCampaignOptions& protocol) {
    const Measurement isol = isolation(config, scua, protocol);
    return {isol.exec_time, isol.bus_requests,
            serial_fold(protocol.runs, WhiteboxAccumulator{},
                        [&](WhiteboxAccumulator& a, std::uint64_t run) {
                            a.add(run, detail::hwm_campaign_measure(
                                           config, scua, contenders,
                                           protocol, run));
                        })};
}

inline engine::AttributionCampaignResult attribution(
    const MachineConfig& config, const Program& scua,
    const std::vector<Program>& contenders,
    const HwmCampaignOptions& protocol) {
    const Measurement isol = isolation(config, scua, protocol);
    return {isol.exec_time, isol.bus_requests,
            serial_fold(protocol.runs, AttributionAccumulator{},
                        [&](AttributionAccumulator& a, std::uint64_t run) {
                            static_cast<void>(detail::hwm_campaign_attribute(
                                config, scua, contenders, protocol, run, a));
                        })};
}

/// The materializing campaign: one exec time per run, in run order.
inline HwmCampaignResult hwm(const MachineConfig& config, const Program& scua,
                             const std::vector<Program>& contenders,
                             const HwmCampaignOptions& protocol) {
    const Measurement isol = isolation(config, scua, protocol);
    HwmCampaignResult result;
    result.et_isolation = isol.exec_time;
    result.nr = isol.bus_requests;
    for (std::uint64_t run = 0; run < protocol.runs; ++run) {
        result.exec_times.push_back(detail::hwm_campaign_run(
            config, scua, contenders, protocol, run));
    }
    result.high_water_mark = result.exec_times.front();
    result.low_water_mark = result.exec_times.front();
    for (const Cycle t : result.exec_times) {
        if (t > result.high_water_mark) result.high_water_mark = t;
        if (t < result.low_water_mark) result.low_water_mark = t;
    }
    return result;
}

}  // namespace rrb::reference
