// Serial references for the campaign executors: every run folded on
// the calling thread, plan shard by plan shard, then the shard
// accumulators left-merged in index order — the order bit-identity
// requires. No pool and no scheduler, so a Session result that matches
// one of these matches an independent fold.
//
// Also the oracle for the experiment primitives: fresh_isolation and
// fresh_contention build a new Machine per run and interpret every
// core — no lease, no scripts, no shared run protocol. The leased,
// replaying run_isolation / run_contention (and every estimator built
// on them, through fresh_machines()) must match them bit for bit.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/campaign.h"
#include "core/experiment.h"
#include "core/scenario.h"
#include "engine/reduce.h"
#include "isa/program.h"
#include "machine/config.h"
#include "machine/machine.h"
#include "sim/contract.h"
#include "stats/checkpoint.h"

namespace rrb::reference {

/// run_isolation on a fresh machine, interpreting.
inline Measurement fresh_isolation(const MachineConfig& config,
                                   const Program& scua, CoreId scua_core,
                                   Cycle max_cycles) {
    RRB_REQUIRE(scua_core < config.num_cores, "scua core out of range");
    Machine machine(config);
    machine.load_program(scua_core, scua);
    machine.warm_static_footprint(scua_core);
    const RunResult r = machine.run_until_core(scua_core, max_cycles);
    const Cycle et = r.deadline_reached ? r.cycles
                                        : r.finish_cycle[scua_core];
    return detail::snapshot_measurement(machine, scua_core, et,
                                        r.deadline_reached);
}

/// run_contention on a fresh machine, interpreting.
inline Measurement fresh_contention(const MachineConfig& config,
                                    const Program& scua,
                                    const std::vector<Program>& contenders,
                                    CoreId scua_core, Cycle max_cycles) {
    RRB_REQUIRE(scua_core < config.num_cores, "scua core out of range");
    RRB_REQUIRE(!contenders.empty(), "need at least one contender");
    Machine machine(config);
    machine.load_program(scua_core, scua);
    std::size_t next = 0;
    for (CoreId c = 0; c < config.num_cores; ++c) {
        if (c == scua_core) continue;
        Program contender = contenders[next % contenders.size()];
        ++next;
        // The contender must outlive the scua: give it an effectively
        // unbounded iteration count (bounded only by max_cycles).
        contender.iterations = max_cycles;  // >= 1 cycle per iteration
        machine.load_program(c, contender);
        machine.warm_static_footprint(c);
    }
    machine.warm_static_footprint(scua_core);
    const RunResult r = machine.run_until_core(scua_core, max_cycles);
    const Cycle et = r.deadline_reached ? r.cycles
                                        : r.finish_cycle[scua_core];
    return detail::snapshot_measurement(machine, scua_core, et,
                                        r.deadline_reached);
}

/// The oracle as an estimator backend.
inline ExperimentBackend fresh_machines() {
    return {&fresh_isolation, &fresh_contention};
}

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
    return fresh_isolation(config, scua, 0, protocol.max_cycles_per_run);
}

inline PwcetCampaignResult pwcet(const MachineConfig& config,
                                 const Program& scua,
                                 const std::vector<Program>& contenders,
                                 const HwmCampaignOptions& protocol,
                                 const PwcetSpec& spec) {
    const PwcetAccumulator acc = serial_fold(
        protocol.runs, PwcetAccumulator(spec.block_size),
        [&](PwcetAccumulator& a, std::uint64_t run) {
            a.add(run, detail::hwm_campaign_measure(config, scua, contenders,
                                                    protocol, run));
        });
    const Measurement isol = isolation(config, scua, protocol);
    return finalize_pwcet_campaign(acc, isol.exec_time, isol.bus_requests,
                                   spec.exceedance);
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
