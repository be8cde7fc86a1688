#include "core/campaign.h"

#include "core/experiment.h"
#include "engine/machine_lease.h"
#include "engine/seed_sequence.h"
#include "machine/machine.h"
#include "obs/telemetry.h"
#include "replay/script_cache.h"
#include "sim/contract.h"
#include "sim/fnv.h"
#include "sim/rng.h"

namespace rrb {

namespace detail {

std::uint64_t campaign_fingerprint(const Program& scua,
                                   const std::vector<Program>& contenders,
                                   const HwmCampaignOptions& options) {
    Fnv1a h;
    h.u64(fingerprint(scua));
    h.u64(contenders.size());
    for (const Program& contender : contenders) {
        h.u64(fingerprint(contender));
    }
    // The cycle cap re-scopes contender iteration counts at load time,
    // so it is part of what "the same programs" means. Seed and start
    // delays are per-run inputs and deliberately excluded.
    h.u64(options.max_cycles_per_run);
    const std::uint64_t value = h.value();
    return value == 0 ? 1 : value;  // 0 is the "nothing installed" tag
}

Cycle execute_campaign_run(Machine& machine, std::uint64_t& loaded_campaign,
                           const Program& scua,
                           const std::vector<Program>& contenders,
                           const HwmCampaignOptions& options,
                           std::uint64_t run_index,
                           replay::ScriptCache* scripts,
                           std::uint64_t campaign) {
    // Per-run seed derivation (not one RNG shared across runs): run i's
    // offsets depend only on (options.seed, i), never on which thread or
    // in which order the run executes.
    const engine::SeedSequence seeds(options.seed);
    Pcg32 rng(seeds.seed_for(run_index), run_index);

    if (campaign == 0) {
        campaign = campaign_fingerprint(scua, contenders, options);
    }
    const bool reuse_programs = loaded_campaign == campaign;

    const MachineConfig& config = machine.config();
    if (reuse_programs) {
        // The machine already hosts exactly these programs: restore
        // power-on hardware state in place and restart the cores with
        // this run's offsets — no Program copies, no allocation.
        machine.reset_keep_programs();
        machine.restart_program(0, 0);
    } else {
        machine.reset();
        machine.load_program(0, scua);
    }
    std::size_t next = 0;
    for (CoreId c = 1; c < config.num_cores; ++c) {
        const Cycle delay =
            options.max_start_delay == 0
                ? 0
                : rng.next_below(static_cast<std::uint32_t>(
                      options.max_start_delay + 1));
        if (reuse_programs) {
            machine.restart_program(c, delay);
        } else {
            Program contender = contenders[next % contenders.size()];
            contender.iterations = options.max_cycles_per_run;
            machine.load_program(c, std::move(contender), delay);
        }
        ++next;
    }
    // Execution mode. Scripts attach before the warms so a replaying
    // core's redundant per-run IL1 warm is skipped; warming after the
    // loads instead of interleaved is behavior-preserving (each warm
    // touches only the core's own L1 and its private L2 partition).
    if (scripts != nullptr) {
        if (scripts->campaign != campaign) {
            replay::prepare_scripts(*scripts, machine, campaign);
        }
        // Every core hosts a program here, so a null script is a
        // declined decode and the run at least partly interprets.
        bool all_replay = true;
        for (CoreId c = 0; c < config.num_cores; ++c) {
            machine.attach_replay(c, scripts->per_core[c]);
            all_replay = all_replay && scripts->per_core[c] != nullptr;
        }
        obs::count(all_replay ? obs::kReplayRuns
                              : obs::kReplayFallbackRuns);
    } else {
        for (CoreId c = 0; c < config.num_cores; ++c) {
            machine.attach_replay(c, nullptr);
        }
    }
    for (CoreId c = 0; c < config.num_cores; ++c) {
        machine.warm_static_footprint(c);
    }
    loaded_campaign = campaign;
    const Cycle finish = machine.run_core(0, options.max_cycles_per_run);
    RRB_ENSURE(finish != kNoCycle);
    // Out-of-band telemetry: the machine's skip statistics were reset
    // with the run, so they are exactly this run's. Counting here (once
    // per run, after the fact) keeps every hook off the cycle loop.
    obs::count(obs::kRunsCompleted);
    obs::count(obs::kCyclesSimulated, finish);
    obs::count(obs::kEventsSkipped, machine.events_skipped());
    obs::count(obs::kCyclesSkipped, machine.cycles_skipped());
    return finish;
}

Cycle hwm_campaign_run(const MachineConfig& config, const Program& scua,
                       const std::vector<Program>& contenders,
                       const HwmCampaignOptions& options,
                       std::uint64_t run_index, std::uint64_t campaign) {
    engine::MachineLease lease(config);
    return execute_campaign_run(lease.machine(), lease.campaign(), scua,
                                contenders, options, run_index,
                                &lease.scripts(), campaign);
}

Measurement hwm_campaign_measure(const MachineConfig& config,
                                 const Program& scua,
                                 const std::vector<Program>& contenders,
                                 const HwmCampaignOptions& options,
                                 std::uint64_t run_index,
                                 std::uint64_t campaign) {
    engine::MachineLease lease(config);
    const Cycle finish =
        execute_campaign_run(lease.machine(), lease.campaign(), scua,
                             contenders, options, run_index,
                             &lease.scripts(), campaign);
    return snapshot_measurement(lease.machine(), 0, finish,
                                /*deadline_reached=*/false);
}

Cycle hwm_campaign_attribute(const MachineConfig& config,
                             const Program& scua,
                             const std::vector<Program>& contenders,
                             const HwmCampaignOptions& options,
                             std::uint64_t run_index,
                             AttributionAccumulator& acc,
                             std::uint64_t campaign) {
    engine::MachineLease lease(config);
    Machine& machine = lease.machine();
    machine.arm_attribution();
    // Leased machines outlive this run — never leave one armed, even
    // when the run throws (deadline ENSURE).
    struct Disarm {
        Machine& machine;
        ~Disarm() { machine.disarm_attribution(); }
    } disarm{machine};
    const Cycle finish =
        execute_campaign_run(machine, lease.campaign(), scua, contenders,
                             options, run_index, &lease.scripts(), campaign);
    machine.finalize_attribution();
    acc.add(run_index, machine.attribution());
    return finish;
}

}  // namespace detail

}  // namespace rrb
