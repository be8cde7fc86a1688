#include "core/campaign.h"

#include <algorithm>

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

namespace {

/// Fingerprints of the programs a run installs, each hashed once: the
/// scua's (unless `scua_fingerprint` already is it), then each
/// contender's as re-scoped to the cycle cap.
std::vector<std::uint64_t> installed_fingerprints(
    const Program& scua, const std::vector<Program>& contenders,
    const HwmCampaignOptions& options, std::uint64_t scua_fingerprint = 0) {
    std::vector<std::uint64_t> installed;
    installed.reserve(contenders.size() + 1);
    installed.push_back(scua_fingerprint != 0 ? scua_fingerprint
                                              : fingerprint(scua));
    for (const Program& contender : contenders) {
        installed.push_back(
            fingerprint(contender, options.max_cycles_per_run));
    }
    return installed;
}

std::uint64_t program_set_fingerprint(
    const std::vector<std::uint64_t>& installed, CoreId scua_core) {
    Fnv1a h;
    h.u64(scua_core);
    h.u64(installed.size());
    for (const std::uint64_t fp : installed) h.u64(fp);
    // Seed and start delays are per-run inputs and deliberately excluded.
    const std::uint64_t value = h.value();
    return value == 0 ? 1 : value;  // 0 is the "nothing installed" tag
}

/// `installed` laid out by core, the way execute_campaign_run places
/// the programs (0 on a core left idle).
std::vector<std::uint64_t> per_core_fingerprints(
    const std::vector<std::uint64_t>& installed, CoreId num_cores,
    CoreId scua_core) {
    std::vector<std::uint64_t> per_core(num_cores, 0);
    per_core[scua_core] = installed.front();
    const std::size_t contenders = installed.size() - 1;
    std::size_t next = 0;
    for (CoreId c = 0; c < num_cores && contenders > 0; ++c) {
        if (c == scua_core) continue;
        per_core[c] = installed[1 + next % contenders];
        ++next;
    }
    return per_core;
}

/// The per-run campaign telemetry, counted once per run after the fact
/// so every hook stays off the cycle loop. The machine's skip
/// statistics were reset with the run, so they are exactly this run's.
/// A run that reached its cycle cap `cap` throws CycleCapReached.
Cycle count_campaign_run(const Machine& machine,
                         const replay::ScriptCache& scripts, Cycle finish,
                         Cycle cap) {
    if (finish == kNoCycle) throw CycleCapReached(cap);
    // Every core hosts a program in a campaign run, so a null script is
    // a declined decode and the run at least partly interprets.
    const bool all_replay =
        std::find(scripts.per_core.begin(), scripts.per_core.end(),
                  nullptr) == scripts.per_core.end();
    obs::count(all_replay ? obs::kReplayRuns : obs::kReplayFallbackRuns);
    obs::count(obs::kRunsCompleted);
    obs::count(obs::kCyclesSimulated, finish);
    obs::count(obs::kEventsSkipped, machine.events_skipped());
    obs::count(obs::kCyclesSkipped, machine.cycles_skipped());
    obs::count(obs::kBusOnlySteps, machine.bus_only_steps());
    using Kind = Machine::StepKind;
    obs::count(obs::kStepsScuaCompletion,
               machine.steps(Kind::kScuaCompletion));
    obs::count(obs::kStepsScuaTick, machine.steps(Kind::kScuaTick));
    obs::count(obs::kStepsDramEvent, machine.steps(Kind::kDramEvent));
    obs::count(obs::kStepsContender, machine.steps(Kind::kContender));
    obs::count(obs::kStepsArbitration, machine.steps(Kind::kArbitration));
    obs::count(obs::kPeriodsFastForwarded, machine.periods_fast_forwarded());
    obs::count(obs::kCyclesFastForwarded, machine.cycles_fast_forwarded());
    return finish;
}

}  // namespace

std::uint64_t campaign_fingerprint(const Program& scua,
                                   const std::vector<Program>& contenders,
                                   const HwmCampaignOptions& options,
                                   CoreId scua_core) {
    return program_set_fingerprint(
        installed_fingerprints(scua, contenders, options), scua_core);
}

Cycle execute_campaign_run(Machine& machine, std::uint64_t& loaded_campaign,
                           const Program& scua,
                           const std::vector<Program>& contenders,
                           const HwmCampaignOptions& options,
                           std::uint64_t run_index,
                           replay::ScriptCache* scripts,
                           std::uint64_t campaign, CoreId scua_core) {
    const MachineConfig& config = machine.config();
    RRB_REQUIRE(scua_core < config.num_cores, "scua core out of range");
    // Per-run seed derivation (not one RNG shared across runs): run i's
    // offsets depend only on (options.seed, i), never on which thread or
    // in which order the run executes.
    const engine::SeedSequence seeds(options.seed);
    Pcg32 rng(seeds.seed_for(run_index), run_index);

    // Hashed only when needed, and then once: a hoisted `campaign` that
    // matches the machine skips hashing (and allocating) entirely. A
    // scua the machine already hosts on its core — an estimator's
    // contention run after the isolation run — keeps the fingerprint the
    // pool recorded for it.
    std::vector<std::uint64_t> installed;
    if (campaign == 0) {
        const bool scua_hosted =
            scripts != nullptr && loaded_campaign != 0 &&
            loaded_campaign == scripts->campaign &&
            machine.has_program(scua_core) &&
            machine.core(scua_core).program() == scua;
        installed = installed_fingerprints(
            scua, contenders, options,
            scua_hosted ? scripts->programs[scua_core] : 0);
        campaign = program_set_fingerprint(installed, scua_core);
    }
    const bool reuse_programs = loaded_campaign == campaign;

    if (reuse_programs) {
        // The machine already hosts exactly these programs: restore
        // power-on hardware state in place and restart the cores with
        // this run's offsets — no Program copies, no allocation.
        machine.reset_keep_programs();
        machine.restart_program(scua_core, 0);
    } else {
        machine.reset();
        machine.load_program(scua_core, scua);
    }
    std::size_t next = 0;
    for (CoreId c = 0; c < config.num_cores && !contenders.empty(); ++c) {
        if (c == scua_core) continue;
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
    if (scripts != nullptr && scripts->campaign != campaign) {
        if (installed.empty()) {
            installed = installed_fingerprints(scua, contenders, options);
        }
        replay::prepare_scripts(
            *scripts, machine, campaign,
            per_core_fingerprints(installed, config.num_cores, scua_core));
    }
    for (CoreId c = 0; c < config.num_cores; ++c) {
        machine.attach_replay(c, scripts != nullptr ? scripts->per_core[c]
                                                    : nullptr);
    }
    for (CoreId c = 0; c < config.num_cores; ++c) {
        if (machine.has_program(c)) machine.warm_static_footprint(c);
    }
    loaded_campaign = campaign;
    return machine.run_core(scua_core, options.max_cycles_per_run);
}

Cycle hwm_campaign_run(const MachineConfig& config, const Program& scua,
                       const std::vector<Program>& contenders,
                       const HwmCampaignOptions& options,
                       std::uint64_t run_index, std::uint64_t campaign) {
    engine::MachineLease lease(config);
    return count_campaign_run(
        lease.machine(), lease.scripts(),
        execute_campaign_run(lease.machine(), lease.campaign(), scua,
                             contenders, options, run_index,
                             &lease.scripts(), campaign),
        options.max_cycles_per_run);
}

Measurement hwm_campaign_measure(const MachineConfig& config,
                                 const Program& scua,
                                 const std::vector<Program>& contenders,
                                 const HwmCampaignOptions& options,
                                 std::uint64_t run_index,
                                 std::uint64_t campaign) {
    engine::MachineLease lease(config);
    const Cycle finish = count_campaign_run(
        lease.machine(), lease.scripts(),
        execute_campaign_run(lease.machine(), lease.campaign(), scua,
                             contenders, options, run_index,
                             &lease.scripts(), campaign),
        options.max_cycles_per_run);
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
    // when the run throws (CycleCapReached).
    struct Disarm {
        Machine& machine;
        ~Disarm() { machine.disarm_attribution(); }
    } disarm{machine};
    const Cycle finish = count_campaign_run(
        machine, lease.scripts(),
        execute_campaign_run(machine, lease.campaign(), scua, contenders,
                             options, run_index, &lease.scripts(),
                             campaign),
        options.max_cycles_per_run);
    machine.finalize_attribution();
    acc.add(run_index, machine.attribution());
    return finish;
}

}  // namespace detail

}  // namespace rrb
