#include "core/experiment.h"

#include <string>

#include "core/campaign.h"
#include "engine/machine_lease.h"
#include "machine/machine.h"
#include "sim/contract.h"

namespace rrb {

namespace {

/// One experiment run: the campaign run protocol with no release
/// offsets, on this thread's leased machine for `config`, every core
/// replaying from the lease's script pool. Machine::reset() is
/// bit-identical to fresh construction and replay to interpretation,
/// so the result equals a fresh machine's. No campaign counters move.
Measurement measure(const MachineConfig& config, const Program& scua,
                    const std::vector<Program>& contenders,
                    CoreId scua_core, Cycle max_cycles) {
    HwmCampaignOptions protocol;
    protocol.runs = 1;
    protocol.max_start_delay = 0;
    protocol.max_cycles_per_run = max_cycles;
    engine::MachineLease lease(config);
    Machine& machine = lease.machine();
    const Cycle finish = detail::execute_campaign_run(
        machine, lease.campaign(), scua, contenders, protocol,
        /*run_index=*/0, &lease.scripts(), /*campaign=*/0, scua_core);
    const bool deadline_reached = finish == kNoCycle;
    return detail::snapshot_measurement(
        machine, scua_core, deadline_reached ? machine.now() : finish,
        deadline_reached);
}

}  // namespace

CycleCapReached::CycleCapReached(Cycle cap)
    : std::runtime_error("a run reached its cycle cap of " +
                         std::to_string(cap) +
                         " cycles before the scua finished") {}

void require_within_cap(const Measurement& m, Cycle cap) {
    if (m.deadline_reached) throw CycleCapReached(cap);
}

namespace detail {

Measurement snapshot_measurement(Machine& machine, CoreId scua_core,
                                 Cycle exec_time, bool deadline_reached) {
    Measurement m;
    m.exec_time = exec_time;
    m.deadline_reached = deadline_reached;

    const BusCoreCounters& counters = machine.bus().counters(scua_core);
    m.bus_requests = counters.requests;
    const Cycle elapsed = machine.now() == 0 ? 1 : machine.now();
    m.bus_utilization = machine.bus().utilization(elapsed);
    m.scua_bus_share = static_cast<double>(counters.busy_cycles) /
                       static_cast<double>(elapsed);
    m.gamma = counters.gamma;
    m.max_gamma = counters.max_wait;
    m.ready_contenders = counters.ready_contenders;
    m.injection_delta = machine.core(scua_core).stats().load_injection_delta;
    return m;
}

}  // namespace detail

Measurement run_isolation(const MachineConfig& config, const Program& scua,
                          CoreId scua_core, Cycle max_cycles) {
    return measure(config, scua, {}, scua_core, max_cycles);
}

Measurement run_contention(const MachineConfig& config, const Program& scua,
                           const std::vector<Program>& contenders,
                           CoreId scua_core, Cycle max_cycles) {
    RRB_REQUIRE(!contenders.empty(), "need at least one contender");
    return measure(config, scua, contenders, scua_core, max_cycles);
}

SlowdownResult run_slowdown(const MachineConfig& config, const Program& scua,
                            const std::vector<Program>& contenders,
                            CoreId scua_core, Cycle max_cycles,
                            const ExperimentBackend& backend) {
    SlowdownResult result;
    result.isolation =
        backend.isolation(config, scua, scua_core, max_cycles);
    result.contention = backend.contention(config, scua, contenders,
                                           scua_core, max_cycles);
    RRB_ENSURE(result.contention.exec_time >= result.isolation.exec_time);
    return result;
}

}  // namespace rrb
