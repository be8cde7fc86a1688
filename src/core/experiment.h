// Experiment harness: the measurement discipline of Sections 2-4.
//
// One experiment = a software component under analysis (scua) on one core,
// contender programs on the remaining cores, run until the scua finishes
// ("rsk must not complete execution before the scua" — contender programs
// are re-scoped to effectively infinite iterations). Results expose both
// the black-box quantities a COTS user can read (execution time, request
// counts, bus-utilization PMCs — NGMP counters 0x17/0x18) and white-box
// introspection (per-request contention delays) used only to *validate*
// the methodology, never inside it.
//
// Low-level layer: these free functions are the primitives underneath
// the Scenario/Session API (core/scenario.h, core/session.h). Prefer
// Session::isolation / Session::contention / Session::slowdown in new
// code; the functions here stay for single-run composition.
//
// Each run is one run of the campaign protocol
// (detail::execute_campaign_run, core/campaign.h) with no release
// offsets, on the calling thread's leased machine (engine::MachineLease),
// replaying from the lease's program-keyed script pool. Results equal a
// fresh machine's interpretation bit for bit; tests/serial_reference.h
// keeps that fresh-machine interpreter as the oracle.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "isa/program.h"
#include "machine/config.h"
#include "stats/histogram.h"

namespace rrb {

struct Measurement {
    // --- black-box: observable on real COTS hardware ---
    Cycle exec_time = 0;            ///< scua cycles from reset to finish
    std::uint64_t bus_requests = 0; ///< scua's nr (PMC)
    double bus_utilization = 0.0;   ///< whole-bus occupancy (PMC 0x18-like)
    double scua_bus_share = 0.0;    ///< scua's own occupancy (PMC 0x17-like)

    // --- white-box: simulator introspection for validation figures ---
    Histogram gamma;                ///< per-request contention delay (scua)
    std::uint64_t max_gamma = 0;
    Histogram ready_contenders;     ///< Figure 6(a) metric (scua)
    Histogram injection_delta;      ///< delta between scua load requests
    bool deadline_reached = false;  ///< run hit the cycle cap (invalid)
};

/// A run reached its cycle cap before the scua finished, so it measured
/// nothing: no bound, campaign or estimate may use it. Input decides
/// whether a run fits its cap (`--iterations`, `--nop-latency`), so this
/// is an error the caller reports, not a broken invariant; `rrbtool`
/// exits 2 on it.
class CycleCapReached : public std::runtime_error {
public:
    explicit CycleCapReached(Cycle cap);
};

/// Throws CycleCapReached(cap) when `m` reached its cycle cap `cap`.
void require_within_cap(const Measurement& m, Cycle cap);

/// Runs `scua` alone on core `scua_core` of a machine for `config`.
[[nodiscard]] Measurement run_isolation(const MachineConfig& config,
                                        const Program& scua,
                                        CoreId scua_core = 0,
                                        Cycle max_cycles = 1'000'000'000);

/// Runs `scua` against contenders (cycled over the remaining cores if
/// fewer than Nc-1 are given). Contender iteration counts are raised so
/// they cannot finish before the scua.
[[nodiscard]] Measurement run_contention(const MachineConfig& config,
                                         const Program& scua,
                                         const std::vector<Program>& contenders,
                                         CoreId scua_core = 0,
                                         Cycle max_cycles = 1'000'000'000);

/// det(t, k) of Section 1: execution-time increase versus isolation.
struct SlowdownResult {
    Measurement isolation;
    Measurement contention;
    [[nodiscard]] Cycle slowdown() const noexcept {
        return contention.exec_time - isolation.exec_time;
    }
};

/// The two measurement primitives as one substitutable pair. The
/// estimators (core/calibrate.h, core/estimator.h, core/store_span.h)
/// measure only through it — the method is black-box: execution times
/// and PMCs in, ubd out — so a test can run them on an independent
/// backend and compare every field.
struct ExperimentBackend {
    decltype(&run_isolation) isolation = &run_isolation;
    decltype(&run_contention) contention = &run_contention;
};

[[nodiscard]] SlowdownResult run_slowdown(
    const MachineConfig& config, const Program& scua,
    const std::vector<Program>& contenders, CoreId scua_core = 0,
    Cycle max_cycles = 1'000'000'000, const ExperimentBackend& backend = {});

class Machine;

namespace detail {

/// Reads a finished machine's counters into a Measurement — the one
/// place the black-box PMC view and the white-box histograms are
/// snapshotted, shared by the experiment entry points and the campaign
/// measure path so both report identical statistics.
[[nodiscard]] Measurement snapshot_measurement(Machine& machine,
                                               CoreId scua_core,
                                               Cycle exec_time,
                                               bool deadline_reached);

}  // namespace detail

}  // namespace rrb
