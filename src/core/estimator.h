// The measurement-based ubd estimator (Section 4) — the paper's
// contribution.
//
// Inputs (Section 4.3): the bus arbitration policy is round-robin, and the
// instruction types that reach the bus. *No* bus latency or slot
// information is used anywhere in this file: every quantity is derived
// from execution-time measurements of rsk-nop(t, k) against Nc-1 rsk(t)
// contenders.
//
// Procedure:
//   1. calibrate delta_nop with the all-nop kernel;
//   2. (confidence) check that Nc-1 rsk saturate the bus, using the
//      utilization PMCs;
//   3. for k = 0..k_max, measure dbus(t, k) = et_contention - et_isolation
//      of rsk-nop(t, k);
//   4. the period of the dbus saw-tooth, in k steps, times delta_nop, is
//      ubd (Equation 3) — cross-checked across four period detectors.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/calibrate.h"
#include "core/experiment.h"
#include "isa/program.h"
#include "machine/config.h"
#include "stats/periodicity.h"

namespace rrb {

struct UbdEstimatorOptions {
    /// Instruction type t of rsk-nop(t, k) and the rsk contenders.
    OpKind access = OpKind::kLoad;
    /// Sweep range for k. Must cover at least two saw-tooth periods of the
    /// (unknown) ubd; 2.5x the expected ubd is a safe default on NGMP-class
    /// parts, and the estimator reports when no period was found so the
    /// user can re-run with a larger range.
    std::uint32_t k_max = 70;
    /// Loop-body repetitions per measurement (measurement length).
    std::uint64_t rsk_iterations = 100;
    /// Unroll factor of the rsk bodies.
    std::uint32_t unroll = 32;
    /// Latency of the platform's nop instruction as built into the
    /// kernels (models a slow integer pipe; Section 4.2's
    /// "unlikely case delta_nop > 1").
    std::uint32_t nop_latency = 1;
    /// Relative tolerance for "equal dbus" in the period detectors,
    /// as a fraction of the series range (simulations are deterministic,
    /// but a real board would need slack here).
    double relative_tolerance = 0.01;
    /// Bus utilization below this in the saturation check degrades
    /// confidence (Section 4.3: Nc-1 rsk "should suffice to increase the
    /// utilization of the bus to 100%, other than handshaking time").
    /// An unsaturated bus stretches the round-robin window by the
    /// contenders' re-injection gaps and the estimate becomes a
    /// conservative over-approximation (e.g. Nc = 2 with a load rsk).
    double min_saturation_utilization = 0.95;
    Cycle max_cycles_per_run = 200'000'000;
};

struct ConfidenceReport {
    double saturation_utilization = 0.0;  ///< bus load under Nc-1 rsk + rsk
    bool saturated = false;
    NopCalibration nop;
    int detector_votes = 0;  ///< period detectors agreeing (of 4)
    std::vector<std::string> warnings;
    [[nodiscard]] bool trustworthy() const noexcept {
        return warnings.empty();
    }
};

struct UbdEstimate {
    bool found = false;
    /// The estimate. When delta_nop = 1 this is simply the saw-tooth
    /// period; when delta_nop > 1 the sweep samples the delta axis with
    /// stride delta_nop and aliases: period_k = ubd / gcd(delta_nop, ubd).
    /// The estimator disambiguates among the candidates
    /// {period_k * g : g | delta_nop} using the measured per-request
    /// saw-tooth amplitude, which is ubd - gcd by construction. (The
    /// paper's Section 4.2 asserts the conversion is "easy" once
    /// delta_nop is known; the aliasing correction is the missing piece.)
    Cycle ubd = 0;
    std::size_t period_k = 0;      ///< saw-tooth period in nop-count steps
    double amplitude_per_request = 0.0;  ///< (max-min dbus) / nr
    std::uint64_t nr = 0;          ///< scua bus requests per measurement
    std::vector<double> dbus;      ///< dbus(t, k) for k = 0..k_max
    std::vector<double> et_isolation;
    std::vector<double> et_contention;
    PeriodConsensus consensus;
    ConfidenceReport confidence;
};

/// Runs the full methodology on the given platform configuration,
/// taking every measurement through `backend`.
[[nodiscard]] UbdEstimate estimate_ubd(
    const MachineConfig& config, const UbdEstimatorOptions& options = {},
    const ExperimentBackend& backend = {});

/// Helper: the rsk contender set (Nc - 1 copies of rsk(t)) used both by
/// the estimator and by the validation benches.
[[nodiscard]] std::vector<Program> make_rsk_contenders(
    const MachineConfig& config, OpKind access, std::uint32_t unroll = 32);

/// The k sweep both estimators take (Section 4): for k = 0..k_max, one
/// slowdown run of an rsk-nop(`access`, k) scua against `contenders`,
/// all at the one unroll factor that fits the largest body (k = k_max)
/// in the IL1. `visit(k, result)` sees each run.
void run_rsk_nop_sweep(
    const MachineConfig& config, const UbdEstimatorOptions& options,
    OpKind access, const std::vector<Program>& contenders,
    const ExperimentBackend& backend,
    const std::function<void(std::uint32_t, const SlowdownResult&)>& visit);

}  // namespace rrb
