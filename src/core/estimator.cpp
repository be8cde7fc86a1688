#include "core/estimator.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/experiment.h"
#include "kernels/rsk.h"
#include "sim/contract.h"

namespace rrb {

std::vector<Program> make_rsk_contenders(const MachineConfig& config,
                                         OpKind access,
                                         std::uint32_t unroll) {
    RskParams params;
    params.dl1_geometry = config.core.dl1_geometry;
    params.access = access;
    params.unroll = unroll;
    params.iterations = 1;  // re-scoped by run_contention
    // Contender data/code regions are distinct from the scua's for
    // clarity; L1s are private and the L2 is way-partitioned, so overlap
    // would not change timing.
    params.data_base = 0x0800'0000;
    params.code_base = 0x0004'0000;
    return {make_rsk(params)};
}

void run_rsk_nop_sweep(
    const MachineConfig& config, const UbdEstimatorOptions& options,
    OpKind access, const std::vector<Program>& contenders,
    const ExperimentBackend& backend,
    const std::function<void(std::uint32_t, const SlowdownResult&)>& visit) {
    // One unroll factor for the whole sweep, sized so even the largest
    // body (k = k_max) fits the IL1. A factor that varied with k would
    // vary the per-measurement request count nr and destroy the
    // periodicity of dbus(k).
    const std::uint64_t il1_capacity_instrs =
        config.core.il1_geometry.size_bytes / Program::kInstrBytes;
    const std::uint64_t largest_group =
        static_cast<std::uint64_t>(config.core.dl1_geometry.ways + 1) *
        (1 + options.k_max);
    const std::uint64_t cap =
        std::max<std::uint64_t>(1, il1_capacity_instrs / largest_group);
    RskParams params;
    params.dl1_geometry = config.core.dl1_geometry;
    params.il1_geometry = config.core.il1_geometry;
    params.access = access;
    params.unroll = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(options.unroll, cap));
    params.iterations = options.rsk_iterations;
    params.nop_latency = options.nop_latency;
    params.data_base = 0x0010'0000;
    params.code_base = 0x0000'0000;
    for (std::uint32_t k = 0; k <= options.k_max; ++k) {
        const SlowdownResult r =
            run_slowdown(config, make_rsk_nop(params, k), contenders, 0,
                         options.max_cycles_per_run, backend);
        require_within_cap(r.isolation, options.max_cycles_per_run);
        require_within_cap(r.contention, options.max_cycles_per_run);
        visit(k, r);
    }
}

UbdEstimate estimate_ubd(const MachineConfig& config,
                         const UbdEstimatorOptions& options,
                         const ExperimentBackend& backend) {
    RRB_REQUIRE(options.k_max >= 4, "sweep too short to contain a period");
    RRB_REQUIRE(options.rsk_iterations >= 1, "need at least one iteration");
    RRB_REQUIRE(options.relative_tolerance >= 0.0, "negative tolerance");

    UbdEstimate estimate;

    // Step 1: delta_nop calibration.
    estimate.confidence.nop =
        calibrate_delta_nop(config, 2048, 64, options.nop_latency, backend);
    if (estimate.confidence.nop.residual() > 0.05) {
        estimate.confidence.warnings.push_back(
            "delta_nop is far from an integer cycle count; the saw-tooth "
            "is sampled unevenly");
    }

    const std::vector<Program> contenders =
        make_rsk_contenders(config, options.access, options.unroll);

    // Step 2: saturation confidence check — Section 4.3 requires that the
    // Nc-1 contenders *alone* drive the bus to ~100% utilization (read
    // from the PMC), otherwise their re-injection gaps stretch the
    // round-robin window and the estimate degrades to a conservative
    // over-approximation. The probe is a contention run capped at the
    // probe window whose scua is a one-nop loop that outlasts it: its
    // code is warmed into the IL1, so it never reaches the bus and the
    // contenders have the bus to themselves.
    {
        const Cycle probe_cycles = 50'000;
        if (config.num_cores > 1) {
            const Measurement probe = backend.contention(
                config, make_nop_kernel(1, probe_cycles), contenders, 0,
                probe_cycles);
            RRB_ENSURE(probe.deadline_reached && probe.bus_requests == 0);
            estimate.confidence.saturation_utilization =
                probe.bus_utilization;
        } else {
            estimate.confidence.saturation_utilization = 1.0;
        }
        estimate.confidence.saturated =
            estimate.confidence.saturation_utilization >=
            options.min_saturation_utilization;
        if (!estimate.confidence.saturated) {
            estimate.confidence.warnings.push_back(
                "Nc-1 rsk alone do not saturate the bus; the synchrony "
                "window includes their re-injection gaps and the estimate "
                "is a conservative over-approximation");
        }
    }

    // Step 3: the k sweep.
    estimate.dbus.reserve(options.k_max + 1);
    run_rsk_nop_sweep(
        config, options, options.access, contenders, backend,
        [&estimate](std::uint32_t k, const SlowdownResult& r) {
            if (k == 0) estimate.nr = r.isolation.bus_requests;
            estimate.et_isolation.push_back(
                static_cast<double>(r.isolation.exec_time));
            estimate.et_contention.push_back(
                static_cast<double>(r.contention.exec_time));
            estimate.dbus.push_back(static_cast<double>(r.slowdown()));
        });

    // Step 4: period detection (Equation 3) with detector cross-checking.
    double lo = estimate.dbus[0];
    double hi = estimate.dbus[0];
    for (const double v : estimate.dbus) {
        lo = std::min(lo, v);
        hi = std::max(hi, v);
    }
    const double tolerance = (hi - lo) * options.relative_tolerance;
    estimate.consensus = consensus_period(estimate.dbus, tolerance);
    estimate.confidence.detector_votes = estimate.consensus.votes;

    if (!estimate.consensus.found()) {
        estimate.confidence.warnings.push_back(
            "no saw-tooth period found; either the sweep is too short or "
            "the arbiter is not round-robin");
        return estimate;
    }
    if (estimate.consensus.votes < 2) {
        estimate.confidence.warnings.push_back(
            "period detectors disagree; treat the estimate with caution");
    }

    estimate.period_k = estimate.consensus.period;

    // Convert the period from nop-steps to cycles. With delta_nop = g*m
    // the sweep samples the delta axis with stride delta_nop, and the
    // fundamental relation is period_k = ubd / gcd(delta_nop, ubd): the
    // true ubd is one of {period_k * g : g | delta_nop}. Disambiguate by
    // the per-request saw-tooth amplitude, which equals
    // ubd - gcd(delta_nop, ubd) independently of the (unknown) intrinsic
    // injection time. (Section 4.2 leaves this aliasing correction
    // implicit.)
    const Cycle dn = estimate.confidence.nop.rounded();
    RRB_ENSURE(dn >= 1);
    estimate.amplitude_per_request =
        estimate.nr == 0 ? 0.0
                         : (hi - lo) / static_cast<double>(estimate.nr);
    Cycle best_candidate = static_cast<Cycle>(estimate.period_k) * dn;
    double best_error = std::numeric_limits<double>::infinity();
    for (Cycle g = 1; g <= dn; ++g) {
        if (dn % g != 0) continue;
        const Cycle candidate = static_cast<Cycle>(estimate.period_k) * g;
        const double predicted_amplitude =
            static_cast<double>(candidate) - static_cast<double>(g);
        const double error =
            std::fabs(estimate.amplitude_per_request - predicted_amplitude);
        if (error < best_error) {
            best_error = error;
            best_candidate = candidate;
        }
    }
    estimate.ubd = best_candidate;
    estimate.found = true;
    return estimate;
}

}  // namespace rrb
