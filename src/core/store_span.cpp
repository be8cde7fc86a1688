#include "core/store_span.h"

#include <algorithm>
#include <cmath>

#include "core/experiment.h"
#include "sim/contract.h"

namespace rrb {

StoreSpanEstimate estimate_ubd_store_span(
    const MachineConfig& config, const UbdEstimatorOptions& options,
    const ExperimentBackend& backend) {
    RRB_REQUIRE(options.k_max >= 8, "sweep too short for a store span");
    RRB_REQUIRE(options.rsk_iterations >= 1, "need at least one iteration");

    const std::vector<Program> contenders =
        make_rsk_contenders(config, OpKind::kStore, options.unroll);

    StoreSpanEstimate estimate;
    estimate.dbus.reserve(options.k_max + 1);
    run_rsk_nop_sweep(config, options, OpKind::kStore, contenders, backend,
                      [&estimate](std::uint32_t, const SlowdownResult& r) {
                          estimate.dbus.push_back(
                              static_cast<double>(r.slowdown()));
                      });

    const double plateau = estimate.dbus.front();
    if (plateau <= 0.0) return estimate;  // no contention at all
    const double epsilon = plateau * 0.02;

    // Boundary markers (for reporting): last index near the plateau and
    // first index of the sustained-zero tail.
    std::size_t plateau_end = 0;
    for (std::size_t k = 0; k < estimate.dbus.size(); ++k) {
        if (estimate.dbus[k] >= plateau - epsilon) {
            plateau_end = k;
        } else {
            break;
        }
    }
    std::size_t first_zero = estimate.dbus.size();
    for (std::size_t k = plateau_end + 1; k < estimate.dbus.size(); ++k) {
        if (estimate.dbus[k] > epsilon) continue;
        bool stays = true;
        for (std::size_t j = k; j < estimate.dbus.size(); ++j) {
            if (estimate.dbus[j] > epsilon) stays = false;
        }
        if (stays) {
            first_zero = k;
            break;
        }
    }
    if (first_zero >= estimate.dbus.size()) return estimate;  // span not
                                                              // covered
    estimate.plateau_end = plateau_end;
    estimate.first_zero = first_zero;

    // ubd extraction. The model is dbus(k)/store =
    // max(k*dnop + c, Nc*lbus) - max(k*dnop + c, lbus): a plateau of
    // height nr*ubd and a unit-slope (nr*dnop per k) ramp. The ratio
    // plateau/slope is therefore ubd/dnop exactly, independent of the
    // boundary indices — which a threshold search can only locate to
    // within its tolerance when one k-step is small against the plateau.
    // The slope is the median decrement over the interior of the ramp.
    std::vector<double> decrements;
    for (std::size_t k = plateau_end + 1; k + 1 < first_zero; ++k) {
        const double d = estimate.dbus[k] - estimate.dbus[k + 1];
        if (d > 0.0) decrements.push_back(d);
    }
    if (decrements.empty()) return estimate;
    std::nth_element(decrements.begin(),
                     decrements.begin() +
                         static_cast<std::ptrdiff_t>(decrements.size() / 2),
                     decrements.end());
    const double slope = decrements[decrements.size() / 2];
    RRB_ENSURE(slope > 0.0);
    estimate.ubd = static_cast<Cycle>(
        std::llround(plateau / slope *
                     static_cast<double>(options.nop_latency)));
    estimate.found = estimate.ubd > 0;
    return estimate;
}

CrossCheckedEstimate estimate_ubd_cross_checked(
    const MachineConfig& config, const UbdEstimatorOptions& options) {
    CrossCheckedEstimate out;
    out.load_path = estimate_ubd(config, options);
    out.store_path = estimate_ubd_store_span(config, options);
    out.agree = out.load_path.found && out.store_path.found &&
                out.load_path.ubd == out.store_path.ubd;
    if (out.agree) out.ubd = out.load_path.ubd;
    return out;
}

}  // namespace rrb
