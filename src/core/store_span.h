// Store-buffer-based ubd estimation — the second, independent measurement
// path implied by Section 5.3 / Figure 7(b).
//
// Store-buffer drains inject with delta = 0, so under saturation every
// drain suffers the full ubd and a drain slot frees every Nc*lbus cycles.
// The slowdown of rsk-nop(store, k) versus isolation is then
//
//     dbus(k)/store = max(k+1, Nc*lbus) - max(k+1, lbus)
//
// i.e. a plateau of height ubd while k+1 <= lbus, a unit-slope descending
// ramp for lbus < k+1 < Nc*lbus, and exactly zero afterwards. The length
// of the ramp — first-zero minus first-below-plateau plus one — equals
// ubd. Because this path reaches the true delta = 0 alignment (which the
// load path never can, Section 3.2), it cross-checks the load saw-tooth
// estimate: two structurally different measurements agreeing on one
// number is the "increased confidence" the paper's title asks for.
#pragma once

#include <cstdint>
#include <vector>

#include "core/estimator.h"
#include "machine/config.h"

namespace rrb {

struct StoreSpanEstimate {
    bool found = false;
    Cycle ubd = 0;
    std::size_t plateau_end = 0;  ///< last k on the plateau
    std::size_t first_zero = 0;   ///< first k with (sustained) zero slowdown
    std::vector<double> dbus;     ///< the store sweep, k = 0..k_max
};

/// Runs the store sweep and extracts ubd from the descending span.
/// `options.access` is ignored (forced to stores).
[[nodiscard]] StoreSpanEstimate estimate_ubd_store_span(
    const MachineConfig& config, const UbdEstimatorOptions& options = {},
    const ExperimentBackend& backend = {});

/// Runs both the load saw-tooth path and the store span path and reports
/// agreement — the full cross-checked methodology.
struct CrossCheckedEstimate {
    UbdEstimate load_path;
    StoreSpanEstimate store_path;
    bool agree = false;        ///< both found and equal
    Cycle ubd = 0;             ///< the agreed value (when agree)
};

[[nodiscard]] CrossCheckedEstimate estimate_ubd_cross_checked(
    const MachineConfig& config, const UbdEstimatorOptions& options = {});

}  // namespace rrb
