// delta_nop calibration (Section 4.2).
//
// The saw-tooth is sampled at injection-time steps of delta_nop, so the
// period in *k* must be converted to cycles. The paper's recipe: run a
// kernel whose loop body is nothing but nop instructions (sized to stay
// inside the IL1) and divide its isolated execution time by the number of
// nops executed.
#pragma once

#include <cstdint>

#include "core/experiment.h"
#include "machine/config.h"
#include "sim/types.h"

namespace rrb {

struct NopCalibration {
    double delta_nop = 0.0;          ///< measured cycles per nop
    std::uint64_t nops_executed = 0;
    Cycle exec_time = 0;
    /// delta_nop rounded to the nearest integer cycle; the residual error
    /// is the loop-control dilution (< 2% by construction).
    [[nodiscard]] Cycle rounded() const noexcept {
        return static_cast<Cycle>(delta_nop + 0.5);
    }
    /// |delta_nop - rounded| / rounded: sanity signal for the confidence
    /// report.
    [[nodiscard]] double residual() const noexcept {
        const double r = static_cast<double>(rounded());
        return r == 0.0 ? 1.0 : (delta_nop > r ? delta_nop - r : r - delta_nop) / r;
    }
};

/// Measures delta_nop on the target machine configuration.
/// `body_nops` is clamped to what fits the IL1.
[[nodiscard]] NopCalibration calibrate_delta_nop(
    const MachineConfig& config, std::size_t body_nops = 2048,
    std::uint64_t iterations = 64, std::uint32_t nop_latency = 1,
    const ExperimentBackend& backend = {});

}  // namespace rrb
