#include "core/calibrate.h"

#include <algorithm>

#include "core/experiment.h"
#include "kernels/rsk.h"
#include "sim/contract.h"

namespace rrb {

NopCalibration calibrate_delta_nop(const MachineConfig& config,
                                   std::size_t body_nops,
                                   std::uint64_t iterations,
                                   std::uint32_t nop_latency,
                                   const ExperimentBackend& backend) {
    RRB_REQUIRE(body_nops >= 1, "need at least one nop");
    RRB_REQUIRE(iterations >= 1, "need at least one iteration");

    // "The loop body is made as big as possible without causing
    // instruction cache misses."
    const std::uint64_t il1_capacity_instrs =
        config.core.il1_geometry.size_bytes / Program::kInstrBytes;
    const std::size_t body =
        std::min<std::size_t>(body_nops, il1_capacity_instrs / 2);

    const Program kernel = make_nop_kernel(body, iterations, nop_latency);
    const Cycle cap = 1'000'000'000;  // run_isolation's default
    const Measurement m = backend.isolation(config, kernel, 0, cap);
    require_within_cap(m, cap);

    NopCalibration cal;
    cal.nops_executed = static_cast<std::uint64_t>(body) * iterations;
    cal.exec_time = m.exec_time;
    cal.delta_nop = static_cast<double>(m.exec_time) /
                    static_cast<double>(cal.nops_executed);
    return cal;
}

}  // namespace rrb
