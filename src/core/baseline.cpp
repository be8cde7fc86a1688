#include "core/baseline.h"

#include "core/estimator.h"
#include "kernels/rsk.h"

namespace rrb {

namespace {

NaiveUbdm evaluate(const MachineConfig& config, const Program& scua,
                   const std::vector<Program>& contenders) {
    const Cycle cap = 1'000'000'000;  // run_slowdown's default
    NaiveUbdm out;
    out.runs = run_slowdown(config, scua, contenders, 0, cap);
    require_within_cap(out.runs.isolation, cap);
    require_within_cap(out.runs.contention, cap);
    out.det = out.runs.slowdown();
    out.nr = out.runs.contention.bus_requests;
    out.ubdm_mean = out.nr == 0 ? 0.0
                                : static_cast<double>(out.det) /
                                      static_cast<double>(out.nr);
    out.ubdm_max_gamma = out.runs.contention.max_gamma;
    return out;
}

}  // namespace

NaiveUbdm naive_ubdm_scua_vs_rsk(const MachineConfig& config,
                                 const Program& scua,
                                 OpKind contender_access) {
    return evaluate(config, scua,
                    make_rsk_contenders(config, contender_access));
}

NaiveUbdm naive_ubdm_rsk_vs_rsk(const MachineConfig& config, OpKind access,
                                std::uint64_t iterations) {
    RskParams params;
    params.dl1_geometry = config.core.dl1_geometry;
    params.access = access;
    params.iterations = iterations;
    const Program scua = make_rsk(params);
    return evaluate(config, scua, make_rsk_contenders(config, access));
}

}  // namespace rrb
