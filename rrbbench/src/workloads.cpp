#include "workloads.h"

#include <algorithm>

#include "common.h"
#include "core/analytic.h"

namespace rrbbench {

std::optional<Workload> parse_workload(std::string_view name) {
    if (name == "pwcet-stream") return Workload::kPwcetStream;
    if (name == "estimate-grid") return Workload::kEstimateGrid;
    if (name == "batch-farm") return Workload::kBatchFarm;
    if (name == "attribution-armed") return Workload::kAttribution;
    return std::nullopt;
}

std::vector<std::string> EstimateConfig::cli_args() const {
    std::vector<std::string> args = {"estimate"};
    if (cores) args.insert(args.end(), {"--cores", std::to_string(*cores)});
    if (lbus) args.insert(args.end(), {"--lbus", std::to_string(*lbus)});
    args.insert(args.end(), {"--kmax", std::to_string(k_max),
                             "--iterations", std::to_string(iterations)});
    return args;
}

rrb::MachineConfig EstimateConfig::config() const {
    if (cores || lbus) {
        return rrb::MachineConfig::scaled(cores.value_or(4), lbus.value_or(9));
    }
    return rrb::MachineConfig::ngmp_ref();
}

rrb::UbdEstimatorOptions EstimateConfig::options() const {
    // Mirrors the CLI's option building: unroll 8, nop latency 1.
    rrb::UbdEstimatorOptions opt;
    opt.k_max = k_max;
    opt.unroll = 8;
    opt.rsk_iterations = iterations;
    opt.nop_latency = 1;
    return opt;
}

std::vector<EstimateConfig> estimate_grid() {
    return {
        {"ref", std::nullopt, std::nullopt, 70, 40},
        {"c8", 8, std::nullopt, 160, 20},
        {"c6-l5", 6, 5, 80, 20},
    };
}

EstimateConfig drawn_estimate_config(std::uint64_t seed) {
    const auto cores = static_cast<rrb::CoreId>(3 + derive_seed(seed, 1, 0) % 6);
    const rrb::Cycle lbus = 3 + derive_seed(seed, 2, 0) % 7;
    const rrb::Cycle ubd = rrb::ubd_eq1(cores, lbus);
    // The sweep must hold at least two saw-tooth periods.
    const auto k_max =
        static_cast<std::uint32_t>(std::max<rrb::Cycle>(70, 3 * ubd + 10));
    return {"drawn", cores, lbus, k_max, 20};
}

std::string batch_spec(std::uint64_t seed) {
    struct Row {
        const char* name;
        const char* keys;
    };
    const Row rows[kBatchScenarios] = {
        {"ref", ""},
        {"wide", "cores = 8\n"},
        {"fast-bus", "cores = 6\nlbus = 5\n"},
        {"wrr", "arbiter = wrr\n"},
        {"var", "var = true\n"},
    };
    std::string spec;
    for (std::size_t i = 0; i < kBatchScenarios; ++i) {
        spec += std::string("[scenario ") + rows[i].name + "]\n" + rows[i].keys;
        spec += "runs = " + std::to_string(kBatchRunsPerScenario) + "\n";
        spec += "seed = " + std::to_string(derive_seed(seed, 3, i)) + "\n\n";
    }
    return spec;
}

}  // namespace rrbbench
