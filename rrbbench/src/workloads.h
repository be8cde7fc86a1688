// The benchmark's inputs: the four workloads, the fixed input sizes of
// every timed command, and the generators that turn a workload seed
// into campaign seeds, estimate configs and batch specs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/estimator.h"
#include "machine/config.h"

namespace rrbbench {

enum class Workload { kPwcetStream, kEstimateGrid, kBatchFarm, kAttribution };

[[nodiscard]] std::optional<Workload> parse_workload(std::string_view name);

// Input sizes of the timed commands. They are the same in every
// workload, so a metric means the same work wherever it is reported.
inline constexpr std::size_t kPwcetJ1Runs = 4000;      // pwcet --jobs 1
inline constexpr std::size_t kPwcetJNRuns = 16000;     // pwcet --jobs N
inline constexpr std::uint64_t kAttributionIterations = 150;
inline constexpr std::size_t kAttributionRuns = 400;
// One campaign in 256 slices. At 10^4 runs a slice simulated 39 runs and
// its fsync'd save was nearly half its CPU time; that kernel path slowed
// three times as much as simulation when the host's other tenants were
// busy, and farm_s spread by up to 26% between runs. At 4x10^4 runs the
// simulation dominates each slice.
inline constexpr std::size_t kFarmRuns = 40000;
inline constexpr std::size_t kFarmSlices = 256;
inline constexpr std::size_t kFarmDeleteEvery = 16;    // lost before resume
inline constexpr std::size_t kBatchScenarios = 5;
inline constexpr std::size_t kBatchRunsPerScenario = 4000;

/// One `rrbtool estimate` configuration of the estimate grid.
struct EstimateConfig {
    std::string name;
    std::optional<rrb::CoreId> cores;  ///< unset: NGMP reference platform
    std::optional<rrb::Cycle> lbus;
    std::uint32_t k_max = 70;
    std::uint64_t iterations = 40;

    [[nodiscard]] std::vector<std::string> cli_args() const;
    /// What `rrbtool estimate` builds from those flags.
    [[nodiscard]] rrb::MachineConfig config() const;
    [[nodiscard]] rrb::UbdEstimatorOptions options() const;
};

/// The three timed configs: NGMP ref, an 8-core bus, a 6-core bus with
/// a 5-cycle transfer.
[[nodiscard]] std::vector<EstimateConfig> estimate_grid();

/// A seed-drawn config (3..8 cores, lbus 3..9) for the held-out checks:
/// the estimator must recover Equation 1 on any round-robin platform.
[[nodiscard]] EstimateConfig drawn_estimate_config(std::uint64_t seed);

/// The five-scenario `rrbtool batch` spec, varying cores, lbus, arbiter
/// and the NGMP variant; every scenario's seed derives from `seed`.
[[nodiscard]] std::string batch_spec(std::uint64_t seed);

}  // namespace rrbbench
