// Shared pieces of the benchmark program: the operation ledger and its
// strict-JSON result line, quantiles over timing samples, seed
// derivation, the scratch workspace and the in-process CLI runner.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "core/scenario.h"
#include "core/session.h"
#include "obs/telemetry.h"

namespace rrbbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
}

[[nodiscard]] inline std::uint64_t now_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count());
}

/// One reported metric: a name, a value as measured and its unit.
struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// Every operation the benchmark attempts — a timed command or an output
/// check — goes through here, so `attempted` and `failed` count both.
class Ledger {
public:
    /// Records one operation; returns `ok`. A failure is named on stderr.
    bool record(bool ok, const std::string& what);

    void metric(std::string name, double value, std::string unit) {
        metrics_.push_back({std::move(name), value, std::move(unit)});
    }

    /// The result line: one JSON object with exactly the keys correct,
    /// attempted, failed and metrics. Non-finite values become null.
    [[nodiscard]] std::string json() const;

private:
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::vector<Metric> metrics_;
};

/// A JSON number with every digit, or `null` for NaN and infinities —
/// strict parsers reject the bare `nan`/`inf` tokens printf would write.
[[nodiscard]] std::string json_number(double value);
/// A JSON string literal (quotes and escapes added).
[[nodiscard]] std::string json_string(const std::string& text);

/// Linear-interpolation quantile (q in [0, 1]) of a non-empty sample.
[[nodiscard]] double quantile(std::vector<double> samples, double q);
[[nodiscard]] inline double median(std::vector<double> samples) {
    return quantile(std::move(samples), 0.5);
}

/// A 32-bit seed derived from (root, stream, index) — every campaign
/// seed of a run comes from the workload seed through this.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t root,
                                        std::uint64_t stream,
                                        std::uint64_t index);

/// Worker threads for the `--jobs N` commands: the host's hardware
/// concurrency (nproc).
[[nodiscard]] std::size_t full_width();

/// Runs `rrbtool <args>` in-process; stdout lands in `out`, stderr is
/// discarded. Returns the exit code.
int run_cli(const std::vector<std::string>& args, std::string* out = nullptr);

/// Drops the first line (the header naming the job count) — the part of
/// a report that must be byte-identical across --jobs and across merge.
[[nodiscard]] std::string from_line_two(const std::string& report);

/// Bitwise equality of two campaign results; doubles compare by bit
/// pattern, so NaN quantiles of a degenerate fit compare equal.
[[nodiscard]] bool same_bits(const rrb::PwcetCampaignResult& a,
                             const rrb::PwcetCampaignResult& b);

/// The scenario `rrbtool pwcet`/`attribution` build from their flags
/// (cacheb scua on NGMP ref against load-rsk contenders).
[[nodiscard]] rrb::Scenario cli_scenario(std::uint64_t iterations,
                                         std::size_t runs,
                                         std::uint64_t seed);

/// Telemetry collection on for one scope, off on every exit path.
struct TelemetryOn {
    TelemetryOn() { rrb::obs::TelemetryRegistry::instance().enable(); }
    ~TelemetryOn() { rrb::obs::TelemetryRegistry::instance().disable(); }
    TelemetryOn(const TelemetryOn&) = delete;
    TelemetryOn& operator=(const TelemetryOn&) = delete;
};

/// A directory owned by one benchmark process, removed on destruction.
class Workspace {
public:
    explicit Workspace(std::filesystem::path root);
    ~Workspace();
    Workspace(const Workspace&) = delete;
    Workspace& operator=(const Workspace&) = delete;

    /// A fresh, empty sub-directory.
    [[nodiscard]] std::filesystem::path fresh(const std::string& name) const;
    [[nodiscard]] const std::filesystem::path& root() const noexcept {
        return root_;
    }

private:
    std::filesystem::path root_;
};

}  // namespace rrbbench
