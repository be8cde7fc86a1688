// Machine-readable run reports: the JSON sink of the telemetry layer.
//
// A run report records what a campaign command actually executed —
// campaign identity (scenario fingerprint, seed, shard plan), the
// merged telemetry counters, derived rates (runs/sec, lease hit rate,
// worker utilization) and the span timeline (campaign -> grid point ->
// shard, with per-shard wall times). The schema is versioned so CI and
// tooling can consume reports across commits, and shard runs carry the
// campaign identity plus their run range — collecting every shard's
// report reconstructs the whole distributed campaign's timeline the
// same way `rrbtool merge` reconstructs its statistics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/telemetry.h"
#include "stats/attribution.h"
#include "stats/checkpoint.h"

namespace rrb::obs {

/// Bumped whenever a field is renamed, removed or re-typed. Adding
/// fields is backward compatible and does not bump it.
/// v2: adds the top-level "attribution" field (null when the command
/// ran without the cycle-attribution profiler; an object with per-core
/// cause timelines, the per-contender blame matrix and derived shares
/// when armed).
inline constexpr std::uint32_t kRunReportSchemaVersion = 2;

/// Everything a run report carries besides counters and spans.
struct RunReportInfo {
    std::string command;  ///< e.g. "pwcet", "merge", "bench_hotpath"
    /// The campaign identity: its fingerprint, seed and shard plan, and
    /// the run range and slice this process executed (every run, as
    /// slice 0 of 1, when whole). The isolation, bound and exceedance
    /// fields are not rendered.
    CheckpointMeta campaign;
    std::uint64_t jobs = 0;      ///< resolved worker budget
    std::uint64_t wall_ns = 0;   ///< whole-command wall time
    /// The campaign-summed attribution when the command ran with the
    /// profiler armed; null renders as "attribution": null.
    const AttributionAccumulator* attribution = nullptr;
};

/// Rates computed from a counter delta + wall time; NaN-free (0 when
/// the denominator is empty) so the JSON stays parseable everywhere.
struct DerivedRates {
    double runs_per_sec = 0.0;
    double lease_hit_rate = 0.0;       ///< hits / (hits + misses)
    double worker_utilization = 0.0;   ///< busy-ns / (wall-ns * jobs)
    double events_skipped_per_run = 0.0;
    double cycles_per_sec = 0.0;
};

[[nodiscard]] DerivedRates derive_rates(const RunReportInfo& info,
                                        const CounterSnapshot& counters);

/// The JSON "counters" object body (shared with bench_hotpath, which
/// embeds the same schema inside its own report).
[[nodiscard]] std::string render_counters_json(
    const CounterSnapshot& counters, const std::string& indent);

/// The full schema-versioned run report.
[[nodiscard]] std::string render_run_report(
    const RunReportInfo& info, const CounterSnapshot& counters,
    const std::vector<SpanRecord>& spans);

/// Writes render_run_report to `path`; false on I/O failure.
bool write_run_report(const std::string& path, const RunReportInfo& info,
                      const CounterSnapshot& counters,
                      const std::vector<SpanRecord>& spans);

}  // namespace rrb::obs
