#include "obs/report.h"

#include <cstdio>
#include <sstream>

namespace rrb::obs {

namespace {

/// Doubles print with a fixed, locale-independent format so reports
/// diff cleanly across runs of equal counters.
std::string fmt(double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6f", v);
    return buf;
}

/// The "attribution" object: per-core cause timelines, the blame
/// matrix, dead-slot cycles and derived shares (each victim's stall
/// cycles apportioned across contenders).
std::string render_attribution_json(const AttributionAccumulator& a,
                                    const std::string& indent) {
    const std::size_t cores = a.num_cores();
    std::ostringstream out;
    out << "{\n";
    out << indent << "  \"num_cores\": " << cores << ",\n";
    out << indent << "  \"runs\": " << a.runs() << ",\n";
    out << indent << "  \"machine_cycles\": " << a.machine_cycles()
        << ",\n";
    out << indent << "  \"causes\": [";
    for (std::size_t c = 0; c < kStallCauseCount; ++c) {
        out << (c == 0 ? "" : ", ") << "\""
            << to_string(static_cast<StallCause>(c)) << "\"";
    }
    out << "],\n";
    out << indent << "  \"cores\": [";
    for (CoreId core = 0; core < cores; ++core) {
        out << (core == 0 ? "\n" : ",\n");
        out << indent << "    {\n";
        out << indent << "      \"core\": " << core << ",\n";
        out << indent << "      \"timeline\": {";
        for (std::size_t c = 0; c < kStallCauseCount; ++c) {
            const auto cause = static_cast<StallCause>(c);
            out << (c == 0 ? "" : ", ") << "\"" << to_string(cause)
                << "\": " << a.timeline(core, cause);
        }
        out << "},\n";
        out << indent << "      \"dead_slot_cycles\": "
            << a.dead_slot_cycles(core) << ",\n";
        // The victim's bus-wait decomposition: blamed[contender] cycles
        // plus the dead-slot remainder sum to the victim's arbitration
        // wait; shares are quoted over that same denominator so "34% of
        // core 0's wait is contender 2's fault" reads off directly.
        const std::uint64_t waited =
            a.dead_slot_cycles(core) + a.blamed_total(core);
        out << indent << "      \"blame\": [";
        for (CoreId w = 0; w < cores; ++w) {
            out << (w == 0 ? "" : ", ") << a.blamed(core, w);
        }
        out << "],\n";
        out << indent << "      \"blame_share\": [";
        for (CoreId w = 0; w < cores; ++w) {
            const double share =
                waited == 0 ? 0.0
                            : static_cast<double>(a.blamed(core, w)) /
                                  static_cast<double>(waited);
            out << (w == 0 ? "" : ", ") << fmt(share);
        }
        out << "]\n";
        out << indent << "    }";
    }
    out << (cores == 0 ? "]\n" : "\n" + indent + "  ]\n");
    out << indent << "}";
    return out.str();
}

}  // namespace

DerivedRates derive_rates(const RunReportInfo& info,
                          const CounterSnapshot& counters) {
    DerivedRates rates;
    const double wall_sec =
        static_cast<double>(info.wall_ns) / 1e9;
    const std::uint64_t runs = counters[kRunsCompleted];
    if (wall_sec > 0.0) {
        rates.runs_per_sec = static_cast<double>(runs) / wall_sec;
        rates.cycles_per_sec =
            static_cast<double>(counters[kCyclesSimulated]) / wall_sec;
    }
    const std::uint64_t lease_total =
        counters[kLeaseHits] + counters[kLeaseMisses];
    if (lease_total > 0) {
        rates.lease_hit_rate = static_cast<double>(counters[kLeaseHits]) /
                               static_cast<double>(lease_total);
    }
    if (info.wall_ns > 0 && info.jobs > 0) {
        rates.worker_utilization =
            static_cast<double>(counters[kWorkerBusyNs]) /
            (static_cast<double>(info.wall_ns) *
             static_cast<double>(info.jobs));
    }
    if (runs > 0) {
        rates.events_skipped_per_run =
            static_cast<double>(counters[kEventsSkipped]) /
            static_cast<double>(runs);
    }
    return rates;
}

std::string render_counters_json(const CounterSnapshot& counters,
                                 const std::string& indent) {
    std::ostringstream out;
    out << "{";
    for (unsigned c = 0; c < kCounterCount; ++c) {
        out << (c == 0 ? "\n" : ",\n") << indent << "  \""
            << counter_name(static_cast<Counter>(c))
            << "\": " << counters.values[c];
    }
    out << "\n" << indent << "}";
    return out.str();
}

std::string render_run_report(const RunReportInfo& info,
                              const CounterSnapshot& counters,
                              const std::vector<SpanRecord>& spans) {
    const DerivedRates rates = derive_rates(info, counters);
    const CheckpointMeta& c = info.campaign;
    std::ostringstream out;
    out << "{\n";
    out << "  \"schema\": \"rrb-telemetry\",\n";
    out << "  \"version\": " << kRunReportSchemaVersion << ",\n";
    out << "  \"command\": \"" << info.command << "\",\n";
    out << "  \"campaign\": {\n";
    out << "    \"scenario_fingerprint\": " << c.scenario_fingerprint
        << ",\n";
    out << "    \"seed\": " << c.seed << ",\n";
    out << "    \"total_runs\": " << c.total_runs << ",\n";
    out << "    \"block_size\": " << c.block_size << ",\n";
    out << "    \"shard_size\": " << c.shard_size << ",\n";
    out << "    \"plan_shards\": " << c.plan_shards << ",\n";
    out << "    \"first_run\": " << c.first_run << ",\n";
    out << "    \"last_run\": " << c.last_run << ",\n";
    out << "    \"slice_index\": " << c.slice_index << ",\n";
    out << "    \"slice_count\": " << c.slice_count << "\n";
    out << "  },\n";
    out << "  \"jobs\": " << info.jobs << ",\n";
    out << "  \"wall_ns\": " << info.wall_ns << ",\n";
    out << "  \"counters\": " << render_counters_json(counters, "  ")
        << ",\n";
    out << "  \"derived\": {\n";
    out << "    \"runs_per_sec\": " << fmt(rates.runs_per_sec) << ",\n";
    out << "    \"cycles_per_sec\": " << fmt(rates.cycles_per_sec)
        << ",\n";
    out << "    \"lease_hit_rate\": " << fmt(rates.lease_hit_rate)
        << ",\n";
    out << "    \"worker_utilization\": "
        << fmt(rates.worker_utilization) << ",\n";
    out << "    \"events_skipped_per_run\": "
        << fmt(rates.events_skipped_per_run) << "\n";
    out << "  },\n";
    out << "  \"attribution\": ";
    if (info.attribution != nullptr) {
        out << render_attribution_json(*info.attribution, "  ");
    } else {
        out << "null";
    }
    out << ",\n";
    out << "  \"spans\": [";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const SpanRecord& s = spans[i];
        out << (i == 0 ? "\n" : ",\n");
        out << "    {\"id\": " << s.id << ", \"parent\": " << s.parent
            << ", \"name\": \"" << s.name << "\", \"index\": " << s.index
            << ", \"items\": " << s.items << ", \"begin_ns\": "
            << s.begin_ns << ", \"end_ns\": " << s.end_ns << "}";
    }
    out << (spans.empty() ? "]\n" : "\n  ]\n");
    out << "}\n";
    return out.str();
}

bool write_run_report(const std::string& path, const RunReportInfo& info,
                      const CounterSnapshot& counters,
                      const std::vector<SpanRecord>& spans) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::string text = render_run_report(info, counters, spans);
    const bool write_ok =
        std::fwrite(text.data(), 1, text.size(), f) == text.size();
    const bool close_ok = std::fclose(f) == 0;
    return write_ok && close_ok;
}

}  // namespace rrb::obs
