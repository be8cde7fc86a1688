// rrbbench: the repository benchmark program.
//
//   rrbbench --workload NAME --seed N --seconds S --trace 0|1
//            --workdir DIR
//   rrbbench --json-selftest
//
// Prints progress on stderr and, as the last line of stdout, one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1.
// Exits 0 when it produced a result (check `correct`), 1 on bad usage
// or an error that left no result. Normally run through run.py, which
// builds this binary first.
#include <cmath>
#include <cstdint>
#include <exception>
#include <iostream>
#include <limits>
#include <optional>
#include <string>

#include "common.h"
#include "e2e.h"
#include "trace.h"
#include "workloads.h"

namespace {

int usage() {
    std::cerr << "usage: rrbbench --workload pwcet-stream|estimate-grid|"
                 "batch-farm|attribution-armed --seed N --seconds S "
                 "--trace 0|1 --workdir DIR\n"
                 "       rrbbench --json-selftest\n";
    return 1;
}

/// Writes non-finite values through the result writer, for run.py to
/// parse strictly: they must come back as null, never as NaN/Infinity.
int json_selftest() {
    rrbbench::Ledger ledger;
    static_cast<void>(ledger.record(true, "selftest"));
    ledger.metric("nan", std::nan(""), "1");
    ledger.metric("inf", std::numeric_limits<double>::infinity(), "1");
    ledger.metric("neg_inf", -std::numeric_limits<double>::infinity(), "1");
    ledger.metric("tiny", 5e-324, "1");
    ledger.metric("third", 1.0 / 3.0, "1");
    ledger.metric("quote\"name", 1.5, "1");
    std::cout << ledger.json() << "\n";
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    std::optional<rrbbench::Workload> workload;
    std::string workload_name;
    std::optional<std::uint64_t> seed;
    std::optional<double> seconds;
    std::optional<int> trace;
    std::string workdir;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg == "--json-selftest") return json_selftest();
            if (i + 1 >= argc) return usage();
            const std::string value = argv[++i];
            if (arg == "--workload") {
                workload = rrbbench::parse_workload(value);
                workload_name = value;
                if (!workload) return usage();
            } else if (arg == "--seed") {
                seed = std::stoull(value);
            } else if (arg == "--seconds") {
                seconds = std::stod(value);
            } else if (arg == "--trace") {
                trace = std::stoi(value);
            } else if (arg == "--workdir") {
                workdir = value;
            } else {
                return usage();
            }
        }
    } catch (const std::exception&) {
        return usage();
    }
    if (!workload || !seed || !seconds || !trace || workdir.empty() ||
        !(*seconds > 0.0) || (*trace != 0 && *trace != 1)) {
        return usage();
    }

    try {
        const rrbbench::Workspace workspace(
            std::filesystem::path(workdir) / ("run-" + std::to_string(*seed)));
        rrbbench::Ledger ledger;
        if (*trace == 1) {
            const std::filesystem::path spans =
                std::filesystem::path(workdir) /
                ("spans-" + workload_name + "-" + std::to_string(*seed) +
                 ".json");
            rrbbench::run_traced(*workload, *seed, workspace, spans, ledger);
        } else {
            rrbbench::run_end_to_end(*workload, *seed, *seconds, workspace,
                                     ledger);
        }
        std::cout << ledger.json() << "\n";
        return 0;
    } catch (const std::exception& e) {
        std::cerr << "rrbbench: error: " << e.what() << "\n";
        return 1;
    }
}
