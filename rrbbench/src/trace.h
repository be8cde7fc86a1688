// The traced run: per-layer metrics from spans the benchmark records
// around its own calls into each module's public functions. Nothing
// inside the library is instrumented for it.
#pragma once

#include <cstdint>
#include <filesystem>

#include "common.h"
#include "workloads.h"

namespace rrbbench {

/// Runs the layer tour on the workload's campaign scenario, reports
/// every per-layer metric into `ledger` (the tour's self-consistency
/// checks count as operations) and writes the recorded spans to
/// `spans_out` as JSON.
void run_traced(Workload workload, std::uint64_t seed,
                const Workspace& workspace,
                const std::filesystem::path& spans_out, Ledger& ledger);

}  // namespace rrbbench
