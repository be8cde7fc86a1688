// The untraced run: end-to-end metrics, CPU-timed around the commands
// users run, plus every output check.
#pragma once

#include <cstdint>

#include "common.h"
#include "workloads.h"

namespace rrbbench {

/// Sets up (several times, on fresh threads), then runs the workload's
/// command mix for `seconds`, then the output checks under `seed` and
/// its held-out seed. Reports every end-to-end metric into `ledger`.
void run_end_to_end(Workload workload, std::uint64_t seed, double seconds,
                    const Workspace& workspace, Ledger& ledger);

/// Runs every output check of every workload under one seed.
void run_checks(std::uint64_t seed, const Workspace& workspace,
                Ledger& ledger);

}  // namespace rrbbench
