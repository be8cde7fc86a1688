// rrbtool: command-line front end to the methodology.
//
//   rrbtool estimate  [--cores N] [--lbus L] [--var] [--kmax K]
//                     [--iterations I] [--nop-latency L] [--store-span]
//                     [--csv FILE]
//   rrbtool calibrate [--cores N] [--lbus L] [--var] [--nop-latency L]
//   rrbtool baseline  [--cores N] [--lbus L] [--var]
//   rrbtool isolation [--cores N] [--lbus L] [--var] [--iterations I]
//   rrbtool contention / slowdown   (same flags as isolation)
//   rrbtool campaign  [--cores N] [--lbus L] [--var] [--runs R]
//                     [--seed S] [--jobs N] [--iterations I]
//                     [--telemetry F] [--heartbeat S] [--trace F]
//   rrbtool attribution [campaign flags]  — cycle-attribution profiler:
//                     per-core stall-cause timelines + blame matrix
//   rrbtool pwcet     [campaign flags] [--block-size B] [--exceedance P]
//                     [--shard i/N --checkpoint-out F]
//   rrbtool merge     F1 F2 ...
//   rrbtool telemetry-diff A B [--max-regression-pct P]
//   rrbtool sweep-pwcet [--var] [--cores-axis A,B] [--lbus-axis A,B]
//                     [--arbiter-axis rr,tdma,...] [campaign/pwcet flags]
//   rrbtool help
//
// The platform flags construct a MachineConfig: the NGMP reference model
// by default, `--var` for the 4-cycle-DL1 variant, or `--cores/--lbus`
// for a scaled platform. Each command accepts only its own flag set and
// exits non-zero naming any flag that does not apply. The campaign
// commands are thin shells over the Scenario/Session API
// (core/scenario.h, core/session.h): flags parse into the CampaignKnobs
// a batch spec's keys also fill, build_campaign maps them onto Scenario
// builders, and the rest is Session execution policy. Command implementations live
// here so they are unit-testable without spawning processes.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace rrb::cli {

/// Runs the tool. `args` excludes the program name (like argv+1).
/// Output goes to `out` (reports) and `err` (usage errors).
/// Returns a process exit code.
int run(const std::vector<std::string>& args, std::ostream& out,
        std::ostream& err);

/// Renders the usage text.
[[nodiscard]] std::string usage();

}  // namespace rrb::cli
