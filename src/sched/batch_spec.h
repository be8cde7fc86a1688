// Declarative multi-scenario batch specs for `rrbtool batch`.
//
// A spec file names any number of scenarios, each with the same knobs
// the `pwcet` command takes as flags:
//
//   # contention study, 2026-08
//   [scenario small-rr]
//   runs = 600
//   seed = 7
//   block-size = 30
//
//   [scenario wide-bus]
//   cores = 2
//   lbus = 5
//   runs = 400
//   exceedance = 1e-3,1e-6
//
// Keys per scenario (all optional): cores, lbus (together select the
// scaled platform, defaults 4 / 9 — exactly `pwcet --cores/--lbus`),
// var (true = NGMP variant when neither cores nor lbus is set),
// arbiter (rr|tdma|wrr|fixed), iterations (default 40), runs (default
// 40 blocks), seed (default 1), block-size (default 50), exceedance
// (comma-separated probabilities in (0,1)), max-start-delay (cycles).
//
// Keys parse into the same CampaignKnobs the pwcet command's flags do,
// and build_campaign (core/scenario.h) turns either into the scenario:
// a spec entry and the equivalent `rrbtool pwcet` invocation build the
// *same scenario fingerprint*, so a batch checkpoint merges and
// byte-diffs against a standalone run (CI does exactly that).
// Scenario names become checkpoint file stems and must be unique and
// filesystem-safe ([A-Za-z0-9._-]).
#pragma once

#include <string>
#include <vector>

#include "core/session.h"

namespace rrb::sched {

/// Parses a spec file's text into ready-to-run batch items, in file
/// order. Throws std::invalid_argument naming the line on malformed
/// input — an unknown key, a bad value, a duplicate or unsafe name —
/// rather than running a campaign the user did not describe.
[[nodiscard]] std::vector<BatchItem> parse_batch_spec(
    const std::string& text);

}  // namespace rrb::sched
