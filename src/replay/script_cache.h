// Program-keyed script pool: each program is decoded once per cached
// machine and re-attached run after run, whatever program set it runs
// in — a campaign, or an estimator sweep that alternates isolation and
// contention runs of the same scua against the same contenders.
//
// Lifetime: engine::MachineLease stores one ScriptCache next to each
// cached machine, so scripts and the machine whose cores point at them
// are created and destroyed together. prepare_scripts() runs only when
// the machine's program set changes — for an N-run campaign that is
// once, amortized to nothing.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "replay/microop.h"
#include "sim/types.h"

namespace rrb {
class Machine;
}  // namespace rrb

namespace rrb::replay {

struct ScriptCache {
    /// `Entry::core` of a decode any core may share.
    static constexpr CoreId kAnyCore = ~CoreId{0};

    /// One pooled decode: a script, or a remembered decline.
    struct Entry {
        std::uint64_t program = 0;  ///< installed-program fingerprint
        /// The core the script was decoded for when its outcomes are
        /// core-specific; kAnyCore otherwise, and always for a decline.
        CoreId core = kAnyCore;
        std::unique_ptr<MicroOpScript> script;  ///< null = declined
        std::uint64_t generation = 0;  ///< last program set using it
    };

    /// Program-set fingerprint `per_core` was prepared for (0 = none).
    std::uint64_t campaign = 0;
    /// Per-core attachment, indexed by CoreId; nullptr = that core
    /// interprets (no program, or the decode declined).
    std::vector<const MicroOpScript*> per_core;
    /// Per-core installed-program fingerprints of that set (0 = idle).
    std::vector<std::uint64_t> programs;
    /// The decodes of the current and the previous program set.
    std::vector<Entry> pool;
    /// Program sets prepared so far; stamps Entry::generation.
    std::uint64_t generation = 0;

    void clear() {
        campaign = 0;
        per_core.clear();
        programs.clear();
        pool.clear();
        generation = 0;
    }
};

/// Points `cache.per_core` at a script for every core of `machine` that
/// hosts a program, tagging the cache with the program set's
/// fingerprint `campaign`. Pooled decodes are reused and the rest are
/// decoded, so a program the previous set also ran is never decoded
/// twice. Cores sharing a program share one script — except under
/// kRandom L1 replacement, where the per-core victim-RNG seed makes
/// outcomes core-specific (likewise kRandom L2 for programs that bake L2
/// outcomes). A declined decode leaves its cores on the interpreter and
/// is remembered for every core running that program — unless the
/// decode-overflow fault injected it, so disarming the fault restores
/// replay. Entries neither set uses are dropped afterwards.
///
/// `programs` optionally gives each core's installed-program
/// fingerprint (indexed by CoreId; ignored for cores without a
/// program), saving a hash of every program; empty = hash them here.
/// Call after the set's programs are loaded, before attaching.
void prepare_scripts(ScriptCache& cache, Machine& machine,
                     std::uint64_t campaign,
                     std::span<const std::uint64_t> programs = {});

}  // namespace rrb::replay
