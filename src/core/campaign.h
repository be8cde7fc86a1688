// Measurement campaigns: the MBTA observation protocol the ETB is
// validated against.
//
// A single contention run observes one alignment between the scua and its
// contenders. Industrial measurement-based practice runs *campaigns*:
// many runs with randomized release offsets, keeping the high-water mark
// (HWM) of the observed execution times. The composable bound
// ETB = et_isol + nr * ubdm must dominate the HWM of every campaign —
// and the gap between HWM and ETB is the (provably safe) pessimism.
#pragma once

#include <cstdint>
#include <vector>

#include "core/experiment.h"
#include "isa/program.h"
#include "machine/config.h"
#include "sim/types.h"
#include "stats/attribution.h"
#include "stats/evt.h"

namespace rrb {

struct HwmCampaignOptions {
    std::size_t runs = 20;
    std::uint64_t seed = 1;
    /// Contender release offsets are drawn uniformly from
    /// [0, max_start_delay].
    Cycle max_start_delay = 997;
    Cycle max_cycles_per_run = 200'000'000;
};

struct HwmCampaignResult {
    Cycle et_isolation = 0;
    Cycle high_water_mark = 0;        ///< max observed contention time
    Cycle low_water_mark = 0;         ///< min observed contention time
    std::vector<Cycle> exec_times;    ///< one per run
    std::uint64_t nr = 0;             ///< scua bus requests (PMC)

    /// Max observed per-request slowdown: (HWM - isol) / nr. Compare with
    /// ubd: it can approach but never exceed it. Clamped to 0 when the
    /// HWM is below isolation (possible for hand-built results or warmth
    /// asymmetries) — the unsigned subtraction would otherwise wrap to a
    /// huge positive value.
    [[nodiscard]] double hwm_slowdown_per_request() const noexcept {
        return nr == 0 || high_water_mark <= et_isolation
                   ? 0.0
                   : static_cast<double>(high_water_mark - et_isolation) /
                         static_cast<double>(nr);
    }
};

/// A campaign runs `runs` contention executions of the scua on core 0
/// against the contender programs on the other cores, each run with
/// fresh, seeded-random release offsets for the contenders. Run i's
/// offsets come from a Pcg32 seeded by
/// engine::SeedSequence(options.seed).seed_for(i) — a pure function of
/// (seed, i) — so every execution path produces bit-identical results
/// at any job count. Session::hwm (core/session.h) runs one.

struct PwcetQuantile {
    double exceedance = 0.0;
    double pwcet = 0.0;  ///< NaN when the fit is degenerate
};

struct PwcetCampaignResult {
    Cycle et_isolation = 0;
    std::uint64_t nr = 0;             ///< scua bus requests (PMC)
    std::size_t runs = 0;
    Cycle high_water_mark = 0;
    Cycle low_water_mark = 0;
    double mean = 0.0;                ///< streamed (Chan-merged) moments
    double stddev = 0.0;
    std::size_t blocks = 0;           ///< complete blocks fed to the fit
    /// Live (max, fill) pairs the streamed fold held at the end — the
    /// memory-footprint evidence: ~runs/block_size, never ~runs.
    std::size_t live_values = 0;
    GumbelFit fit;                    ///< Gumbel over the block maxima
    std::vector<PwcetQuantile> quantiles;

    /// The composable bound the quantiles are compared against.
    [[nodiscard]] Cycle etb(Cycle ubd) const noexcept {
        return et_isolation + nr * ubd;
    }
};

class Machine;

namespace replay {
struct ScriptCache;
}  // namespace replay

namespace detail {

/// Identity of the program set a run installs on a machine: the scua
/// and its core, and the resolved contender list with iteration counts
/// re-scoped to the per-run cycle cap. A machine whose last run used
/// the same fingerprint can be restarted in place — no program copies —
/// instead of reloaded; engine::MachineLease stores this tag next to
/// each cached machine. Never zero (zero means "nothing installed").
[[nodiscard]] std::uint64_t campaign_fingerprint(
    const Program& scua, const std::vector<Program>& contenders,
    const HwmCampaignOptions& options, CoreId scua_core = 0);

/// Runs run `run_index` of the measurement protocol on `machine`:
/// resets it to power-on state, installs the scua on `scua_core` and
/// cycles the contenders over the other cores (none: the scua runs
/// alone), or restarts them in place when `loaded_campaign` already
/// matches their fingerprint — updated on return. Then it draws the
/// seeded release offsets, warms the static footprints and runs to the
/// scua's finish cycle, returned; kNoCycle when the run reached
/// options.max_cycles_per_run first. The single protocol body behind
/// every campaign run, the experiment primitives (core/experiment.h)
/// and the differential tests' fresh-machine naive-stepping reference
/// — sharing it is what makes "bit-identical" checkable rather than
/// aspirational. Pass `loaded_campaign = 0` for a machine whose program
/// state is unknown. The run counts no telemetry: the campaign entry
/// points below count their runs, and experiment runs stay out of the
/// campaign counters.
///
/// `scripts` selects the execution mode: non-null enables micro-op
/// replay (src/replay) — the pool is prepared when its program-set tag
/// differs and the scripts are attached to the cores each run; null
/// (the default, and the differential references' mode) interprets, and
/// any previously attached scripts are detached. Both modes produce
/// bit-identical results, attribution included; replay is just faster.
///
/// `campaign` is an optional precomputed campaign_fingerprint(scua,
/// contenders, options, scua_core): program fingerprints hash every
/// instruction, which is measurable per-run overhead for large contender
/// bodies, so shard loops hoist the hash out and pass it in. 0 (the
/// default, and never a valid fingerprint) means "compute it here"; a
/// non-zero value MUST equal what campaign_fingerprint would return for
/// these inputs. Either way each program is hashed at most once per run.
[[nodiscard]] Cycle execute_campaign_run(
    Machine& machine, std::uint64_t& loaded_campaign, const Program& scua,
    const std::vector<Program>& contenders,
    const HwmCampaignOptions& options, std::uint64_t run_index,
    replay::ScriptCache* scripts = nullptr, std::uint64_t campaign = 0,
    CoreId scua_core = 0);

/// One campaign run on a per-worker leased machine (machine reuse +
/// event-driven cycle skipping + replay), returning the scua's finish
/// cycle. Thread-safe: the lease cache is thread-local. Shared by the
/// serial and parallel campaign paths, which is what keeps them
/// bit-identical. `campaign` as in execute_campaign_run: optional
/// precomputed campaign_fingerprint, 0 to compute per call. The run
/// must finish within options.max_cycles_per_run. It counts as
/// runs_completed, and as replay_runs when every core replays or as
/// replay_fallback_runs when some core's decode declined.
[[nodiscard]] Cycle hwm_campaign_run(const MachineConfig& config,
                                     const Program& scua,
                                     const std::vector<Program>& contenders,
                                     const HwmCampaignOptions& options,
                                     std::uint64_t run_index,
                                     std::uint64_t campaign = 0);

/// hwm_campaign_run with the full Measurement snapshot (black-box PMCs
/// plus white-box histograms) instead of just the finish cycle. Same
/// setup, same seeding, same execution — m.exec_time equals
/// hwm_campaign_run(...) for equal inputs — so streamed accumulators
/// observe exactly the values the materializing path would have stored.
[[nodiscard]] Measurement hwm_campaign_measure(
    const MachineConfig& config, const Program& scua,
    const std::vector<Program>& contenders,
    const HwmCampaignOptions& options, std::uint64_t run_index,
    std::uint64_t campaign = 0);

/// hwm_campaign_run with the cycle-attribution profiler armed on the
/// leased machine: the run's finalized per-core cause timelines and
/// per-contender blame matrix are folded into `acc`, and the machine is
/// disarmed before the lease is released (cached machines must never
/// stay armed). The run replays the lease's scripts exactly like
/// hwm_campaign_run — armed replay charges every bucket the armed
/// interpreter would. Attribution is strictly observational, so the
/// returned finish cycle equals hwm_campaign_run(...) for equal inputs.
[[nodiscard]] Cycle hwm_campaign_attribute(
    const MachineConfig& config, const Program& scua,
    const std::vector<Program>& contenders,
    const HwmCampaignOptions& options, std::uint64_t run_index,
    AttributionAccumulator& acc, std::uint64_t campaign = 0);

}  // namespace detail

}  // namespace rrb
