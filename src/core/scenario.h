// Scenario: a declarative, composable description of *what to run*.
//
// The paper's methodology is one protocol — a software component under
// analysis (scua) plus contenders on a randomized machine, observed
// under a measurement discipline — yet the low-level API exposes it as
// free functions each taking (config, scua, contenders, options...).
// A Scenario names that protocol once, fluently:
//
//   const Scenario s = Scenario::on(MachineConfig::ngmp_ref())
//                          .scua(make_autobench(Autobench::kCacheb,
//                                               0x0100'0000, 40))
//                          .rsk_contenders(OpKind::kLoad)
//                          .runs(100'000)
//                          .seed(7);
//
// and a Session (core/session.h) decides *how* to execute it: jobs,
// progress, streaming vs. materializing, single campaign vs. config
// sweep. The split is what lets one scenario drive hwm / pwcet /
// whitebox / sweep entry points without re-spelling the inputs.
//
// Scenarios are value types: cheap to copy, re-target (`with_config`)
// and mutate per grid point without aliasing surprises.
//
// The campaign front ends — `rrbtool` flags and batch-spec keys — parse
// into one CampaignKnobs struct, and build_campaign alone turns knobs
// into a Scenario plus its PwcetSpec.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "bus/arbiter.h"
#include "core/campaign.h"
#include "isa/program.h"
#include "machine/config.h"
#include "sim/types.h"

namespace rrb {

class Scenario {
public:
    /// Starts a scenario on the given platform.
    [[nodiscard]] static Scenario on(MachineConfig config);

    // ------------------------------------------------ fluent builders

    /// The software component under analysis (runs on core 0).
    Scenario& scua(Program program);

    /// Explicit contender programs, cycled over the non-scua cores.
    /// Overrides any previously chosen contender policy.
    Scenario& contenders(std::vector<Program> programs);

    /// Contender policy: Nc-1 resource-stressing kernels of the given
    /// access type, derived from the scenario's *current* config — and
    /// re-derived whenever the scenario is re-targeted (`with_config`),
    /// which is what a config sweep needs. This is the default policy.
    Scenario& rsk_contenders(OpKind access);

    /// Campaign runs (randomized-alignment contention executions).
    Scenario& runs(std::size_t n);

    /// Root seed; run i draws offsets from a pure function of (seed, i).
    Scenario& seed(std::uint64_t s);

    /// Contender release offsets are uniform in [0, d].
    Scenario& max_start_delay(Cycle d);

    /// Per-run simulation cycle cap.
    Scenario& max_cycles(Cycle c);

    /// Replaces the whole run protocol at once — the exact-roundtrip
    /// path the legacy free-function wrappers use.
    Scenario& protocol(HwmCampaignOptions options);

    // --------------------------------------------------------- views

    /// A copy re-targeted at another platform. Policy contenders (rsk)
    /// re-derive against the new config; explicit contender lists are
    /// kept verbatim.
    [[nodiscard]] Scenario with_config(MachineConfig config) const;

    [[nodiscard]] const MachineConfig& config() const noexcept {
        return config_;
    }
    [[nodiscard]] bool has_scua() const noexcept {
        return scua_.has_value();
    }
    /// Precondition: has_scua().
    [[nodiscard]] const Program& scua_program() const;
    /// Resolves the contender policy against the current config.
    [[nodiscard]] std::vector<Program> contender_programs() const;
    [[nodiscard]] const HwmCampaignOptions& run_protocol() const noexcept {
        return protocol_;
    }

    /// Checks the scenario is executable: scua set, at least one run,
    /// at least one contender, and a valid machine config. Every
    /// Session entry point calls this first.
    void validate() const;

    /// Content hash of everything that determines the campaign's
    /// numbers: machine config, scua, resolved contenders, and the run
    /// protocol. Checkpoints (stats/checkpoint.h) stamp it so a merge
    /// or resume against a different scenario — a changed config field,
    /// another seed, a re-built contender — is rejected loudly instead
    /// of silently blending two campaigns. Program names are cosmetic
    /// and excluded; every timing-relevant field participates.
    [[nodiscard]] std::uint64_t fingerprint() const;

private:
    explicit Scenario(MachineConfig config);

    MachineConfig config_;
    std::optional<Program> scua_;
    /// Engaged = explicit contender list; disengaged = rsk policy.
    std::optional<std::vector<Program>> explicit_contenders_;
    OpKind rsk_access_ = OpKind::kLoad;
    HwmCampaignOptions protocol_;
};

/// The statistical half of a pWCET campaign — everything that is not
/// the run protocol (which the Scenario owns). A pWCET campaign streams
/// runs into mergeable accumulators instead of materializing them: at
/// any moment only O(runs / block_size) values are live.
struct PwcetSpec {
    /// Consecutive runs per EVT block; the Gumbel is fitted to the block
    /// maxima (classical block-maxima MBPTA).
    std::size_t block_size = 50;
    /// Exceedance probabilities to quote pWCET quantiles at.
    std::vector<double> exceedance = {1e-3, 1e-6, 1e-9};
};

/// The knobs every campaign front end offers: the campaign commands'
/// flags and the batch spec's keys. Unset optionals keep the
/// platform's or the protocol's own value.
struct CampaignKnobs {
    std::optional<CoreId> cores;  ///< cores/lbus select the scaled
    std::optional<Cycle> lbus;    ///< platform (defaults 4 / 9)
    bool variant = false;         ///< NGMP variant, if neither is set
    std::optional<ArbiterKind> arbiter;
    std::uint64_t iterations = 40;  ///< the scua's loop iterations
    std::optional<std::size_t> runs;
    std::uint64_t seed = HwmCampaignOptions{}.seed;
    std::size_t block_size = PwcetSpec{}.block_size;
    std::vector<double> exceedance;  ///< empty = PwcetSpec's list
    std::optional<Cycle> max_start_delay;

    /// The validated platform: MachineConfig::scaled when cores or
    /// lbus is set, the NGMP reference (or variant) otherwise, with
    /// `arbiter` applied.
    [[nodiscard]] MachineConfig config() const;
};

/// What build_campaign returns: the scenario and its statistical spec.
struct CampaignSetup {
    Scenario scenario;
    PwcetSpec spec;
};

/// The campaign commands' scenario and spec: the cache-buster scua on
/// knobs.config() against load-rsk contenders, each knob mapped 1:1
/// onto a Scenario builder or PwcetSpec field. Runs default to
/// `default_runs`, or to 40 EVT blocks when that is unset (a shorter
/// campaign would not fill enough blocks for a fit). A batch scenario
/// and the equivalent standalone command therefore build the same
/// fingerprint by construction.
[[nodiscard]] CampaignSetup build_campaign(
    const CampaignKnobs& knobs,
    std::optional<std::size_t> default_runs = std::nullopt);

}  // namespace rrb
