#include "core/scenario.h"

#include <utility>

#include "core/estimator.h"
#include "kernels/autobench.h"
#include "sim/contract.h"
#include "sim/fnv.h"

namespace rrb {

Scenario::Scenario(MachineConfig config) : config_(std::move(config)) {}

Scenario Scenario::on(MachineConfig config) {
    return Scenario(std::move(config));
}

Scenario& Scenario::scua(Program program) {
    scua_ = std::move(program);
    return *this;
}

Scenario& Scenario::contenders(std::vector<Program> programs) {
    explicit_contenders_ = std::move(programs);
    return *this;
}

Scenario& Scenario::rsk_contenders(OpKind access) {
    explicit_contenders_.reset();
    rsk_access_ = access;
    return *this;
}

Scenario& Scenario::runs(std::size_t n) {
    protocol_.runs = n;
    return *this;
}

Scenario& Scenario::seed(std::uint64_t s) {
    protocol_.seed = s;
    return *this;
}

Scenario& Scenario::max_start_delay(Cycle d) {
    protocol_.max_start_delay = d;
    return *this;
}

Scenario& Scenario::max_cycles(Cycle c) {
    protocol_.max_cycles_per_run = c;
    return *this;
}

Scenario& Scenario::protocol(HwmCampaignOptions options) {
    protocol_ = options;
    return *this;
}

Scenario Scenario::with_config(MachineConfig config) const {
    Scenario re = *this;
    re.config_ = std::move(config);
    return re;
}

const Program& Scenario::scua_program() const {
    RRB_REQUIRE(scua_.has_value(), "scenario has no scua program");
    return *scua_;
}

std::vector<Program> Scenario::contender_programs() const {
    if (explicit_contenders_.has_value()) return *explicit_contenders_;
    return make_rsk_contenders(config_, rsk_access_);
}

std::uint64_t Scenario::fingerprint() const {
    // Content folding delegates to the shared per-object fingerprints
    // (MachineConfig::fingerprint, rrb::fingerprint(Program)) so the
    // machine-lease cache and the checkpoint identity can never drift
    // on what "the same config / program" means. `name`s are cosmetic
    // and excluded; every timing-relevant field participates.
    Fnv1a h;
    h.u64(2);  // fingerprint schema version
    h.u64(config_.fingerprint());
    h.u64(scua_.has_value() ? 1 : 0);
    if (scua_.has_value()) h.u64(rrb::fingerprint(*scua_));
    // Resolved contenders, not the policy: two scenarios that produce
    // the same programs run the same campaign, however they were built.
    const std::vector<Program> contenders = contender_programs();
    h.u64(contenders.size());
    for (const Program& contender : contenders) {
        h.u64(rrb::fingerprint(contender));
    }
    h.u64(protocol_.runs);
    h.u64(protocol_.seed);
    h.u64(protocol_.max_start_delay);
    h.u64(protocol_.max_cycles_per_run);
    return h.value();
}

void Scenario::validate() const {
    config_.validate();
    RRB_REQUIRE(scua_.has_value(), "scenario needs a scua program");
    RRB_REQUIRE(protocol_.runs >= 1, "need at least one run");
    // Emptiness is decidable without building the programs: the rsk
    // policy always yields a (single, core-cycled) contender kernel.
    RRB_REQUIRE(!explicit_contenders_.has_value() ||
                    !explicit_contenders_->empty(),
                "need at least one contender");
}

MachineConfig CampaignKnobs::config() const {
    MachineConfig config =
        (cores.has_value() || lbus.has_value())
            ? MachineConfig::scaled(cores.value_or(4), lbus.value_or(9))
            : (variant ? MachineConfig::ngmp_var()
                       : MachineConfig::ngmp_ref());
    if (arbiter.has_value()) config.arbiter = *arbiter;
    config.validate();
    return config;
}

CampaignSetup build_campaign(const CampaignKnobs& knobs,
                             std::optional<std::size_t> default_runs) {
    Scenario scenario =
        Scenario::on(knobs.config())
            .scua(make_autobench(Autobench::kCacheb, 0x0100'0000,
                                 knobs.iterations, 9))
            .rsk_contenders(OpKind::kLoad)
            .runs(knobs.runs.value_or(
                default_runs.value_or(40 * knobs.block_size)))
            .seed(knobs.seed);
    if (knobs.max_start_delay.has_value()) {
        scenario.max_start_delay(*knobs.max_start_delay);
    }
    PwcetSpec spec;
    spec.block_size = knobs.block_size;
    if (!knobs.exceedance.empty()) spec.exceedance = knobs.exceedance;
    return {std::move(scenario), std::move(spec)};
}

}  // namespace rrb
