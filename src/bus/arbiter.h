// Bus arbitration policies.
//
// The paper's methodology targets round-robin (RR) arbitration, whose
// "synchrony effect" under saturation is what makes the ubd measurable from
// saw-tooth periods (Section 3). Fixed-priority and TDMA arbiters are
// provided for the ablation benches: the saw-tooth signature is specific to
// RR, and a user applying the methodology to the wrong arbiter should see
// it fail loudly.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/types.h"

namespace rrb {

/// One per-core arbitration candidate for the current cycle.
struct ArbCandidate {
    bool ready = false;   ///< the core has a request eligible this cycle
    Cycle duration = 0;   ///< bus cycles the transaction would occupy
};

class Arbiter {
public:
    virtual ~Arbiter() = default;

    /// Chooses the core to grant at cycle `now` among `candidates`
    /// (indexed by core), or nullopt to leave the bus idle this cycle.
    /// Must not be called while the bus is busy.
    [[nodiscard]] virtual std::optional<CoreId> pick(
        std::span<const ArbCandidate> candidates, Cycle now) = 0;

    /// Informs the policy that `core` was granted at `now` (updates
    /// rotation state where applicable).
    virtual void granted(CoreId core, Cycle now) = 0;

    /// Policy name for reports.
    [[nodiscard]] virtual std::string name() const = 0;

    /// Resets internal state to power-on.
    virtual void reset() = 0;

    /// Would pick() grant `core` when it is the only ready candidate at
    /// `now`? True for every work-conserving policy (the scan finds the
    /// sole candidate wherever the rotation points); TDMA overrides
    /// with its slot-ownership check. Lets the bus grant the common
    /// single-contender case without materializing a candidate table.
    [[nodiscard]] virtual bool grants_alone(CoreId core, Cycle duration,
                                            Cycle now) const {
        (void)core;
        (void)duration;
        (void)now;
        return true;
    }

    /// Earliest cycle >= `earliest` at which a transaction of `duration`
    /// cycles from `core` could possibly be granted, assuming the bus is
    /// idle and no competitor contends — a lower bound the event-driven
    /// cycle skipper may fast-forward to. Work-conserving policies grant
    /// any ready sole candidate immediately, so the default returns
    /// `earliest`. TDMA overrides with slot arithmetic (the request must
    /// wait for a slot `core` owns with enough room left); kNoCycle
    /// means the transaction can never be granted (longer than a slot).
    [[nodiscard]] virtual Cycle next_grant_cycle(CoreId core, Cycle duration,
                                                 Cycle earliest) const {
        (void)core;
        (void)duration;
        return earliest;
    }

    /// The policy's whole state as one word, when that state does not
    /// depend on absolute time: the steady-state fast-forward
    /// (docs/replay.md) compares it between two periods and leaves it
    /// as it is across the skipped ones. nullopt — the default, and
    /// TDMA, whose slots are absolute time — keeps a run from ever
    /// skipping periods.
    [[nodiscard]] virtual std::optional<std::uint64_t> state_word() const {
        return std::nullopt;
    }
};

/// Round-robin: after core ci is granted, the priority order for the next
/// arbitration is ci+1, ci+2, ..., cNc, c1, ..., ci (Section 2). Work
/// conserving: any ready requester can win when higher-priority ones are
/// idle.
class RoundRobinArbiter final : public Arbiter {
public:
    explicit RoundRobinArbiter(CoreId num_cores);

    [[nodiscard]] std::optional<CoreId> pick(
        std::span<const ArbCandidate> candidates, Cycle now) override;
    void granted(CoreId core, Cycle now) override;
    [[nodiscard]] std::string name() const override { return "round-robin"; }
    void reset() override;
    [[nodiscard]] std::optional<std::uint64_t> state_word() const override {
        return head_;
    }

    /// Core that currently holds the highest priority (exposed for tests
    /// that assert the rotation sequence of Figures 2/3).
    [[nodiscard]] CoreId highest_priority() const noexcept { return head_; }

private:
    CoreId num_cores_;
    CoreId head_;  ///< highest-priority core for the next round
};

/// Fixed priority: lower core id always wins. Not time-composable; the
/// lowest-priority core can starve. Included for ablation only.
class FixedPriorityArbiter final : public Arbiter {
public:
    explicit FixedPriorityArbiter(CoreId num_cores);

    [[nodiscard]] std::optional<CoreId> pick(
        std::span<const ArbCandidate> candidates, Cycle now) override;
    void granted(CoreId core, Cycle now) override;
    [[nodiscard]] std::string name() const override { return "fixed-priority"; }
    void reset() override {}
    [[nodiscard]] std::optional<std::uint64_t> state_word() const override {
        return 0;  // stateless
    }

private:
    CoreId num_cores_;
};

/// TDMA: the timeline is divided into fixed slots rotating across cores; a
/// transaction is granted only to the slot owner and only when it fits in
/// the remainder of the slot. Non-work-conserving (idle slots stay idle),
/// which is exactly why it shows no synchrony effect.
class TdmaArbiter final : public Arbiter {
public:
    TdmaArbiter(CoreId num_cores, Cycle slot_cycles);

    [[nodiscard]] std::optional<CoreId> pick(
        std::span<const ArbCandidate> candidates, Cycle now) override;
    void granted(CoreId core, Cycle now) override;
    [[nodiscard]] std::string name() const override { return "tdma"; }
    void reset() override {}
    [[nodiscard]] bool grants_alone(CoreId core, Cycle duration,
                                    Cycle now) const override;
    [[nodiscard]] Cycle next_grant_cycle(CoreId core, Cycle duration,
                                         Cycle earliest) const override;

    [[nodiscard]] Cycle slot_cycles() const noexcept { return slot_cycles_; }

private:
    CoreId num_cores_;
    Cycle slot_cycles_;
};

/// Weighted round-robin (a single-level MBBA [Bourgade et al.] /
/// round-robin-with-groups [Paolieri et al.] style policy from the
/// paper's related work): the rotation head may win up to `weight[i]`
/// consecutive transactions before the head advances. With all weights 1
/// this is exactly plain round-robin; larger weights trade fairness for
/// bandwidth and stretch the worst-case window of the other cores to
/// sum(weights) - weight[i] transactions.
class WeightedRoundRobinArbiter final : public Arbiter {
public:
    explicit WeightedRoundRobinArbiter(std::vector<std::uint32_t> weights);

    [[nodiscard]] std::optional<CoreId> pick(
        std::span<const ArbCandidate> candidates, Cycle now) override;
    void granted(CoreId core, Cycle now) override;
    [[nodiscard]] std::string name() const override {
        return "weighted-round-robin";
    }
    void reset() override;
    [[nodiscard]] std::optional<std::uint64_t> state_word() const override {
        return std::uint64_t{head_} << 32 | credits_;
    }

    [[nodiscard]] CoreId head() const noexcept { return head_; }
    [[nodiscard]] std::uint32_t credits_left() const noexcept {
        return credits_;
    }
    /// Worst-case bus window for core i in transactions: every other core
    /// spends its full weight per rotation.
    [[nodiscard]] std::uint64_t worst_case_window(CoreId core) const;

private:
    void advance_head();

    std::vector<std::uint32_t> weights_;
    CoreId head_;
    std::uint32_t credits_;  ///< grants the head may still take
};

/// Factory helpers so configs can name a policy.
enum class ArbiterKind : std::uint8_t {
    kRoundRobin,
    kFixedPriority,
    kTdma,
    kWeightedRoundRobin,
};

[[nodiscard]] std::unique_ptr<Arbiter> make_arbiter(
    ArbiterKind kind, CoreId num_cores, Cycle tdma_slot_cycles = 0,
    std::vector<std::uint32_t> weights = {});

/// The policies' short names as flags, batch specs and reports spell
/// them — the one table both directions read.
inline constexpr std::array<std::pair<std::string_view, ArbiterKind>, 4>
    kArbiterNames = {{
        {"rr", ArbiterKind::kRoundRobin},
        {"tdma", ArbiterKind::kTdma},
        {"wrr", ArbiterKind::kWeightedRoundRobin},
        {"fixed", ArbiterKind::kFixedPriority},
    }};

/// The kind kArbiterNames spells as `name`; nullopt for any other text.
[[nodiscard]] constexpr std::optional<ArbiterKind> arbiter_named(
    std::string_view name) noexcept {
    for (const auto& [text, kind] : kArbiterNames) {
        if (text == name) return kind;
    }
    return std::nullopt;
}

/// `kind`'s short name in kArbiterNames.
[[nodiscard]] constexpr std::string_view short_name(
    ArbiterKind kind) noexcept {
    for (const auto& [text, named] : kArbiterNames) {
        if (named == kind) return text;
    }
    return "?";
}

}  // namespace rrb
