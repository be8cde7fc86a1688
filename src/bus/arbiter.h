// Bus arbitration policies.
//
// The paper's methodology targets round-robin (RR) arbitration, whose
// "synchrony effect" under saturation is what makes the ubd measurable from
// saw-tooth periods (Section 3). Fixed priority, TDMA and weighted RR are
// provided for the ablation benches: the saw-tooth signature is specific to
// RR, and a user applying the methodology to the wrong arbiter should see
// it fail loudly. The four policies are a closed set, so one Arbiter value
// holds any of them and small switches tell them apart: the bus grants
// through one inline scan, with no indirect call and no candidate table.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/types.h"

namespace rrb {

enum class ArbiterKind : std::uint8_t {
    kRoundRobin,
    kFixedPriority,
    kTdma,
    kWeightedRoundRobin,
};

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

/// One bus arbiter, of any policy.
///
/// Round-robin, weighted RR and fixed priority grant the first ready core
/// of one scan that starts at the head and wraps around:
///   * round-robin: after core ci is granted, the order for the next
///     arbitration is ci+1, ci+2, ..., cNc, c1, ..., ci (Section 2). Work
///     conserving: any ready requester can win when higher-priority ones
///     are idle;
///   * weighted round-robin (a single-level MBBA [Bourgade et al.] /
///     round-robin-with-groups [Paolieri et al.] style policy from the
///     paper's related work): the head may win up to weight[head]
///     consecutive grants, then the head advances by one. A grant to any
///     other core (a steal: the head was not ready) leaves the head and
///     its credits as they are — so even with all weights 1 this is not
///     plain round-robin, which rotates past the winner. Larger weights
///     trade fairness for bandwidth and stretch the worst-case window of
///     the other cores to sum(weights) - weight[i] transactions;
///   * fixed priority: the head never moves, so the lower core id always
///     wins. Not time-composable; the lowest-priority core can starve.
/// TDMA cuts the timeline into fixed slots rotating across cores 0, 1,
/// ..., Nc-1 and grants only the slot owner, only when its transaction
/// fits in the remainder of the slot. Non-work-conserving (idle slots stay
/// idle), which is exactly why it shows no synchrony effect.
class Arbiter {
public:
    /// `tdma_slot_cycles` is read by TDMA only (at least 1), `wrr_weights`
    /// by weighted RR only (one per core, each at least 1; empty = all 1).
    Arbiter(ArbiterKind kind, CoreId num_cores, Cycle tdma_slot_cycles = 0,
            std::vector<std::uint32_t> wrr_weights = {});

    [[nodiscard]] CoreId num_cores() const noexcept { return num_cores_; }

    /// The core to grant at `now`, or kNoCore to leave the bus idle.
    /// `ready(c)` tells whether core c has a request eligible at `now`;
    /// `duration(c)` the bus cycles it would occupy (TDMA reads it for the
    /// slot owner only). Must not be called while the bus is busy.
    template <class Ready, class Duration>
    [[nodiscard]] CoreId pick(Cycle now, Ready ready,
                              Duration duration) const {
        if (kind_ == ArbiterKind::kTdma) {
            const Cycle slot = now / slot_cycles_;
            const auto owner = static_cast<CoreId>(slot % num_cores_);
            const Cycle slot_end = (slot + 1) * slot_cycles_;
            return ready(owner) && now + duration(owner) <= slot_end
                       ? owner
                       : kNoCore;
        }
        // head_..end then 0..head_ — rotation priority without the
        // per-core modulo (this runs at every bus grant).
        for (CoreId core = head_; core < num_cores_; ++core) {
            if (ready(core)) return core;
        }
        for (CoreId core = 0; core < head_; ++core) {
            if (ready(core)) return core;
        }
        return kNoCore;
    }

    /// Informs the policy that `core` was granted (rotates the head where
    /// the policy has one).
    void granted(CoreId core) noexcept {
        switch (kind_) {
            case ArbiterKind::kRoundRobin:
                head_ = core + 1 < num_cores_ ? core + 1 : 0;
                return;
            case ArbiterKind::kWeightedRoundRobin:
                if (core == head_ && --credits_ == 0) {
                    head_ = head_ + 1 < num_cores_ ? head_ + 1 : 0;
                    credits_ = weights_[head_];
                }
                return;
            case ArbiterKind::kFixedPriority:
            case ArbiterKind::kTdma:
                return;
        }
    }

    /// Earliest cycle >= `earliest` at which a transaction of `duration`
    /// cycles from `core` could possibly be granted, assuming the bus is
    /// idle and no competitor contends — a lower bound the event-driven
    /// cycle skipper may fast-forward to. Work-conserving policies grant
    /// any ready sole candidate at once: `earliest`. TDMA waits for a
    /// slot `core` owns with enough room left; kNoCycle means the
    /// transaction can never be granted (longer than a slot).
    [[nodiscard]] Cycle next_grant_cycle(CoreId core, Cycle duration,
                                         Cycle earliest) const noexcept {
        return kind_ == ArbiterKind::kTdma
                   ? tdma_grant_cycle(core, duration, earliest)
                   : earliest;
    }

    /// The policy's whole state as one word, when that state does not
    /// depend on absolute time: the steady-state fast-forward
    /// (docs/replay.md) compares it between two periods and leaves it as
    /// it is across the skipped ones. Round-robin's head, fixed
    /// priority's nothing (0), WRR's head and credits; nullopt for TDMA,
    /// whose slots are absolute time — a TDMA run never skips periods.
    [[nodiscard]] std::optional<std::uint64_t> state_word() const noexcept {
        switch (kind_) {
            case ArbiterKind::kRoundRobin: return head_;
            case ArbiterKind::kWeightedRoundRobin:
                return std::uint64_t{head_} << 32 | credits_;
            case ArbiterKind::kFixedPriority: return 0;
            case ArbiterKind::kTdma: break;
        }
        return std::nullopt;
    }

    /// Resets the rotation state to power-on: head 0 (with its full
    /// weight under WRR).
    void reset() noexcept {
        head_ = 0;
        credits_ = weights_.empty() ? 0 : weights_[0];
    }

    /// The core the next scan starts from (0 under fixed priority and
    /// TDMA). Exposed for tests that assert the rotation sequence of
    /// Figures 2/3.
    [[nodiscard]] CoreId head() const noexcept { return head_; }
    /// Weighted RR: grants the head may still take.
    [[nodiscard]] std::uint32_t credits_left() const noexcept {
        return credits_;
    }
    /// Weighted RR: worst-case bus window for `core` in transactions —
    /// every other core spends its full weight per rotation.
    [[nodiscard]] std::uint64_t worst_case_window(CoreId core) const;

private:
    [[nodiscard]] Cycle tdma_grant_cycle(CoreId core, Cycle duration,
                                         Cycle earliest) const noexcept;

    ArbiterKind kind_;
    CoreId num_cores_;
    Cycle slot_cycles_;  ///< TDMA only
    std::vector<std::uint32_t> weights_;  ///< weighted RR only
    CoreId head_ = 0;             ///< where the next scan starts
    std::uint32_t credits_ = 0;   ///< weighted RR: grants left to head_
};

}  // namespace rrb
