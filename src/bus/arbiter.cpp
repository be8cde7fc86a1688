#include "bus/arbiter.h"

#include "sim/contract.h"

namespace rrb {

Arbiter::Arbiter(ArbiterKind kind, CoreId num_cores, Cycle tdma_slot_cycles,
                 std::vector<std::uint32_t> wrr_weights)
    : kind_(kind), num_cores_(num_cores), slot_cycles_(tdma_slot_cycles) {
    RRB_REQUIRE(num_cores >= 1, "need at least one core");
    if (kind == ArbiterKind::kTdma) {
        RRB_REQUIRE(tdma_slot_cycles >= 1, "slot must be at least one cycle");
    }
    if (kind == ArbiterKind::kWeightedRoundRobin) {
        if (wrr_weights.empty()) wrr_weights.assign(num_cores, 1);
        RRB_REQUIRE(wrr_weights.size() == num_cores,
                    "one weight per core required");
        for (const std::uint32_t w : wrr_weights) {
            RRB_REQUIRE(w >= 1, "every weight must be >= 1");
        }
        weights_ = std::move(wrr_weights);
    }
    reset();
}

Cycle Arbiter::tdma_grant_cycle(CoreId core, Cycle duration,
                                Cycle earliest) const noexcept {
    // A transaction longer than a whole slot can never be granted: no
    // slot has room for it from any starting cycle.
    if (duration > slot_cycles_) return kNoCycle;
    const Cycle slot = earliest / slot_cycles_;
    if (static_cast<CoreId>(slot % num_cores_) == core &&
        earliest + duration <= (slot + 1) * slot_cycles_) {
        return earliest;
    }
    // First cycle of the next slot `core` owns. Anything that fits a
    // slot at all fits from its first cycle, so this is exact: there is
    // no winnable cycle between `earliest` and it (later cycles of the
    // current slot only have less room, and intervening slots belong to
    // other cores).
    Cycle next_slot = slot + 1;
    const auto at = static_cast<CoreId>(next_slot % num_cores_);
    next_slot += core >= at ? core - at : num_cores_ - at + core;
    return next_slot * slot_cycles_;
}

std::uint64_t Arbiter::worst_case_window(CoreId core) const {
    RRB_REQUIRE(kind_ == ArbiterKind::kWeightedRoundRobin,
                "worst-case window of a weighted round-robin arbiter");
    RRB_REQUIRE(core < num_cores_, "core id out of range");
    std::uint64_t total = 0;
    for (const std::uint32_t w : weights_) total += w;
    return total - weights_[core];
}

}  // namespace rrb
