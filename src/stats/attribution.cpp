#include "stats/attribution.h"

#include "sim/contract.h"

namespace rrb {

void AttributionAccumulator::add(std::uint64_t /*run_index*/,
                                 const CycleAttribution& sample) {
    const std::size_t cores = sample.num_cores();
    if (num_cores_ == 0) {
        num_cores_ = cores;
        timeline_.assign(cores * kStallCauseCount, 0);
        blame_.assign(cores * cores, 0);
        dead_.assign(cores, 0);
    }
    RRB_REQUIRE(cores == num_cores_, "attribution core-count mismatch");
    ++runs_;
    machine_cycles_ += sample.total(0);
    for (CoreId c = 0; c < cores; ++c) {
        for (std::size_t cause = 0; cause < kStallCauseCount; ++cause) {
            timeline_[c * kStallCauseCount + cause] +=
                sample.timeline(c, static_cast<StallCause>(cause));
        }
        for (CoreId w = 0; w < cores; ++w) {
            blame_[c * num_cores_ + w] += sample.blamed(c, w);
        }
        dead_[c] += sample.dead_slot_cycles(c);
    }
}

void AttributionAccumulator::merge(const AttributionAccumulator& other) {
    if (other.runs_ == 0) return;
    if (runs_ == 0 && num_cores_ == 0) {
        *this = other;
        return;
    }
    RRB_REQUIRE(other.num_cores_ == num_cores_,
                "attribution core-count mismatch");
    runs_ += other.runs_;
    machine_cycles_ += other.machine_cycles_;
    for (std::size_t i = 0; i < timeline_.size(); ++i) {
        timeline_[i] += other.timeline_[i];
    }
    for (std::size_t i = 0; i < blame_.size(); ++i) {
        blame_[i] += other.blame_[i];
    }
    for (std::size_t i = 0; i < dead_.size(); ++i) {
        dead_[i] += other.dead_[i];
    }
}

void AttributionAccumulator::require_core(CoreId core) const {
    RRB_REQUIRE(core < num_cores_, "core id out of range");
}

std::uint64_t AttributionAccumulator::timeline(CoreId core,
                                               StallCause cause) const {
    require_core(core);
    return timeline_[core * kStallCauseCount +
                     static_cast<std::size_t>(cause)];
}

std::uint64_t AttributionAccumulator::blamed(CoreId victim,
                                             CoreId contender) const {
    require_core(victim);
    require_core(contender);
    return blame_[victim * num_cores_ + contender];
}

std::uint64_t AttributionAccumulator::dead_slot_cycles(CoreId victim) const {
    require_core(victim);
    return dead_[victim];
}

std::uint64_t AttributionAccumulator::core_total(CoreId core) const {
    require_core(core);
    std::uint64_t sum = 0;
    for (std::size_t cause = 0; cause < kStallCauseCount; ++cause) {
        sum += timeline_[core * kStallCauseCount + cause];
    }
    return sum;
}

std::uint64_t AttributionAccumulator::blamed_total(CoreId victim) const {
    require_core(victim);
    std::uint64_t sum = 0;
    for (CoreId w = 0; w < num_cores_; ++w) {
        sum += blame_[victim * num_cores_ + w];
    }
    return sum;
}

}  // namespace rrb
