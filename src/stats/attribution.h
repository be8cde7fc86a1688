// Mergeable campaign accumulator for cycle attribution.
//
// Folds one finalized machine/attribution.h CycleAttribution per run and
// rides the reduce engine on the same contract as the other accumulators
// (stats/streaming.h): integer sums only, so merge is exact, associative
// over the engine's shard-order left fold, and bit-identical at every
// --jobs count and across checkpoint shard+merge (stats/checkpoint.h
// round-trips the raw state through CheckpointCodec).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "machine/attribution.h"
#include "sim/types.h"

namespace rrb {

struct CheckpointCodec;

/// Sums of per-core cause timelines and per-contender blame matrices
/// over a campaign's runs. All storage is sized by the first add(), so
/// a reused accumulator's steady-state fold never allocates.
class AttributionAccumulator {
public:
    AttributionAccumulator() = default;

    /// Folds the finalized attribution of run `run_index`. The index
    /// does not enter the state (everything here is an exact sum); it
    /// is part of the campaign-accumulator concept's signature.
    void add(std::uint64_t run_index, const CycleAttribution& sample);

    /// Folds another accumulator over a disjoint run set in. Exact and
    /// commutative. Precondition: equal core counts (unless one is
    /// empty).
    void merge(const AttributionAccumulator& other);

    [[nodiscard]] std::uint64_t runs() const noexcept { return runs_; }
    [[nodiscard]] bool empty() const noexcept { return runs_ == 0; }
    [[nodiscard]] std::size_t num_cores() const noexcept {
        return num_cores_;
    }

    /// Summed machine cycles across runs (per-run machine elapsed time;
    /// closed accounting makes every core's timeline sum to this).
    [[nodiscard]] std::uint64_t machine_cycles() const noexcept {
        return machine_cycles_;
    }

    [[nodiscard]] std::uint64_t timeline(CoreId core,
                                         StallCause cause) const;
    [[nodiscard]] std::uint64_t blamed(CoreId victim,
                                       CoreId contender) const;
    [[nodiscard]] std::uint64_t dead_slot_cycles(CoreId victim) const;

    /// Sum of every timeline bucket of `core` (== machine_cycles() under
    /// closed accounting).
    [[nodiscard]] std::uint64_t core_total(CoreId core) const;
    /// Sum of blame row `victim` (excluding dead slots).
    [[nodiscard]] std::uint64_t blamed_total(CoreId victim) const;

private:
    friend struct CheckpointCodec;

    void require_core(CoreId core) const;

    std::size_t num_cores_ = 0;
    std::uint64_t runs_ = 0;
    std::uint64_t machine_cycles_ = 0;
    std::vector<std::uint64_t> timeline_;  ///< num_cores x kStallCauseCount
    std::vector<std::uint64_t> blame_;     ///< num_cores x num_cores
    std::vector<std::uint64_t> dead_;      ///< per victim
};

}  // namespace rrb
