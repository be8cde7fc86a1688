// Streaming, mergeable statistics for O(1)-memory measurement campaigns.
//
// MBPTA campaigns at 10^5+ runs cannot afford to materialize one value
// per run the way `HwmCampaignResult::exec_times` does. The pWCET-path
// accumulators (extremes, moments, block maxima) instead fold
// observations as they stream by, holding constant or O(runs/block_size)
// state; WhiteboxAccumulator is the exception — its run-ordered Series
// is O(runs) by design, since the validation figures want the sample —
// and buys parallelism, not memory. Every accumulator merges with
// another over a *disjoint* run range. Two laws make the sharded
// campaign engine's determinism contract work:
//
//   1. Order determinism. merge(a, b) where b's runs all follow a's runs
//      equals folding b's observations after a's. The reduce engine
//      (engine/reduce.h) assigns shards contiguous run ranges and merges
//      them in shard order, so the overall fold order is run order —
//      independent of which thread computed which shard.
//   2. Exactness where it matters. Extremes, histogram counts and block
//      maxima are exact (integer or max/min operations), so they are
//      bit-identical at every job count by law 1 alone. Floating-point
//      moments use Chan's parallel merge, whose rounding depends on the
//      *merge tree*; the reduce engine pins the tree to a pure function
//      of the run count (never the job count), which restores
//      bit-identical results for them too.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "core/experiment.h"
#include "sim/contract.h"
#include "sim/types.h"
#include "stats/evt.h"
#include "stats/histogram.h"
#include "stats/series.h"

namespace rrb {

/// Serialization backdoor (stats/checkpoint.h): accumulators befriend
/// the codec so checkpoints can round-trip their raw state bit-exactly
/// (e.g. StreamingMoments' m2, which no public accessor exposes without
/// a lossy divide) while the public API keeps its invariants.
struct CheckpointCodec;

/// Running min/max/count — the streamed form of HWM/LWM tracking.
template <typename T>
class StreamingExtremes {
public:
    void add(T value) noexcept {
        if (count_ == 0 || value < min_) min_ = value;
        if (count_ == 0 || value > max_) max_ = value;
        ++count_;
    }

    /// Folds another accumulator in. Exact and commutative.
    void merge(const StreamingExtremes& other) noexcept {
        if (other.count_ == 0) return;
        if (count_ == 0) {
            *this = other;
            return;
        }
        if (other.min_ < min_) min_ = other.min_;
        if (other.max_ > max_) max_ = other.max_;
        count_ += other.count_;
    }

    [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
    [[nodiscard]] bool empty() const noexcept { return count_ == 0; }

    /// Precondition: !empty().
    [[nodiscard]] T min() const {
        RRB_REQUIRE(count_ > 0, "extremes of an empty stream");
        return min_;
    }
    [[nodiscard]] T max() const {
        RRB_REQUIRE(count_ > 0, "extremes of an empty stream");
        return max_;
    }

private:
    friend struct CheckpointCodec;

    T min_{};
    T max_{};
    std::uint64_t count_ = 0;
};

/// Streaming mean / variance via Welford updates and Chan's parallel
/// merge (Chan, Golub, LeVeque 1979): two accumulators over disjoint
/// samples combine in O(1) without revisiting either sample.
class StreamingMoments {
public:
    void add(double x) noexcept {
        ++count_;
        const double delta = x - mean_;
        mean_ += delta / static_cast<double>(count_);
        m2_ += delta * (x - mean_);
    }

    void merge(const StreamingMoments& other) noexcept;

    [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
    [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
    [[nodiscard]] double mean() const noexcept { return mean_; }
    /// Population variance (divide by n), matching summarize().
    [[nodiscard]] double variance() const noexcept {
        return count_ == 0 ? 0.0 : m2_ / static_cast<double>(count_);
    }
    [[nodiscard]] double stddev() const noexcept;

private:
    friend struct CheckpointCodec;

    std::uint64_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;  ///< sum of squared deviations from the mean
};

/// Online block-maxima reduction: observations arrive keyed by run index
/// (in any order, each index exactly once), are folded into their block
/// max, and only O(runs / block_size) live values are ever held — one
/// (max, fill) pair per touched block. Complete blocks feed fit_gumbel
/// in block order, which makes the fit bit-identical to the classical
/// serial `fit_gumbel(block_maxima(sample, block_size))` on the same
/// values: max is an exact fold, and the maxima vector comes out in the
/// same order with trailing partial blocks dropped.
class StreamingBlockMaxima {
public:
    explicit StreamingBlockMaxima(std::size_t block_size = 50);

    /// Folds the observation of run `run_index`. Each run index must be
    /// added exactly once across all merged accumulators.
    void add(std::uint64_t run_index, double value);

    /// Folds another accumulator over a disjoint run-index set in.
    /// Precondition: equal block sizes.
    void merge(const StreamingBlockMaxima& other);

    [[nodiscard]] std::size_t block_size() const noexcept {
        return block_size_;
    }
    /// Observations folded so far.
    [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
    /// Blocks currently tracked — the accumulator's live-memory footprint
    /// (each is one (max, fill) pair).
    [[nodiscard]] std::size_t live_values() const noexcept {
        return blocks_.size();
    }
    [[nodiscard]] std::size_t complete_blocks() const noexcept;

    /// Maxima of the complete blocks, in block-index order.
    [[nodiscard]] std::vector<double> maxima() const;

    /// fit_gumbel over maxima() — the streamed EVT fit.
    [[nodiscard]] GumbelFit fit() const;

private:
    friend struct CheckpointCodec;

    struct Block {
        double max = 0.0;
        std::uint64_t filled = 0;
    };

    std::size_t block_size_;
    std::uint64_t count_ = 0;
    std::map<std::uint64_t, Block> blocks_;  ///< block index -> state
};

/// White-box campaign statistics: the per-request histograms and series
/// the validation figures need, produced shard-wise. Histogram merge is
/// exact integer addition (associative and commutative); the exec-time
/// Series appends, so shard-order merging reconstructs run order.
class WhiteboxAccumulator {
public:
    /// Folds run `run_index`'s measurement in. Runs must be added in
    /// increasing run order within one accumulator (the reduce engine's
    /// contiguous shards do this naturally) so exec_times() is run-ordered.
    void add(std::uint64_t run_index, const Measurement& m);

    /// Folds a later shard in (other's runs follow this one's).
    void merge(const WhiteboxAccumulator& other);

    [[nodiscard]] std::uint64_t runs() const noexcept { return runs_; }
    [[nodiscard]] const Histogram& gamma() const noexcept { return gamma_; }
    [[nodiscard]] const Histogram& ready_contenders() const noexcept {
        return ready_contenders_;
    }
    [[nodiscard]] const Histogram& injection_delta() const noexcept {
        return injection_delta_;
    }
    [[nodiscard]] std::uint64_t max_gamma() const noexcept {
        return max_gamma_;
    }
    /// Per-run execution times in run order.
    [[nodiscard]] const Series& exec_times() const noexcept {
        return exec_times_;
    }
    [[nodiscard]] const StreamingExtremes<Cycle>& extremes() const noexcept {
        return extremes_;
    }

private:
    friend struct CheckpointCodec;

    std::uint64_t runs_ = 0;
    std::uint64_t max_gamma_ = 0;
    Histogram gamma_;
    Histogram ready_contenders_;
    Histogram injection_delta_;
    Series exec_times_;
    StreamingExtremes<Cycle> extremes_;
};

/// Everything a pWCET campaign keeps per run — and nothing more:
/// extremes (HWM/LWM), moments (mean/stddev) and the online block-maxima
/// fold feeding the Gumbel fit. Live memory is O(runs / block_size).
class PwcetAccumulator {
public:
    explicit PwcetAccumulator(std::size_t block_size = 50)
        : blocks_(block_size) {}

    /// Folds run `run_index`, which took `exec_time` cycles — all a
    /// pWCET campaign reads of a run, so the campaign fold passes the
    /// finish cycle and never snapshots a Measurement.
    void add(std::uint64_t run_index, Cycle exec_time);
    void add(std::uint64_t run_index, const Measurement& m) {
        add(run_index, m.exec_time);
    }

    void merge(const PwcetAccumulator& other);

    [[nodiscard]] const StreamingExtremes<Cycle>& extremes() const noexcept {
        return extremes_;
    }
    [[nodiscard]] const StreamingMoments& moments() const noexcept {
        return moments_;
    }
    [[nodiscard]] const StreamingBlockMaxima& blocks() const noexcept {
        return blocks_;
    }

private:
    friend struct CheckpointCodec;

    StreamingExtremes<Cycle> extremes_;
    StreamingMoments moments_;
    StreamingBlockMaxima blocks_;
};

}  // namespace rrb
