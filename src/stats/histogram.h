// Integer-valued histogram with exact counts.
//
// Used throughout the evaluation: Figure 6(a) (number of ready contenders
// per request) and Figure 6(b) (per-request contention delay) are both
// histograms over small non-negative integers.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace rrb {

class Histogram {
public:
    /// Adds one observation of `value`. Inline fast path: a value the
    /// dense table already spans (every steady-state PMC update — the
    /// simulator calls this several times per bus transaction) is two
    /// additions; growth and large values take the out-of-line path.
    void add(std::uint64_t value, std::uint64_t count = 1) {
        if (value < dense_.size() && count != 0) {
            dense_[static_cast<std::size_t>(value)] += count;
            total_ += count;
            return;
        }
        add_slow(value, count);
    }

    /// Forgets every observation but keeps the dense storage, so a
    /// cleared histogram refills without allocating — the contract the
    /// reused-machine hot path (Machine::reset) relies on for its
    /// zero-steady-state-allocation guarantee.
    void clear() noexcept;

    /// Total number of observations.
    [[nodiscard]] std::uint64_t total() const noexcept { return total_; }

    /// Count for an exact value (0 when never observed).
    [[nodiscard]] std::uint64_t count(std::uint64_t value) const;

    /// Fraction of observations equal to `value`; 0 when empty.
    [[nodiscard]] double fraction(std::uint64_t value) const;

    /// Smallest / largest observed value. Precondition: !empty().
    [[nodiscard]] std::uint64_t min() const;
    [[nodiscard]] std::uint64_t max() const;

    /// Mean of the observations; 0 when empty.
    [[nodiscard]] double mean() const;

    /// The most frequent value (smallest such value on ties).
    /// Precondition: !empty().
    [[nodiscard]] std::uint64_t mode() const;

    /// Fraction of observations that equal the mode; 0 when empty.
    [[nodiscard]] double mode_fraction() const;

    /// Exact p-quantile (nearest-rank). Precondition: !empty(), 0<=q<=1.
    [[nodiscard]] std::uint64_t quantile(double q) const;

    [[nodiscard]] bool empty() const noexcept { return total_ == 0; }

    /// (value, count) pairs in increasing value order.
    [[nodiscard]] std::vector<std::pair<std::uint64_t, std::uint64_t>>
    buckets() const;

    /// Merges another histogram into this one.
    void merge(const Histogram& other);

private:
    void add_slow(std::uint64_t value, std::uint64_t count);

    /// Values below kDenseLimit live in a flat table indexed by value;
    /// anything larger spills into the ordered overflow map. The
    /// simulator's histograms (per-request gamma <= ubd, contender
    /// counts <= Nc, injection deltas, DRAM latencies) are small-valued,
    /// so the request path stays on the dense side — O(1) adds with no
    /// node allocation — while arbitrary values remain exact.
    static constexpr std::uint64_t kDenseLimit = 4096;

    std::vector<std::uint64_t> dense_;  ///< count of value v at index v
    std::map<std::uint64_t, std::uint64_t> overflow_;  ///< v >= kDenseLimit
    std::uint64_t total_ = 0;
};

/// A bounded log of histogram observations. The steady-state
/// fast-forward (Machine::run_core, docs/replay.md) logs one recorded
/// period's observations and re-adds each of them once per skipped
/// period. An entry is a (histogram, value) pair with a count: notes
/// append, and a full log merges its equal pairs, so a period fits while
/// it holds at most kCapacity distinct pairs however many observations
/// it makes (the estimator's rsk-nop periods: up to 2,520 observations
/// on at most 62 pairs). Storage is sized at construction: a period that
/// outgrows it, or observes a value above 32 bits, only marks the log
/// overflowed, and that period is then not skipped.
class ObservationLog {
public:
    static constexpr std::size_t kCapacity = 256;

    ObservationLog() : entries_(kCapacity) {}

    void note(Histogram& histogram, std::uint64_t value) noexcept {
        if (size_ < kCapacity && value <= UINT32_MAX) [[likely]] {
            entries_[size_++] = {&histogram,
                                 static_cast<std::uint32_t>(value), 1};
            return;
        }
        note_slow(histogram, value);
    }

    void clear() noexcept {
        size_ = 0;
        overflowed_ = false;
    }
    [[nodiscard]] bool overflowed() const noexcept { return overflowed_; }

    /// Adds every logged observation `times` more times. Never
    /// allocates: each value was added once already, so its histogram
    /// spans it.
    void replay(std::uint64_t times) const {
        for (std::size_t i = 0; i < size_; ++i) {
            const Entry& entry = entries_[i];
            entry.histogram->add(entry.value, entry.count * times);
        }
    }

private:
    struct Entry {
        Histogram* histogram = nullptr;
        std::uint32_t value = 0;
        std::uint32_t count = 0;
    };
    /// A note into a full log (merge equal pairs, then count or append
    /// the new one) or of a value too large to log.
    void note_slow(Histogram& histogram, std::uint64_t value) noexcept;

    std::vector<Entry> entries_;
    std::size_t size_ = 0;
    bool overflowed_ = false;
};

/// histogram.add(value), also noted in `log` while one records.
inline void observe(Histogram& histogram, std::uint64_t value,
                    ObservationLog* log) {
    histogram.add(value);
    if (log != nullptr) [[unlikely]] log->note(histogram, value);
}

}  // namespace rrb
