#include "stats/histogram.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>

#include "sim/contract.h"

namespace rrb {

void Histogram::add_slow(std::uint64_t value, std::uint64_t count) {
    if (count == 0) return;
    if (value < kDenseLimit) {
        if (value >= dense_.size()) {
            dense_.resize(static_cast<std::size_t>(value) + 1, 0);
        }
        dense_[static_cast<std::size_t>(value)] += count;
    } else {
        overflow_[value] += count;
    }
    total_ += count;
}

void Histogram::clear() noexcept {
    std::fill(dense_.begin(), dense_.end(), 0);
    overflow_.clear();
    total_ = 0;
}

std::uint64_t Histogram::count(std::uint64_t value) const {
    if (value < kDenseLimit) {
        return value < dense_.size()
                   ? dense_[static_cast<std::size_t>(value)]
                   : 0;
    }
    const auto it = overflow_.find(value);
    return it == overflow_.end() ? 0 : it->second;
}

double Histogram::fraction(std::uint64_t value) const {
    if (total_ == 0) return 0.0;
    return static_cast<double>(count(value)) / static_cast<double>(total_);
}

std::uint64_t Histogram::min() const {
    RRB_REQUIRE(!empty(), "histogram is empty");
    for (std::size_t v = 0; v < dense_.size(); ++v) {
        if (dense_[v] != 0) return v;
    }
    return overflow_.begin()->first;
}

std::uint64_t Histogram::max() const {
    RRB_REQUIRE(!empty(), "histogram is empty");
    if (!overflow_.empty()) return overflow_.rbegin()->first;
    for (std::size_t v = dense_.size(); v-- > 0;) {
        if (dense_[v] != 0) return v;
    }
    RRB_ENSURE(false);  // total_ > 0 guarantees an observed value exists
}

double Histogram::mean() const {
    if (total_ == 0) return 0.0;
    double acc = 0.0;
    for (std::size_t v = 0; v < dense_.size(); ++v) {
        if (dense_[v] != 0) {
            acc += static_cast<double>(v) * static_cast<double>(dense_[v]);
        }
    }
    for (const auto& [value, count] : overflow_) {
        acc += static_cast<double>(value) * static_cast<double>(count);
    }
    return acc / static_cast<double>(total_);
}

std::uint64_t Histogram::mode() const {
    RRB_REQUIRE(!empty(), "histogram is empty");
    std::uint64_t best_value = 0;
    std::uint64_t best_count = 0;
    // Increasing value order, strict improvement: smallest value wins ties.
    for (std::size_t v = 0; v < dense_.size(); ++v) {
        if (dense_[v] > best_count) {
            best_count = dense_[v];
            best_value = v;
        }
    }
    for (const auto& [value, count] : overflow_) {
        if (count > best_count) {
            best_count = count;
            best_value = value;
        }
    }
    return best_value;
}

double Histogram::mode_fraction() const {
    if (total_ == 0) return 0.0;
    return fraction(mode());
}

std::uint64_t Histogram::quantile(double q) const {
    RRB_REQUIRE(!empty(), "histogram is empty");
    RRB_REQUIRE(q >= 0.0 && q <= 1.0, "quantile must be in [0,1]");
    // Nearest-rank definition: smallest value whose cumulative count reaches
    // ceil(q * total).
    const auto rank = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(total_)));
    const std::uint64_t target = rank == 0 ? 1 : rank;
    std::uint64_t cumulative = 0;
    for (std::size_t v = 0; v < dense_.size(); ++v) {
        cumulative += dense_[v];
        if (dense_[v] != 0 && cumulative >= target) return v;
    }
    for (const auto& [value, count] : overflow_) {
        cumulative += count;
        if (cumulative >= target) return value;
    }
    return max();
}

std::vector<std::pair<std::uint64_t, std::uint64_t>> Histogram::buckets()
    const {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> result;
    for (std::size_t v = 0; v < dense_.size(); ++v) {
        if (dense_[v] != 0) result.emplace_back(v, dense_[v]);
    }
    result.insert(result.end(), overflow_.begin(), overflow_.end());
    return result;
}

void Histogram::merge(const Histogram& other) {
    for (std::size_t v = 0; v < other.dense_.size(); ++v) {
        if (other.dense_[v] != 0) add(v, other.dense_[v]);
    }
    for (const auto& [value, count] : other.overflow_) add(value, count);
}

void ObservationLog::note_slow(Histogram& histogram,
                               std::uint64_t value) noexcept {
    if (overflowed_) return;
    if (value > UINT32_MAX) {
        overflowed_ = true;
        return;
    }
    // Open addressing over twice the capacity, on the stack: the log's
    // own storage stays one entry per pair. A slot holds an entry's
    // index + 1. The entries merge in place, in first-seen order.
    constexpr int kSlotBits = 9;
    constexpr std::size_t kSlots = std::size_t{1} << kSlotBits;
    static_assert(kSlots >= 2 * kCapacity);
    std::array<std::uint16_t, kSlots> slots{};
    std::size_t kept = 0;
    // Counts or keeps one entry; false when it fits neither.
    const auto merge = [&](const Entry entry) {
        std::size_t slot =
            ((reinterpret_cast<std::uintptr_t>(entry.histogram) ^
              std::uint64_t{entry.value} << 32) *
             0x9E37'79B9'7F4A'7C15ULL) >>
            (64 - kSlotBits);
        for (;; slot = (slot + 1) % kSlots) {
            if (slots[slot] == 0) {
                if (kept == kCapacity) return false;
                entries_[kept++] = entry;
                slots[slot] = static_cast<std::uint16_t>(kept);
                return true;
            }
            Entry& same = entries_[slots[slot] - 1];
            if (same.histogram == entry.histogram &&
                same.value == entry.value) {
                if (same.count > UINT32_MAX - entry.count) return false;
                same.count += entry.count;
                return true;
            }
        }
    };
    bool fits = true;
    for (std::size_t i = 0; i < size_; ++i) fits &= merge(entries_[i]);
    fits &= merge({&histogram, static_cast<std::uint32_t>(value), 1});
    size_ = kept;
    overflowed_ = !fits;
}

}  // namespace rrb
