#include "stats/streaming.h"

#include <algorithm>
#include <cmath>

namespace rrb {

// ------------------------------------------------------ StreamingMoments

void StreamingMoments::merge(const StreamingMoments& other) noexcept {
    if (other.count_ == 0) return;
    if (count_ == 0) {
        *this = other;
        return;
    }
    const double delta = other.mean_ - mean_;
    const double n_a = static_cast<double>(count_);
    const double n_b = static_cast<double>(other.count_);
    const double n = n_a + n_b;
    m2_ += other.m2_ + delta * delta * (n_a * n_b / n);
    mean_ += delta * (n_b / n);
    count_ += other.count_;
}

double StreamingMoments::stddev() const noexcept {
    return std::sqrt(variance());
}

// --------------------------------------------------- StreamingBlockMaxima

StreamingBlockMaxima::StreamingBlockMaxima(std::size_t block_size)
    : block_size_(block_size) {
    RRB_REQUIRE(block_size >= 1, "block size must be positive");
}

void StreamingBlockMaxima::add(std::uint64_t run_index, double value) {
    Block& block = blocks_[run_index / block_size_];
    if (block.filled == 0 || value > block.max) block.max = value;
    ++block.filled;
    RRB_ENSURE(block.filled <= block_size_);  // duplicate run index otherwise
    ++count_;
}

void StreamingBlockMaxima::merge(const StreamingBlockMaxima& other) {
    RRB_REQUIRE(block_size_ == other.block_size_,
                "merging block-maxima streams of different block sizes");
    for (const auto& [index, incoming] : other.blocks_) {
        Block& block = blocks_[index];
        // Max over disjoint subsets of the block: exact, order-free.
        if (block.filled == 0 || incoming.max > block.max) {
            block.max = incoming.max;
        }
        block.filled += incoming.filled;
        RRB_ENSURE(block.filled <= block_size_);
    }
    count_ += other.count_;
}

std::size_t StreamingBlockMaxima::complete_blocks() const noexcept {
    std::size_t complete = 0;
    for (const auto& [index, block] : blocks_) {
        if (block.filled == block_size_) ++complete;
    }
    return complete;
}

std::vector<double> StreamingBlockMaxima::maxima() const {
    std::vector<double> out;
    out.reserve(blocks_.size());
    // std::map iterates in block-index order — the serial block order.
    for (const auto& [index, block] : blocks_) {
        if (block.filled == block_size_) out.push_back(block.max);
    }
    return out;
}

GumbelFit StreamingBlockMaxima::fit() const { return fit_gumbel(maxima()); }

// ---------------------------------------------------- WhiteboxAccumulator

void WhiteboxAccumulator::add(std::uint64_t run_index, const Measurement& m) {
    (void)run_index;  // order is the caller's contract; nothing keyed here
    ++runs_;
    max_gamma_ = std::max(max_gamma_, m.max_gamma);
    gamma_.merge(m.gamma);
    ready_contenders_.merge(m.ready_contenders);
    injection_delta_.merge(m.injection_delta);
    exec_times_.add(static_cast<double>(m.exec_time));
    extremes_.add(m.exec_time);
}

void WhiteboxAccumulator::merge(const WhiteboxAccumulator& other) {
    runs_ += other.runs_;
    max_gamma_ = std::max(max_gamma_, other.max_gamma_);
    gamma_.merge(other.gamma_);
    ready_contenders_.merge(other.ready_contenders_);
    injection_delta_.merge(other.injection_delta_);
    exec_times_.merge(other.exec_times_);
    extremes_.merge(other.extremes_);
}

// ------------------------------------------------------- PwcetAccumulator

void PwcetAccumulator::add(std::uint64_t run_index, Cycle exec_time) {
    extremes_.add(exec_time);
    moments_.add(static_cast<double>(exec_time));
    blocks_.add(run_index, static_cast<double>(exec_time));
}

void PwcetAccumulator::merge(const PwcetAccumulator& other) {
    extremes_.merge(other.extremes_);
    moments_.merge(other.moments_);
    blocks_.merge(other.blocks_);
}

}  // namespace rrb
