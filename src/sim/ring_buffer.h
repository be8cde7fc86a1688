// Reusable FIFO ring buffer for the simulator hot path.
//
// std::deque allocates and frees chunk blocks as elements cross chunk
// boundaries, which puts heap traffic on the per-request path of every
// simulated cycle. This ring keeps one flat buffer that only ever grows
// (doubling when full) and is retained across Machine::reset(), so the
// steady state of a reused machine performs no allocation at all.
#pragma once

#include <cstddef>
#include <vector>

#include "sim/contract.h"

namespace rrb {

template <typename T>
class RingBuffer {
public:
    RingBuffer() = default;
    explicit RingBuffer(std::size_t initial_capacity) {
        reserve(initial_capacity);
    }

    [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
    [[nodiscard]] std::size_t size() const noexcept { return size_; }
    [[nodiscard]] std::size_t capacity() const noexcept {
        return buffer_.size();
    }

    void push_back(const T& value) {
        if (size_ == buffer_.size()) grow();
        buffer_[(head_ + size_) & mask_] = value;
        ++size_;
    }

    [[nodiscard]] const T& front() const {
        RRB_REQUIRE(size_ > 0, "front of an empty ring buffer");
        return buffer_[head_];
    }

    /// Element `index` positions behind the front (0 = front()).
    [[nodiscard]] const T& at(std::size_t index) const {
        RRB_REQUIRE(index < size_, "ring buffer index out of range");
        return buffer_[(head_ + index) & mask_];
    }
    [[nodiscard]] T& at(std::size_t index) {
        RRB_REQUIRE(index < size_, "ring buffer index out of range");
        return buffer_[(head_ + index) & mask_];
    }

    void pop_front() {
        RRB_REQUIRE(size_ > 0, "pop of an empty ring buffer");
        head_ = (head_ + 1) & mask_;
        --size_;
    }

    /// Drops every element; the backing storage is retained.
    void clear() noexcept {
        head_ = 0;
        size_ = 0;
    }

    /// Grows the backing storage to at least `capacity` elements.
    void reserve(std::size_t capacity) {
        if (capacity > buffer_.size()) reallocate(capacity);
    }

private:
    void grow() { reallocate(buffer_.empty() ? 4 : buffer_.size() * 2); }

    void reallocate(std::size_t capacity) {
        // Power-of-two storage so the wraparound is a mask, not a
        // divide — these queues are popped on the per-request path.
        std::size_t rounded = 4;
        while (rounded < capacity) rounded *= 2;
        std::vector<T> next(rounded);
        for (std::size_t i = 0; i < size_; ++i) {
            next[i] = buffer_[(head_ + i) & mask_];
        }
        buffer_ = std::move(next);
        mask_ = rounded - 1;
        head_ = 0;
    }

    std::vector<T> buffer_;
    std::size_t mask_ = 0;  ///< buffer_.size() - 1 once allocated
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

}  // namespace rrb
