// Incremental 64-bit FNV-1a — the hash used for content fingerprints
// and checkpoint checksums (Scenario::fingerprint, stats/checkpoint.h).
// Not cryptographic; it exists to turn silent mismatches and corruption
// into loud errors. Multi-byte values fold little-endian byte by byte
// after widening to u64, so a hash is a pure function of the logical
// values — independent of host endianness and integer widths.
//
// WordHash is the faster sibling for hashes over many words: a
// splitmix64 chain, one fold per word.
#pragma once

#include <cstdint>
#include <span>

namespace rrb {

class Fnv1a {
public:
    void byte(std::uint8_t b) noexcept { hash_ = (hash_ ^ b) * kPrime; }

    void bytes(std::span<const std::uint8_t> bs) noexcept {
        for (const std::uint8_t b : bs) byte(b);
    }

    void u64(std::uint64_t v) noexcept {
        for (int shift = 0; shift < 64; shift += 8) {
            byte(static_cast<std::uint8_t>(v >> shift));
        }
    }

    [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

private:
    static constexpr std::uint64_t kOffsetBasis = 1469598103934665603ULL;
    static constexpr std::uint64_t kPrime = 1099511628211ULL;

    std::uint64_t hash_ = kOffsetBasis;
};

/// A splitmix64 chain: about 5 dependent operations per word where
/// Fnv1a::u64 takes 16. rrb::fingerprint(Program) hashes every
/// instruction with it, and those values reach checkpoints through
/// Scenario::fingerprint, so the chain must never change.
class WordHash {
public:
    void u64(std::uint64_t v) noexcept {
        hash_ += 0x9e3779b97f4a7c15ULL;
        std::uint64_t z = hash_ ^ v;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        hash_ = z ^ (z >> 31);
    }

    [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

private:
    std::uint64_t hash_ = 0x243f6a8885a308d3ULL;  // pi
};

}  // namespace rrb
