// Set-associative cache model (functional: state + hit/miss, no timing —
// latency is charged by the components that own the cache).
//
// Models the NGMP memory hierarchy pieces the paper fixes:
//   IL1/DL1: 16KB, 4-way, 32-byte lines, LRU; DL1 is write-through
//   no-allocate.
//   L2: 256KB, 4-way, LRU, way-partitioned one way per core (see
//   partitioned_cache.h).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "sim/rng.h"
#include "sim/types.h"

namespace rrb {

struct CacheGeometry {
    std::uint64_t size_bytes = 16 * 1024;
    std::uint32_t ways = 4;
    std::uint32_t line_bytes = 32;

    bool operator==(const CacheGeometry&) const = default;

    [[nodiscard]] std::uint64_t num_sets() const noexcept {
        return size_bytes / (static_cast<std::uint64_t>(ways) * line_bytes);
    }
    [[nodiscard]] Addr line_of(Addr addr) const noexcept {
        return addr / line_bytes;
    }
    [[nodiscard]] std::uint64_t set_of(Addr addr) const noexcept {
        return line_of(addr) % num_sets();
    }
    [[nodiscard]] std::uint64_t tag_of(Addr addr) const noexcept {
        return line_of(addr) / num_sets();
    }
    /// Byte distance between two addresses mapping to the same set.
    [[nodiscard]] std::uint64_t set_stride() const noexcept {
        return num_sets() * line_bytes;
    }
    /// Throws std::invalid_argument when sizes are inconsistent or not
    /// powers of two.
    void validate() const;
};

/// kPlru is the tree-based pseudo-LRU found in many real cores; it needs
/// a power-of-two way count. The rsk construction (W+1 same-set lines)
/// defeats it just like true LRU for sequential access patterns.
enum class ReplacementPolicy : std::uint8_t { kLru, kFifo, kRandom, kPlru };
enum class WritePolicy : std::uint8_t { kWriteThrough, kWriteBack };
enum class AllocPolicy : std::uint8_t { kWriteAllocate, kNoWriteAllocate };

struct CacheStats {
    std::uint64_t read_hits = 0;
    std::uint64_t read_misses = 0;
    std::uint64_t write_hits = 0;
    std::uint64_t write_misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t writebacks = 0;

    [[nodiscard]] std::uint64_t hits() const noexcept {
        return read_hits + write_hits;
    }
    [[nodiscard]] std::uint64_t misses() const noexcept {
        return read_misses + write_misses;
    }
    [[nodiscard]] std::uint64_t accesses() const noexcept {
        return hits() + misses();
    }
    [[nodiscard]] double miss_ratio() const noexcept {
        return accesses() == 0 ? 0.0
                               : static_cast<double>(misses()) /
                                     static_cast<double>(accesses());
    }

    /// Calls f(counter) on every field (the steady-state fast-forward
    /// scales them by the skipped periods).
    template <class F>
    void for_each(F&& f) {
        f(read_hits);
        f(read_misses);
        f(write_hits);
        f(write_misses);
        f(evictions);
        f(writebacks);
    }
};

/// Outcome of one access.
struct CacheAccess {
    bool hit = false;
    bool allocated = false;           ///< a line was filled by this access
    bool dirty_eviction = false;      ///< an eviction required a writeback
    std::optional<Addr> victim_line;  ///< line address evicted, if any
};

class Cache {
public:
    Cache(CacheGeometry geometry, ReplacementPolicy replacement,
          WritePolicy write_policy, AllocPolicy alloc_policy,
          std::uint64_t rng_seed = 1);

    /// Performs a read; on miss the line is allocated (the caller charges
    /// the fill latency / bus traffic). Defined here so the hit path
    /// inlines into the per-instruction L1 lookups.
    CacheAccess read(Addr addr) {
        const std::uint64_t set = set_of(addr);
        const std::uint64_t tag = tag_of(addr);
        if (const auto way = find_way(set, tag)) {
            ++stats_.read_hits;
            touch(set, *way);
            CacheAccess result;
            result.hit = true;
            return result;
        }
        ++stats_.read_misses;
        return install(set, tag, /*dirty=*/false);
    }

    /// Performs a write. Write-through no-allocate: miss does not fill.
    /// Write-back write-allocate: miss fills and marks dirty.
    CacheAccess write(Addr addr);

    /// Hit test without touching replacement state.
    [[nodiscard]] bool probe(Addr addr) const;

    /// Monotone access counter: bumps on every replacement-state change
    /// (LRU touch, install). Callers that memoize "this line hit last
    /// time" revalidate against it — an unchanged tick proves no other
    /// line was touched or installed since, so the memoized line is
    /// still resident and still most-recently-used.
    [[nodiscard]] std::uint64_t access_tick() const noexcept {
        return tick_;
    }

    /// Fast path for re-reading the line that produced the most recent
    /// hit, guarded by access_tick(): counts the hit and skips lookup
    /// and replacement update. Exact: re-touching the MRU entry never
    /// changes the relative recency order (LRU) and re-pointing PLRU
    /// bits away from the already-protected way is idempotent, so every
    /// later victim choice is identical to the full read() path.
    void read_repeat_hit() noexcept { ++stats_.read_hits; }

    /// Drops every line (power-on state).
    void flush();

    /// Full power-on restore without reallocation: every line invalid,
    /// replacement state (LRU ticks, PLRU bits, random-victim RNG)
    /// re-seeded to construction values, statistics zeroed. After
    /// reset() the cache is bit-identical to a freshly constructed one
    /// — the property Machine::reset() needs for reused machines.
    void reset();

    /// Pre-loads a line without counting statistics (test setup / warmup).
    void warm(Addr addr);

    [[nodiscard]] const CacheStats& stats() const noexcept { return stats_; }
    void reset_stats() noexcept { stats_ = {}; }
    [[nodiscard]] const CacheGeometry& geometry() const noexcept {
        return geometry_;
    }

    /// Replay-mode statistics injection (src/replay): a replaying core
    /// skips the functional lookups and re-applies the pre-decoded
    /// outcome counts instead. Statistics only — tag/replacement state
    /// is deliberately untouched (the replaying core never reads it).
    /// The statistics, for the steady-state fast-forward's counter
    /// scaling (Machine::run_core) — the replay path's only writes.
    [[nodiscard]] CacheStats& replay_stats() noexcept { return stats_; }
    void replay_read_hits(std::uint64_t n) noexcept {
        stats_.read_hits += n;
    }
    void replay_read_miss(bool evicted) noexcept {
        ++stats_.read_misses;
        if (evicted) ++stats_.evictions;
    }
    void replay_write(bool hit) noexcept {
        if (hit) {
            ++stats_.write_hits;
        } else {
            ++stats_.write_misses;
        }
    }

    /// Canonical hash of the functional state, and nothing else: under
    /// LRU/FIFO each set's valid lines and dirty bits in order-rank
    /// order, whatever ways hold them (absolute ticks and way positions
    /// are unobservable); under PLRU and random replacement, whose
    /// victims name a way, per-way validity, tags and dirty bits plus
    /// the PLRU bits or the victim RNG state. Two caches with equal
    /// fingerprints produce identical outcome sequences for any
    /// identical future access stream. Statistics are excluded. Used by
    /// the replay decoder's loop detection (src/replay/decode.cpp).
    [[nodiscard]] std::uint64_t state_fingerprint() const;

private:
    // Structure-of-arrays line storage: the lookup path scans only the
    // packed 12-byte/line {tag, valid_gen} pair — 8-byte tags and
    // 4-byte generations in parallel arrays, so a 2048-set L2
    // partition's lookup state fits a host L1d comfortably — while
    // replacement metadata (order, dirty) lives in a separate array
    // touched only on hits-with-update and installs.
    struct LineMeta {
        std::uint64_t order = 0;  ///< LRU timestamp or FIFO insertion tick
        bool dirty = false;
    };

    /// Index into the way array of the hit line, if present.
    [[nodiscard]] std::optional<std::uint32_t> find_way(
        std::uint64_t set, std::uint64_t tag) const {
        const std::uint64_t* tags = &tags_[line_index(set, 0)];
        const std::uint32_t* gens = &valid_gen_[line_index(set, 0)];
        for (std::uint32_t w = 0; w < geometry_.ways; ++w) {
            if (gens[w] == generation_ && tags[w] == tag) return w;
        }
        return std::nullopt;
    }
    /// Tree-PLRU helpers (policy kPlru only).
    [[nodiscard]] std::uint32_t plru_victim(std::uint64_t set) const;
    void plru_touch(std::uint64_t set, std::uint32_t way);
    /// Updates replacement metadata after a hit or install.
    void touch(std::uint64_t set, std::uint32_t way);
    /// Chooses a victim way in the set according to the replacement policy.
    [[nodiscard]] std::uint32_t choose_victim(std::uint64_t set);
    /// Installs a tag into a way, returning eviction info.
    CacheAccess install(std::uint64_t set, std::uint64_t tag, bool dirty);

    [[nodiscard]] std::size_t line_index(std::uint64_t set,
                                         std::uint32_t way) const noexcept {
        return set * geometry_.ways + way;
    }

    // Shift/mask forms of the geometry's line/set/tag arithmetic,
    // precomputed once (line_bytes and num_sets are validated powers of
    // two). The access path runs these per simulated instruction; the
    // generic division forms in CacheGeometry cost a hardware divide
    // each.
    [[nodiscard]] std::uint64_t line_of(Addr addr) const noexcept {
        return addr >> line_shift_;
    }
    [[nodiscard]] std::uint64_t set_of(Addr addr) const noexcept {
        return line_of(addr) & set_mask_;
    }
    [[nodiscard]] std::uint64_t tag_of(Addr addr) const noexcept {
        return line_of(addr) >> set_shift_;
    }

    CacheGeometry geometry_;
    std::uint32_t line_shift_ = 0;  ///< log2(line_bytes)
    std::uint32_t set_shift_ = 0;   ///< log2(num_sets)
    std::uint64_t set_mask_ = 0;    ///< num_sets - 1
    /// Lines with valid_gen_ == this are live. flush() bumps the
    /// generation instead of touching every line, making the per-run
    /// cache invalidation of reused machines O(1); on the (rare) u32
    /// wrap the array is cleared in full so stale generations can never
    /// alias back to validity.
    std::uint32_t generation_ = 1;
    ReplacementPolicy replacement_;
    WritePolicy write_policy_;
    AllocPolicy alloc_policy_;
    std::vector<std::uint64_t> tags_;
    std::vector<std::uint32_t> valid_gen_;
    std::vector<LineMeta> meta_;
    std::vector<std::uint32_t> plru_bits_;  ///< one tree per set (kPlru)
    std::uint64_t tick_ = 0;  ///< monotonically increasing access counter
    std::uint64_t rng_seed_;  ///< construction seed, for reset()
    Pcg32 rng_;
    CacheStats stats_;
};

}  // namespace rrb
