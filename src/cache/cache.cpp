#include "cache/cache.h"

#include <algorithm>
#include <bit>

#include "sim/contract.h"
#include "sim/fnv.h"

namespace rrb {

namespace {

bool is_pow2(std::uint64_t x) { return x != 0 && (x & (x - 1)) == 0; }

}  // namespace

void CacheGeometry::validate() const {
    RRB_REQUIRE(line_bytes >= 4 && is_pow2(line_bytes),
                "line size must be a power of two >= 4");
    RRB_REQUIRE(ways >= 1, "at least one way");
    RRB_REQUIRE(size_bytes >= static_cast<std::uint64_t>(ways) * line_bytes,
                "cache must hold at least one line per way");
    RRB_REQUIRE(size_bytes % (static_cast<std::uint64_t>(ways) * line_bytes) ==
                    0,
                "size must be a multiple of ways*line");
    RRB_REQUIRE(is_pow2(num_sets()), "number of sets must be a power of two");
}

Cache::Cache(CacheGeometry geometry, ReplacementPolicy replacement,
             WritePolicy write_policy, AllocPolicy alloc_policy,
             std::uint64_t rng_seed)
    : geometry_(geometry),
      replacement_(replacement),
      write_policy_(write_policy),
      alloc_policy_(alloc_policy),
      rng_seed_(rng_seed),
      rng_(rng_seed) {
    geometry_.validate();
    line_shift_ = static_cast<std::uint32_t>(
        std::countr_zero(static_cast<std::uint64_t>(geometry_.line_bytes)));
    set_shift_ = static_cast<std::uint32_t>(
        std::countr_zero(geometry_.num_sets()));
    set_mask_ = geometry_.num_sets() - 1;
    tags_.resize(geometry_.num_sets() * geometry_.ways);
    valid_gen_.resize(geometry_.num_sets() * geometry_.ways);
    meta_.resize(geometry_.num_sets() * geometry_.ways);
    if (replacement_ == ReplacementPolicy::kPlru) {
        RRB_REQUIRE(is_pow2(geometry_.ways) && geometry_.ways <= 32,
                    "tree-PLRU needs a power-of-two way count <= 32");
        plru_bits_.assign(geometry_.num_sets(), 0);
    }
}

std::uint32_t Cache::plru_victim(std::uint64_t set) const {
    const std::uint32_t bits = plru_bits_[set];
    std::uint32_t node = 0;
    std::uint32_t lo = 0;
    std::uint32_t size = geometry_.ways;
    while (size > 1) {
        const bool go_right = (bits >> node) & 1u;
        size /= 2;
        if (go_right) {
            lo += size;
            node = 2 * node + 2;
        } else {
            node = 2 * node + 1;
        }
    }
    return lo;
}

void Cache::plru_touch(std::uint64_t set, std::uint32_t way) {
    std::uint32_t& bits = plru_bits_[set];
    std::uint32_t node = 0;
    std::uint32_t lo = 0;
    std::uint32_t size = geometry_.ways;
    while (size > 1) {
        size /= 2;
        const bool in_right = way >= lo + size;
        if (in_right) {
            bits &= ~(1u << node);  // point the victim path left
            lo += size;
            node = 2 * node + 2;
        } else {
            bits |= (1u << node);  // point the victim path right
            node = 2 * node + 1;
        }
    }
}

void Cache::touch(std::uint64_t set, std::uint32_t way) {
    switch (replacement_) {
        case ReplacementPolicy::kLru:
            meta_[line_index(set, way)].order = ++tick_;
            break;
        case ReplacementPolicy::kPlru:
            plru_touch(set, way);
            break;
        case ReplacementPolicy::kFifo:
        case ReplacementPolicy::kRandom:
            break;  // hits do not update state
    }
}

std::uint32_t Cache::choose_victim(std::uint64_t set) {
    // Prefer an invalid way.
    const std::uint32_t* gens = &valid_gen_[line_index(set, 0)];
    for (std::uint32_t w = 0; w < geometry_.ways; ++w) {
        if (gens[w] != generation_) return w;
    }
    switch (replacement_) {
        case ReplacementPolicy::kLru:
        case ReplacementPolicy::kFifo: {
            // Smallest order = least recently used / first inserted.
            const LineMeta* metas = &meta_[line_index(set, 0)];
            std::uint32_t victim = 0;
            for (std::uint32_t w = 1; w < geometry_.ways; ++w) {
                if (metas[w].order < metas[victim].order) victim = w;
            }
            return victim;
        }
        case ReplacementPolicy::kRandom:
            return rng_.next_below(geometry_.ways);
        case ReplacementPolicy::kPlru:
            return plru_victim(set);
    }
    RRB_ENSURE(false);
}

CacheAccess Cache::install(std::uint64_t set, std::uint64_t tag, bool dirty) {
    CacheAccess result;
    const std::uint32_t way = choose_victim(set);
    const std::size_t idx = line_index(set, way);
    LineMeta& m = meta_[idx];
    if (valid_gen_[idx] == generation_) {
        ++stats_.evictions;
        result.victim_line = (tags_[idx] << set_shift_) + set;
        if (m.dirty) {
            ++stats_.writebacks;
            result.dirty_eviction = true;
        }
    }
    valid_gen_[idx] = generation_;
    tags_[idx] = tag;
    m.dirty = dirty;
    m.order = ++tick_;
    if (replacement_ == ReplacementPolicy::kPlru) plru_touch(set, way);
    result.allocated = true;
    return result;
}

CacheAccess Cache::write(Addr addr) {
    const std::uint64_t set = set_of(addr);
    const std::uint64_t tag = tag_of(addr);
    if (const auto way = find_way(set, tag)) {
        ++stats_.write_hits;
        touch(set, *way);
        if (write_policy_ == WritePolicy::kWriteBack) {
            meta_[line_index(set, *way)].dirty = true;
        }
        CacheAccess result;
        result.hit = true;
        return result;
    }
    ++stats_.write_misses;
    if (alloc_policy_ == AllocPolicy::kNoWriteAllocate) {
        // Miss without fill: the write is forwarded downstream unmodified.
        return {};
    }
    CacheAccess result =
        install(set, tag, write_policy_ == WritePolicy::kWriteBack);
    result.hit = false;
    return result;
}

bool Cache::probe(Addr addr) const {
    return find_way(set_of(addr), tag_of(addr)).has_value();
}

void Cache::flush() {
    // O(1): lines written under older generations become invalid, and
    // choose_victim prefers invalid ways, so stale order/tag values can
    // never influence a future access. PLRU trees carry no validity and
    // are cleared in place.
    ++generation_;
    if (generation_ == 0) {
        // 32-bit generation wrap: clear the array once so a line last
        // written four billion flushes ago cannot alias back to valid.
        std::fill(valid_gen_.begin(), valid_gen_.end(), 0u);
        generation_ = 1;
    }
    // A flush is a replacement-state change: advancing the access tick
    // invalidates any read_repeat_hit memo a caller holds.
    ++tick_;
    if (replacement_ == ReplacementPolicy::kPlru) {
        std::fill(plru_bits_.begin(), plru_bits_.end(), 0);
    }
}

void Cache::reset() {
    flush();
    // tick_ stays monotone across resets: victim choice only ever
    // compares orders of lines installed under the current generation,
    // so the absolute counter value is unobservable — and monotonicity
    // keeps stale read_repeat_hit memos detectable forever.
    rng_ = Pcg32(rng_seed_);
    stats_ = {};
}

std::uint64_t Cache::state_fingerprint() const {
    // Word-at-a-time: the replay decoder fingerprints both L1 replicas
    // and the L2 partition replica at every body wrap.
    WordHash h;
    const std::uint32_t ways = geometry_.ways;
    if (replacement_ == ReplacementPolicy::kLru ||
        replacement_ == ReplacementPolicy::kFifo) {
        // Which way holds a line is unobservable here: a hit finds it by
        // tag, a fill takes an invalid way or the smallest order, and
        // either outcome names the line, not the way. So each set's
        // valid lines are hashed in order rank (orders are unique
        // ticks), one word each: the line number, which names the set,
        // and the dirty bit. Sets come in index order, so the words also
        // tell how many lines each set holds. The scan skips invalid
        // lines one compare each: the replicas are mostly empty.
        for (std::size_t idx = 0; idx < valid_gen_.size(); ++idx) {
            if (valid_gen_[idx] != generation_) continue;
            // idx is its set's first valid way.
            const std::size_t end = idx - idx % ways + ways;
            const std::uint64_t set = idx / ways;
            const auto next_after = [&](std::uint64_t after) {
                std::size_t next = end;
                for (std::size_t w = idx; w < end; ++w) {
                    if (valid_gen_[w] == generation_ &&
                        meta_[w].order > after &&
                        (next == end || meta_[w].order < meta_[next].order)) {
                        next = w;
                    }
                }
                return next;
            };
            for (std::size_t w = next_after(0); w != end;
                 w = next_after(meta_[w].order)) {
                const std::uint64_t line = tags_[w] << set_shift_ | set;
                h.u64(line << 1 | (meta_[w].dirty ? 1 : 0));
            }
            idx = end - 1;
        }
        return h.value();
    }
    // PLRU and random victims name a way, so lines are hashed in way
    // order: valid lines only, each after the count of invalid lines
    // before it — the replicas the decoder fingerprints are mostly
    // empty, so the scan is what costs.
    std::size_t next = 0;  // first line not yet accounted for
    for (std::size_t idx = 0; idx < valid_gen_.size(); ++idx) {
        if (valid_gen_[idx] != generation_) continue;
        // The gap fits 32 bits (no cache has 2^32 lines).
        h.u64((idx - next) << 32 | (meta_[idx].dirty ? 1 : 0));
        h.u64(tags_[idx]);
        next = idx + 1;
    }
    h.u64(valid_gen_.size() - next);
    if (replacement_ == ReplacementPolicy::kPlru) {
        for (const std::uint32_t bits : plru_bits_) h.u64(bits);
    }
    if (replacement_ == ReplacementPolicy::kRandom) {
        h.u64(rng_.state());
        h.u64(rng_.stream_inc());
    }
    return h.value();
}

void Cache::warm(Addr addr) {
    const std::uint64_t set = set_of(addr);
    const std::uint64_t tag = tag_of(addr);
    if (find_way(set, tag)) return;
    // Install without statistics: remember, restore.
    const CacheStats saved = stats_;
    install(set, tag, /*dirty=*/false);
    stats_ = saved;
}

}  // namespace rrb
