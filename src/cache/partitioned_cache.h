// Way-partitioned shared cache, NGMP style.
//
// The paper's setup: "The shared second level (L2) cache is split among
// cores with each core receiving one way of the 256KB 4-way L2. Hence,
// contention only happens on the bus and the memory controller."
//
// Way partitioning keeps the set count of the full cache but gives each
// core a private slice of the ways, so per-core behaviour is that of a
// smaller cache with the same sets and `ways_per_core` ways, and no
// cross-core eviction interference is possible by construction.
#pragma once

#include <cstdint>
#include <vector>

#include "cache/cache.h"
#include "sim/types.h"

namespace rrb {

class WayPartitionedCache {
public:
    /// Every partition's policies.
    static constexpr ReplacementPolicy kReplacement = ReplacementPolicy::kLru;
    static constexpr WritePolicy kWritePolicy = WritePolicy::kWriteBack;
    static constexpr AllocPolicy kAllocPolicy = AllocPolicy::kWriteAllocate;

    /// Core `core`'s partition at power-on, of partition geometry
    /// `geometry`: how the cache builds each partition, and how the replay
    /// decoder builds its replica of one — the two cannot drift apart.
    [[nodiscard]] static Cache make_partition(const CacheGeometry& geometry,
                                              CoreId core);

    /// Builds per-core partitions from the full geometry. Requires that
    /// `full.ways` is divisible by the number of cores.
    WayPartitionedCache(CacheGeometry full, CoreId num_cores);

    CacheAccess read(CoreId core, Addr addr);
    CacheAccess write(CoreId core, Addr addr);
    [[nodiscard]] bool probe(CoreId core, Addr addr) const;
    /// Core `core`'s partition (warm-up support: Cache::warm).
    [[nodiscard]] Cache& partition(CoreId core);
    void flush();
    /// Power-on restore of every partition (see Cache::reset).
    void reset();

    [[nodiscard]] const CacheStats& stats(CoreId core) const;
    [[nodiscard]] CacheStats total_stats() const;

    [[nodiscard]] CoreId num_cores() const noexcept {
        return static_cast<CoreId>(partitions_.size());
    }
    [[nodiscard]] const CacheGeometry& partition_geometry() const noexcept {
        return partition_geometry_;
    }
    [[nodiscard]] std::uint32_t ways_per_core() const noexcept {
        return partition_geometry_.ways;
    }
    /// Statistics-only injection for replay mode (Cache::replay_*): the
    /// replaying core re-applies the baked outcome of one partition read
    /// without touching tag/replacement state — which it never consults.
    /// Core `core`'s partition statistics, for the steady-state
    /// fast-forward's counter scaling (see Cache::replay_stats).
    [[nodiscard]] CacheStats& replay_stats(CoreId core) noexcept {
        return partitions_[core].replay_stats();
    }
    void replay_read(CoreId core, bool hit, bool evicted) noexcept {
        Cache& p = partitions_[core];
        if (hit) {
            p.replay_read_hits(1);
        } else {
            p.replay_read_miss(evicted);
        }
    }

private:
    CacheGeometry partition_geometry_;
    std::vector<Cache> partitions_;
};

}  // namespace rrb
