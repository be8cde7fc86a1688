#include "cache/partitioned_cache.h"

#include "sim/contract.h"

namespace rrb {

Cache WayPartitionedCache::make_partition(const CacheGeometry& geometry,
                                          CoreId core) {
    return Cache(geometry, kReplacement, kWritePolicy, kAllocPolicy,
                 1 + core);  // the victim RNG's seed
}

WayPartitionedCache::WayPartitionedCache(CacheGeometry full,
                                         CoreId num_cores) {
    RRB_REQUIRE(num_cores >= 1, "need at least one core");
    full.validate();
    RRB_REQUIRE(full.ways % num_cores == 0,
                "ways must divide evenly across cores");
    const std::uint32_t ways_pc = full.ways / num_cores;

    // Same set count as the full cache, fewer ways.
    partition_geometry_ = full;
    partition_geometry_.ways = ways_pc;
    partition_geometry_.size_bytes =
        full.num_sets() * static_cast<std::uint64_t>(ways_pc) *
        full.line_bytes;
    partition_geometry_.validate();
    RRB_ENSURE(partition_geometry_.num_sets() == full.num_sets());

    partitions_.reserve(num_cores);
    for (CoreId c = 0; c < num_cores; ++c) {
        partitions_.push_back(make_partition(partition_geometry_, c));
    }
}

CacheAccess WayPartitionedCache::read(CoreId core, Addr addr) {
    RRB_REQUIRE(core < partitions_.size(), "core id out of range");
    return partitions_[core].read(addr);
}

CacheAccess WayPartitionedCache::write(CoreId core, Addr addr) {
    RRB_REQUIRE(core < partitions_.size(), "core id out of range");
    return partitions_[core].write(addr);
}

bool WayPartitionedCache::probe(CoreId core, Addr addr) const {
    RRB_REQUIRE(core < partitions_.size(), "core id out of range");
    return partitions_[core].probe(addr);
}

Cache& WayPartitionedCache::partition(CoreId core) {
    RRB_REQUIRE(core < partitions_.size(), "core id out of range");
    return partitions_[core];
}

void WayPartitionedCache::flush() {
    for (Cache& p : partitions_) p.flush();
}

void WayPartitionedCache::reset() {
    for (Cache& p : partitions_) p.reset();
}

const CacheStats& WayPartitionedCache::stats(CoreId core) const {
    RRB_REQUIRE(core < partitions_.size(), "core id out of range");
    return partitions_[core].stats();
}

CacheStats WayPartitionedCache::total_stats() const {
    CacheStats total;
    for (const Cache& p : partitions_) {
        const CacheStats& s = p.stats();
        total.read_hits += s.read_hits;
        total.read_misses += s.read_misses;
        total.write_hits += s.write_hits;
        total.write_misses += s.write_misses;
        total.evictions += s.evictions;
        total.writebacks += s.writebacks;
    }
    return total;
}

}  // namespace rrb
