#include "cache/partitioned_cache.h"

#include <gtest/gtest.h>

namespace rrb {
namespace {

WayPartitionedCache make_l2(CoreId cores = 4) {
    // The paper's L2: 256KB, 4-way, 32B lines, one way per core.
    return WayPartitionedCache({256 * 1024, 4, 32}, cores);
}

TEST(WayPartitionedCache, PartitionGeometryKeepsSets) {
    WayPartitionedCache l2 = make_l2();
    EXPECT_EQ(l2.ways_per_core(), 1u);
    EXPECT_EQ(l2.partition_geometry().num_sets(), 2048u);
    EXPECT_EQ(l2.partition_geometry().size_bytes, 64u * 1024u);
}

TEST(WayPartitionedCache, RejectsUnevenSplit) {
    EXPECT_THROW(WayPartitionedCache({256 * 1024, 4, 32}, 3),
                 std::invalid_argument);
}

TEST(WayPartitionedCache, NoCrossCoreInterference) {
    // "Contention only happens on the bus and the memory controller":
    // core 1 thrashing a set must not evict core 0's line.
    WayPartitionedCache l2 = make_l2();
    const Addr line = 0x1000;
    l2.read(0, line);
    EXPECT_TRUE(l2.probe(0, line));
    const std::uint64_t stride = l2.partition_geometry().set_stride();
    for (int i = 0; i < 64; ++i) {
        l2.read(1, line + static_cast<Addr>(i) * stride);
    }
    EXPECT_TRUE(l2.probe(0, line));
    EXPECT_FALSE(l2.probe(1, line + 63 * stride - stride * 4));
}

TEST(WayPartitionedCache, PerCoreStatsIndependent) {
    WayPartitionedCache l2 = make_l2();
    l2.read(0, 0x0);
    l2.read(0, 0x0);
    l2.read(2, 0x0);
    EXPECT_EQ(l2.stats(0).read_hits, 1u);
    EXPECT_EQ(l2.stats(0).read_misses, 1u);
    EXPECT_EQ(l2.stats(2).read_misses, 1u);
    EXPECT_EQ(l2.stats(1).accesses(), 0u);
    EXPECT_EQ(l2.total_stats().accesses(), 3u);
}

TEST(WayPartitionedCache, RskAddressesAlwaysHitL2Partition) {
    // The rsk's W+1 addresses, one DL1 set-stride (4KB) apart, must all
    // coexist in a core's 64KB direct-mapped L2 partition — the kernel is
    // designed to "miss in DL1 and hit in L2".
    WayPartitionedCache l2 = make_l2();
    const CacheGeometry dl1{16 * 1024, 4, 32};
    for (std::uint32_t i = 0; i <= dl1.ways; ++i) {
        l2.read(0, i * dl1.set_stride());  // cold fills
    }
    for (int round = 0; round < 10; ++round) {
        for (std::uint32_t i = 0; i <= dl1.ways; ++i) {
            EXPECT_TRUE(l2.read(0, i * dl1.set_stride()).hit);
        }
    }
}

TEST(WayPartitionedCache, WriteGoesToOwnPartition) {
    WayPartitionedCache l2 = make_l2();
    l2.write(3, 0x2000);
    EXPECT_TRUE(l2.probe(3, 0x2000));
    EXPECT_FALSE(l2.probe(0, 0x2000));
}

TEST(WayPartitionedCache, CoreIdBoundsChecked) {
    WayPartitionedCache l2 = make_l2();
    EXPECT_THROW(l2.read(4, 0x0), std::invalid_argument);
    EXPECT_THROW((void)l2.stats(7), std::invalid_argument);
}

TEST(WayPartitionedCache, TwoCoreSplitGetsTwoWays) {
    WayPartitionedCache l2 = make_l2(2);
    EXPECT_EQ(l2.ways_per_core(), 2u);
    const std::uint64_t stride = l2.partition_geometry().set_stride();
    // Two lines in the same set coexist (2 ways)...
    l2.read(0, 0x0);
    l2.read(0, stride);
    EXPECT_TRUE(l2.probe(0, 0x0));
    EXPECT_TRUE(l2.probe(0, stride));
    // ...a third evicts the LRU.
    l2.read(0, 2 * stride);
    EXPECT_FALSE(l2.probe(0, 0x0));
}

}  // namespace
}  // namespace rrb
