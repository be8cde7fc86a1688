#include "cache/cache.h"

#include <gtest/gtest.h>

namespace rrb {
namespace {

CacheGeometry small_geo() { return {1024, 2, 32}; }  // 16 sets, 2 ways

Cache make_lru(WritePolicy wp = WritePolicy::kWriteBack,
               AllocPolicy ap = AllocPolicy::kWriteAllocate) {
    return Cache(small_geo(), ReplacementPolicy::kLru, wp, ap);
}

TEST(CacheGeometry, DerivedQuantities) {
    const CacheGeometry g{16 * 1024, 4, 32};
    EXPECT_EQ(g.num_sets(), 128u);
    EXPECT_EQ(g.set_stride(), 4096u);
    EXPECT_EQ(g.set_of(0), g.set_of(4096));
    EXPECT_NE(g.tag_of(0), g.tag_of(4096));
    EXPECT_EQ(g.set_of(32), 1u);
}

TEST(CacheGeometry, ValidationRejectsBadShapes) {
    EXPECT_THROW((CacheGeometry{100, 4, 32}.validate()),
                 std::invalid_argument);
    EXPECT_THROW((CacheGeometry{1024, 0, 32}.validate()),
                 std::invalid_argument);
    EXPECT_THROW((CacheGeometry{1024, 2, 24}.validate()),
                 std::invalid_argument);
    EXPECT_NO_THROW((CacheGeometry{1024, 2, 32}.validate()));
}

TEST(Cache, ColdMissThenHit) {
    Cache c = make_lru();
    EXPECT_FALSE(c.read(0x100).hit);
    EXPECT_TRUE(c.read(0x100).hit);
    EXPECT_TRUE(c.read(0x110).hit);  // same line
    EXPECT_EQ(c.stats().read_misses, 1u);
    EXPECT_EQ(c.stats().read_hits, 2u);
}

TEST(Cache, LruEvictsLeastRecentlyUsed) {
    Cache c = make_lru();
    const Addr a = 0x0;
    const Addr b = a + small_geo().set_stride();
    const Addr d = a + 2 * small_geo().set_stride();  // same set, 3rd line
    c.read(a);
    c.read(b);
    c.read(a);   // a is now MRU
    c.read(d);   // evicts b
    EXPECT_TRUE(c.probe(a));
    EXPECT_FALSE(c.probe(b));
    EXPECT_TRUE(c.probe(d));
}

TEST(Cache, FifoEvictsFirstInserted) {
    Cache c(small_geo(), ReplacementPolicy::kFifo, WritePolicy::kWriteBack,
            AllocPolicy::kWriteAllocate);
    const Addr a = 0x0;
    const Addr b = a + small_geo().set_stride();
    const Addr d = a + 2 * small_geo().set_stride();
    c.read(a);
    c.read(b);
    c.read(a);   // touching a does NOT refresh FIFO order
    c.read(d);   // evicts a (first inserted)
    EXPECT_FALSE(c.probe(a));
    EXPECT_TRUE(c.probe(b));
    EXPECT_TRUE(c.probe(d));
}

TEST(Cache, WPlusOneSameSetAlwaysMissesUnderLru) {
    // The rsk construction (Figure 1): W+1 lines in one W-way set with LRU
    // miss on every access once warm.
    const CacheGeometry g{16 * 1024, 4, 32};
    Cache c(g, ReplacementPolicy::kLru, WritePolicy::kWriteThrough,
            AllocPolicy::kNoWriteAllocate);
    const std::uint32_t w = g.ways;
    for (int round = 0; round < 10; ++round) {
        for (std::uint32_t i = 0; i <= w; ++i) {
            c.read(i * g.set_stride());
        }
    }
    EXPECT_EQ(c.stats().read_hits, 0u);
    EXPECT_EQ(c.stats().read_misses, 10u * (w + 1));
}

TEST(Cache, WSameSetLinesAllHitAfterWarmup) {
    const CacheGeometry g{16 * 1024, 4, 32};
    Cache c(g, ReplacementPolicy::kLru, WritePolicy::kWriteThrough,
            AllocPolicy::kNoWriteAllocate);
    const std::uint32_t w = g.ways;
    for (std::uint32_t i = 0; i < w; ++i) c.read(i * g.set_stride());
    c.reset_stats();
    for (int round = 0; round < 5; ++round) {
        for (std::uint32_t i = 0; i < w; ++i) c.read(i * g.set_stride());
    }
    EXPECT_EQ(c.stats().read_misses, 0u);
}

TEST(Cache, WriteThroughNoAllocateMissDoesNotFill) {
    Cache c = make_lru(WritePolicy::kWriteThrough,
                       AllocPolicy::kNoWriteAllocate);
    EXPECT_FALSE(c.write(0x200).hit);
    EXPECT_FALSE(c.probe(0x200));
    EXPECT_EQ(c.stats().write_misses, 1u);
}

TEST(Cache, WriteThroughHitUpdatesWithoutDirty) {
    Cache c = make_lru(WritePolicy::kWriteThrough,
                       AllocPolicy::kNoWriteAllocate);
    c.read(0x200);
    EXPECT_TRUE(c.write(0x200).hit);
    // Evicting the line must not produce a writeback under write-through.
    const Addr b = 0x200 + small_geo().set_stride();
    const Addr d = 0x200 + 2 * small_geo().set_stride();
    c.read(b);
    c.read(d);
    EXPECT_EQ(c.stats().writebacks, 0u);
}

TEST(Cache, WriteBackAllocatesAndWritesBackDirty) {
    Cache c = make_lru(WritePolicy::kWriteBack, AllocPolicy::kWriteAllocate);
    c.write(0x0);  // miss, allocate dirty
    EXPECT_TRUE(c.probe(0x0));
    const Addr b = small_geo().set_stride();
    const Addr d = 2 * small_geo().set_stride();
    c.read(b);
    const CacheAccess third = c.read(d);  // evicts dirty 0x0
    EXPECT_TRUE(third.dirty_eviction);
    EXPECT_EQ(c.stats().writebacks, 1u);
    ASSERT_TRUE(third.victim_line.has_value());
    EXPECT_EQ(*third.victim_line * small_geo().line_bytes, 0x0u);
}

TEST(Cache, ProbeDoesNotTouchLruState) {
    Cache c = make_lru();
    const Addr a = 0x0;
    const Addr b = small_geo().set_stride();
    const Addr d = 2 * small_geo().set_stride();
    c.read(a);
    c.read(b);
    (void)c.probe(a);  // must NOT make a MRU
    c.read(d);   // evicts a (still LRU)
    EXPECT_FALSE(c.probe(a));
}

TEST(Cache, FlushEmptiesEverything) {
    Cache c = make_lru();
    c.read(0x0);
    c.read(0x40);
    c.flush();
    EXPECT_FALSE(c.probe(0x0));
    EXPECT_FALSE(c.probe(0x40));
}

TEST(Cache, WarmInstallsWithoutStats) {
    Cache c = make_lru();
    c.warm(0x80);
    EXPECT_TRUE(c.probe(0x80));
    EXPECT_EQ(c.stats().accesses(), 0u);
    EXPECT_TRUE(c.read(0x80).hit);
}

TEST(Cache, RandomReplacementStaysWithinSet) {
    const CacheGeometry g{1024, 2, 32};
    Cache c(g, ReplacementPolicy::kRandom, WritePolicy::kWriteBack,
            AllocPolicy::kWriteAllocate, 42);
    // Fill one set beyond capacity repeatedly; all other sets untouched.
    for (int i = 0; i < 100; ++i) {
        c.read((static_cast<Addr>(i) % 5) * g.set_stride());
    }
    // Lines in other sets must be absent.
    EXPECT_FALSE(c.probe(32));
}

TEST(Cache, FingerprintIgnoresWayPlacementOnlyUnderLruAndFifo) {
    // Lines a..d of one set, read in that order (after a dirty line in
    // another set): `placed` fills ways 0-3 with them. `rotated` first
    // fills way 0 with e, so d later evicts e — the oldest under LRU and
    // FIFO, and tree-PLRU's victim too after four fills in way order —
    // and the same lines in the same order sit one way on. Under LRU and
    // FIFO, whose victims follow the order alone, the two fingerprint
    // alike, while another order (`swapped`: b before a) still tells.
    // Under PLRU and random replacement, whose victims name a way, the
    // same lines in other ways must not fingerprint alike: `swapped`
    // (b in way 0, a in way 1, every fill into an invalid way, so no
    // PLRU bit or RNG draw differs) and, under PLRU, `rotated`.
    const CacheGeometry geo{16 * 1024, 4, 32};
    const Addr stride = geo.set_stride();
    const Addr a = 0x0;
    const Addr b = a + stride;
    const Addr c = a + 2 * stride;
    const Addr d = a + 3 * stride;
    const Addr e = a + 4 * stride;
    const auto run = [&](ReplacementPolicy policy,
                         std::initializer_list<Addr> reads) {
        Cache cache(geo, policy, WritePolicy::kWriteBack,
                    AllocPolicy::kWriteAllocate, 7);
        cache.write(0x20);
        for (const Addr addr : reads) cache.read(addr);
        return cache;
    };
    for (const ReplacementPolicy policy :
         {ReplacementPolicy::kLru, ReplacementPolicy::kFifo,
          ReplacementPolicy::kPlru, ReplacementPolicy::kRandom}) {
        const bool by_order = policy == ReplacementPolicy::kLru ||
                              policy == ReplacementPolicy::kFifo;
        const Cache placed = run(policy, {a, b, c, d});
        const Cache swapped = run(policy, {b, a, c, d});
        EXPECT_NE(placed.state_fingerprint(), swapped.state_fingerprint())
            << int(policy);
        if (policy == ReplacementPolicy::kRandom) continue;
        const Cache rotated = run(policy, {e, a, b, c, d});
        ASSERT_FALSE(rotated.probe(e)) << int(policy);
        EXPECT_EQ(placed.state_fingerprint() == rotated.state_fingerprint(),
                  by_order)
            << int(policy);
    }
}

TEST(Cache, MissRatio) {
    Cache c = make_lru();
    c.read(0x0);
    c.read(0x0);
    c.read(0x0);
    c.read(0x0);
    EXPECT_DOUBLE_EQ(c.stats().miss_ratio(), 0.25);
}

}  // namespace
}  // namespace rrb
