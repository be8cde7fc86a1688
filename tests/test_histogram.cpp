#include "stats/histogram.h"

#include <gtest/gtest.h>

#include "sim/rng.h"

namespace rrb {
namespace {

TEST(Histogram, EmptyBasics) {
    Histogram h;
    EXPECT_TRUE(h.empty());
    EXPECT_EQ(h.total(), 0u);
    EXPECT_EQ(h.count(3), 0u);
    EXPECT_DOUBLE_EQ(h.fraction(3), 0.0);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    EXPECT_THROW((void)h.min(), std::invalid_argument);
    EXPECT_THROW((void)h.max(), std::invalid_argument);
    EXPECT_THROW((void)h.mode(), std::invalid_argument);
}

TEST(Histogram, AddAndCount) {
    Histogram h;
    h.add(5);
    h.add(5);
    h.add(7, 3);
    EXPECT_EQ(h.total(), 5u);
    EXPECT_EQ(h.count(5), 2u);
    EXPECT_EQ(h.count(7), 3u);
    EXPECT_EQ(h.count(6), 0u);
}

TEST(Histogram, AddZeroCountIsNoop) {
    Histogram h;
    h.add(5, 0);
    EXPECT_TRUE(h.empty());
}

TEST(Histogram, MinMaxMeanMode) {
    Histogram h;
    h.add(1, 1);
    h.add(2, 5);
    h.add(10, 2);
    EXPECT_EQ(h.min(), 1u);
    EXPECT_EQ(h.max(), 10u);
    EXPECT_EQ(h.mode(), 2u);
    EXPECT_DOUBLE_EQ(h.mean(), (1.0 + 10.0 + 20.0) / 8.0);
    EXPECT_DOUBLE_EQ(h.mode_fraction(), 5.0 / 8.0);
}

TEST(Histogram, ModeTieBreaksToSmallestValue) {
    Histogram h;
    h.add(4, 3);
    h.add(9, 3);
    EXPECT_EQ(h.mode(), 4u);
}

TEST(Histogram, Fraction) {
    Histogram h;
    h.add(0, 98);
    h.add(1, 2);
    EXPECT_DOUBLE_EQ(h.fraction(0), 0.98);
    EXPECT_DOUBLE_EQ(h.fraction(1), 0.02);
}

TEST(Histogram, QuantileNearestRank) {
    Histogram h;
    for (std::uint64_t v = 1; v <= 10; ++v) h.add(v);
    EXPECT_EQ(h.quantile(0.0), 1u);
    EXPECT_EQ(h.quantile(0.1), 1u);
    EXPECT_EQ(h.quantile(0.5), 5u);
    EXPECT_EQ(h.quantile(1.0), 10u);
}

TEST(Histogram, QuantileRejectsOutOfRange) {
    Histogram h;
    h.add(1);
    EXPECT_THROW((void)h.quantile(-0.1), std::invalid_argument);
    EXPECT_THROW((void)h.quantile(1.1), std::invalid_argument);
}

TEST(Histogram, BucketsSortedByValue) {
    Histogram h;
    h.add(9);
    h.add(2);
    h.add(5);
    const auto buckets = h.buckets();
    ASSERT_EQ(buckets.size(), 3u);
    EXPECT_EQ(buckets[0].first, 2u);
    EXPECT_EQ(buckets[1].first, 5u);
    EXPECT_EQ(buckets[2].first, 9u);
}

TEST(Histogram, Merge) {
    Histogram a;
    a.add(1, 2);
    a.add(3, 1);
    Histogram b;
    b.add(3, 4);
    b.add(7, 1);
    a.merge(b);
    EXPECT_EQ(a.total(), 8u);
    EXPECT_EQ(a.count(3), 5u);
    EXPECT_EQ(a.count(7), 1u);
}

TEST(ObservationLog, EqualPairsCoalesceAndReplayTheirCounts) {
    // Far more observations than entries, on a few (histogram, value)
    // pairs: the full log merges equal pairs instead of overflowing, and
    // replay adds each pair count × times — the histograms then hold
    // 1 + times copies of what was observed.
    Histogram a;
    Histogram b;
    ObservationLog log;
    for (std::uint64_t i = 0; i < 5'000; ++i) {
        observe(a, i % 7, &log);
        if (i % 3 == 0) observe(b, 4'000 + i % 2, &log);
    }
    ASSERT_FALSE(log.overflowed());
    const Histogram a_once = a;
    const Histogram b_once = b;
    log.replay(4);
    EXPECT_EQ(a.total(), 5 * a_once.total());
    EXPECT_EQ(b.total(), 5 * b_once.total());
    for (const auto& [value, count] : a_once.buckets()) {
        EXPECT_EQ(a.count(value), 5 * count) << value;
    }
    for (const auto& [value, count] : b_once.buckets()) {
        EXPECT_EQ(b.count(value), 5 * count) << value;
    }

    // clear() forgets the period: nothing more to replay.
    log.clear();
    log.replay(9);
    EXPECT_EQ(a.total(), 5 * a_once.total());
}

TEST(ObservationLog, TheFirstPairPastCapacityOverflows) {
    Histogram h;
    ObservationLog log;
    for (std::uint64_t v = 0; v < ObservationLog::kCapacity; ++v) {
        observe(h, v, &log);
    }
    // A full log of distinct pairs still counts a repeated pair.
    observe(h, 7, &log);
    ASSERT_FALSE(log.overflowed());
    log.replay(2);
    EXPECT_EQ(h.count(7), 6u);
    EXPECT_EQ(h.count(0), 3u);

    observe(h, ObservationLog::kCapacity, &log);  // the 257th pair
    EXPECT_TRUE(log.overflowed());
    log.clear();
    EXPECT_FALSE(log.overflowed());

    // A value beyond 32 bits cannot be logged either.
    observe(h, std::uint64_t{1} << 32, &log);
    EXPECT_TRUE(log.overflowed());
}

/// Random histogram over a small value domain so merges collide often.
Histogram random_histogram(std::uint64_t seed, std::size_t entries) {
    Pcg32 rng(seed);
    Histogram h;
    for (std::size_t i = 0; i < entries; ++i) {
        h.add(rng.next_below(16), 1 + rng.next_below(5));
    }
    return h;
}

TEST(HistogramMergeProperties, Associativity) {
    // Counts are exact integers, so the shard-merge law holds bitwise:
    // (a + b) + c == a + (b + c) for any shard split.
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
        const Histogram a = random_histogram(3 * seed + 0, 20);
        const Histogram b = random_histogram(3 * seed + 1, 15);
        const Histogram c = random_histogram(3 * seed + 2, 25);
        Histogram left = a;
        left.merge(b);
        left.merge(c);
        Histogram bc = b;
        bc.merge(c);
        Histogram right = a;
        right.merge(bc);
        EXPECT_EQ(left.buckets(), right.buckets()) << "seed " << seed;
        EXPECT_EQ(left.total(), right.total());
    }
}

TEST(HistogramMergeProperties, CommutativityAndIdentity) {
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
        const Histogram a = random_histogram(2 * seed + 100, 30);
        const Histogram b = random_histogram(2 * seed + 101, 30);
        Histogram ab = a;
        ab.merge(b);
        Histogram ba = b;
        ba.merge(a);
        EXPECT_EQ(ab.buckets(), ba.buckets()) << "seed " << seed;

        Histogram with_empty = a;
        with_empty.merge(Histogram{});
        EXPECT_EQ(with_empty.buckets(), a.buckets());
        Histogram onto_empty;
        onto_empty.merge(a);
        EXPECT_EQ(onto_empty.buckets(), a.buckets());
    }
}

}  // namespace
}  // namespace rrb
