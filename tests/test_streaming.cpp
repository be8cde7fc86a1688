// Tests of the streaming accumulators: shard-merge laws, exactness of
// extremes/block maxima, and Chan-merged moments vs the two-pass
// reference.
#include "stats/streaming.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "sim/rng.h"
#include "stats/series.h"

namespace rrb {
namespace {

std::vector<double> uniform_sample(std::size_t n, std::uint64_t seed,
                                   double lo = 0.0, double hi = 1000.0) {
    Pcg32 rng(seed);
    std::vector<double> xs;
    xs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        xs.push_back(lo + rng.next_double() * (hi - lo));
    }
    return xs;
}

// -------------------------------------------------- StreamingExtremes

TEST(StreamingExtremes, TracksMinMaxCount) {
    StreamingExtremes<Cycle> ext;
    EXPECT_TRUE(ext.empty());
    EXPECT_THROW((void)ext.min(), std::invalid_argument);
    ext.add(7);
    ext.add(3);
    ext.add(11);
    EXPECT_EQ(ext.count(), 3u);
    EXPECT_EQ(ext.min(), 3u);
    EXPECT_EQ(ext.max(), 11u);
}

TEST(StreamingExtremes, MergeEqualsSequentialFold) {
    StreamingExtremes<Cycle> a;
    StreamingExtremes<Cycle> b;
    StreamingExtremes<Cycle> serial;
    for (const Cycle x : {9u, 2u, 5u}) {
        a.add(x);
        serial.add(x);
    }
    for (const Cycle x : {1u, 14u}) {
        b.add(x);
        serial.add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.min(), serial.min());
    EXPECT_EQ(a.max(), serial.max());
    EXPECT_EQ(a.count(), serial.count());

    StreamingExtremes<Cycle> empty;
    a.merge(empty);  // identity
    EXPECT_EQ(a.count(), 5u);
    empty.merge(a);  // merge into empty copies
    EXPECT_EQ(empty.max(), 14u);
}

// --------------------------------------------------- StreamingMoments

TEST(StreamingMoments, MatchesTwoPassToTolerance) {
    const std::vector<double> xs = uniform_sample(5000, 42);
    StreamingMoments m;
    for (const double x : xs) m.add(x);
    const SeriesSummary s = summarize(xs);
    ASSERT_EQ(m.count(), xs.size());
    // Satellite contract: streamed moments match the two-pass reference
    // to 1e-12 (relative; values are O(10^3)).
    EXPECT_NEAR(m.mean(), s.mean, 1e-12 * std::abs(s.mean));
    EXPECT_NEAR(m.stddev(), s.stddev, 1e-12 * s.mean);
}

TEST(StreamingMoments, ChanMergeMatchesTwoPass) {
    const std::vector<double> xs = uniform_sample(4096, 7);
    // Fold in 8 shards of contiguous ranges, merge in shard order.
    StreamingMoments merged;
    const std::size_t shard = xs.size() / 8;
    for (std::size_t s = 0; s < 8; ++s) {
        StreamingMoments part;
        for (std::size_t i = s * shard; i < (s + 1) * shard; ++i) {
            part.add(xs[i]);
        }
        merged.merge(part);
    }
    const SeriesSummary ref = summarize(xs);
    EXPECT_EQ(merged.count(), xs.size());
    EXPECT_NEAR(merged.mean(), ref.mean, 1e-12 * std::abs(ref.mean));
    EXPECT_NEAR(merged.stddev(), ref.stddev, 1e-12 * ref.mean);
}

TEST(StreamingMoments, EmptyAndSingleton) {
    StreamingMoments m;
    EXPECT_TRUE(m.empty());
    EXPECT_DOUBLE_EQ(m.variance(), 0.0);
    m.add(5.0);
    EXPECT_DOUBLE_EQ(m.mean(), 5.0);
    EXPECT_DOUBLE_EQ(m.stddev(), 0.0);
    StreamingMoments other;
    m.merge(other);  // empty other is identity
    EXPECT_EQ(m.count(), 1u);
}

// ----------------------------------------------- StreamingBlockMaxima

TEST(StreamingBlockMaxima, MatchesSerialBlockMaxima) {
    const std::vector<double> xs = uniform_sample(1003, 9);  // partial tail
    StreamingBlockMaxima stream(50);
    for (std::size_t i = 0; i < xs.size(); ++i) stream.add(i, xs[i]);
    EXPECT_EQ(stream.maxima(), block_maxima(xs, 50));
    EXPECT_EQ(stream.complete_blocks(), 20u);
    EXPECT_EQ(stream.live_values(), 21u);  // 20 complete + the tail
    EXPECT_EQ(stream.count(), xs.size());
}

TEST(StreamingBlockMaxima, ShardedMergeIsBitIdenticalToSerialFit) {
    const std::vector<double> xs = uniform_sample(600, 11);
    const GumbelFit serial = fit_gumbel(block_maxima(xs, 30));

    // Shard boundaries that split blocks mid-way (97 is coprime to 30).
    for (const std::size_t shard_size : {97u, 30u, 601u, 1u}) {
        StreamingBlockMaxima merged(30);
        for (std::size_t begin = 0; begin < xs.size();
             begin += shard_size) {
            StreamingBlockMaxima part(30);
            const std::size_t end =
                std::min(xs.size(), begin + shard_size);
            for (std::size_t i = begin; i < end; ++i) part.add(i, xs[i]);
            merged.merge(part);
        }
        const GumbelFit fit = merged.fit();
        EXPECT_EQ(fit.mu, serial.mu) << "shard size " << shard_size;
        EXPECT_EQ(fit.beta, serial.beta);
        EXPECT_EQ(fit.sample_size, serial.sample_size);
    }
}

TEST(StreamingBlockMaxima, OutOfOrderAddsMatchInOrderAdds) {
    const std::vector<double> xs = uniform_sample(90, 3);
    StreamingBlockMaxima forward(9);
    StreamingBlockMaxima backward(9);
    for (std::size_t i = 0; i < xs.size(); ++i) forward.add(i, xs[i]);
    for (std::size_t i = xs.size(); i-- > 0;) backward.add(i, xs[i]);
    EXPECT_EQ(forward.maxima(), backward.maxima());
}

TEST(StreamingBlockMaxima, Validates) {
    EXPECT_THROW(StreamingBlockMaxima(0), std::invalid_argument);
    StreamingBlockMaxima a(4);
    StreamingBlockMaxima b(5);
    EXPECT_THROW(a.merge(b), std::invalid_argument);
}

// --------------------------------------------------- PwcetAccumulator

Measurement exec_only(Cycle t) {
    Measurement m;
    m.exec_time = t;
    return m;
}

TEST(PwcetAccumulator, FoldsExtremesMomentsAndBlocks) {
    PwcetAccumulator acc(2);
    acc.add(0, exec_only(10));
    acc.add(1, exec_only(30));
    acc.add(2, exec_only(20));
    acc.add(3, exec_only(20));
    EXPECT_EQ(acc.extremes().max(), 30u);
    EXPECT_EQ(acc.extremes().min(), 10u);
    EXPECT_DOUBLE_EQ(acc.moments().mean(), 20.0);
    EXPECT_EQ(acc.blocks().maxima(), (std::vector<double>{30.0, 20.0}));
}

TEST(PwcetAccumulator, MergeMatchesSequential) {
    const std::vector<Cycle> ts = {5, 9, 1, 7, 3, 8, 2, 6};
    PwcetAccumulator serial(2);
    for (std::size_t i = 0; i < ts.size(); ++i) {
        serial.add(i, exec_only(ts[i]));
    }
    PwcetAccumulator left(2);
    PwcetAccumulator right(2);
    for (std::size_t i = 0; i < 3; ++i) left.add(i, exec_only(ts[i]));
    for (std::size_t i = 3; i < ts.size(); ++i) {
        right.add(i, exec_only(ts[i]));
    }
    left.merge(right);
    EXPECT_EQ(left.extremes().max(), serial.extremes().max());
    EXPECT_EQ(left.blocks().maxima(), serial.blocks().maxima());
    EXPECT_EQ(left.moments().count(), serial.moments().count());
}

// ------------------------------------------------ WhiteboxAccumulator

Measurement whitebox_sample(Cycle t, std::uint64_t gamma_value) {
    Measurement m;
    m.exec_time = t;
    m.max_gamma = gamma_value;
    m.gamma.add(gamma_value, 2);
    m.ready_contenders.add(gamma_value % 3);
    m.injection_delta.add(gamma_value + 1);
    return m;
}

TEST(WhiteboxAccumulator, ShardMergeEqualsSerialFold) {
    std::vector<Measurement> ms;
    for (Cycle t = 0; t < 10; ++t) {
        ms.push_back(whitebox_sample(100 + t, t % 4));
    }
    WhiteboxAccumulator serial;
    for (std::size_t i = 0; i < ms.size(); ++i) serial.add(i, ms[i]);

    WhiteboxAccumulator a;
    WhiteboxAccumulator b;
    for (std::size_t i = 0; i < 4; ++i) a.add(i, ms[i]);
    for (std::size_t i = 4; i < ms.size(); ++i) b.add(i, ms[i]);
    a.merge(b);

    EXPECT_EQ(a.runs(), serial.runs());
    EXPECT_EQ(a.max_gamma(), serial.max_gamma());
    EXPECT_EQ(a.gamma().buckets(), serial.gamma().buckets());
    EXPECT_EQ(a.ready_contenders().buckets(),
              serial.ready_contenders().buckets());
    EXPECT_EQ(a.injection_delta().buckets(),
              serial.injection_delta().buckets());
    // Shard-order merge reconstructs run order.
    EXPECT_EQ(a.exec_times().values(), serial.exec_times().values());
    EXPECT_EQ(a.extremes().max(), serial.extremes().max());
}

}  // namespace
}  // namespace rrb
