// Tests of the sharded streaming reduction: the fixed shard plan, the
// fold/merge order contract, and the pWCET / white-box campaign paths
// being bit-identical at every job count and to their serial references
// (tests/serial_reference.h).
#include "engine/reduce.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "core/campaign.h"
#include "core/estimator.h"
#include "core/scenario.h"
#include "core/session.h"
#include "engine/progress.h"
#include "kernels/autobench.h"
#include "kernels/rsk.h"
#include "machine/config.h"
#include "serial_reference.h"

namespace rrb {
namespace {

// ---------------------------------------------------------- ReducePlan

TEST(ReducePlan, IsAPureFunctionOfCountAndCoversTheRange) {
    for (const std::uint64_t count : {1ull, 7ull, 256ull, 257ull, 100000ull}) {
        const engine::ReducePlan plan = engine::ReducePlan::for_count(count);
        ASSERT_GE(plan.shards(), 1u);
        EXPECT_LE(plan.shards(), engine::ReducePlan::kTargetShards);
        // Shards are contiguous, ascending, and partition [0, count).
        std::uint64_t next = 0;
        for (std::size_t s = 0; s < plan.shards(); ++s) {
            EXPECT_EQ(plan.shard_begin(s), next);
            EXPECT_GT(plan.shard_end(s), plan.shard_begin(s));
            next = plan.shard_end(s);
        }
        EXPECT_EQ(next, count);
    }
}

TEST(ReducePlan, SmallCountsGetOneRunPerShard) {
    const engine::ReducePlan plan = engine::ReducePlan::for_count(20);
    EXPECT_EQ(plan.shards(), 20u);
    EXPECT_EQ(plan.shard_size, 1u);
}

TEST(ReducePlan, SlicesPartitionTheShardsContiguously) {
    for (const std::uint64_t count : {7ull, 256ull, 100000ull}) {
        const engine::ReducePlan plan = engine::ReducePlan::for_count(count);
        for (const std::size_t slices : {1u, 2u, 3u, 4u, 7u}) {
            std::size_t next = 0;
            for (std::size_t i = 0; i < slices; ++i) {
                const engine::ReducePlan::ShardRange range =
                    plan.slice(i, slices);
                EXPECT_EQ(range.first, next)
                    << count << " sliced " << i << "/" << slices;
                EXPECT_LE(range.first, range.last);
                next = range.last;
            }
            EXPECT_EQ(next, plan.shards());
        }
    }
    // More slices than shards: trailing slices are empty, never lost.
    const engine::ReducePlan tiny = engine::ReducePlan::for_count(2);
    std::size_t covered = 0;
    for (std::size_t i = 0; i < 5; ++i) {
        covered += tiny.slice(i, 5).size();
    }
    EXPECT_EQ(covered, tiny.shards());
    // Bad slice specs are rejected.
    EXPECT_THROW((void)tiny.slice(5, 5), std::invalid_argument);
    EXPECT_THROW((void)tiny.slice(0, 0), std::invalid_argument);
}

// ------------------------------------------------ reduce_indexed_shards

/// Toy accumulator recording the fold order — merge appends, so the
/// reduced order must be exactly 0..n-1 whatever the job count.
struct OrderAccumulator {
    std::vector<std::uint64_t> order;
    void fold(std::uint64_t i) { order.push_back(i); }
    void merge(const OrderAccumulator& other) {
        order.insert(order.end(), other.order.begin(), other.order.end());
    }
};

/// Every shard of the plan for `count` folded by reduce_indexed_shards,
/// then merged in shard order.
template <typename Accumulator, typename Fold>
Accumulator reduce_all(std::uint64_t count, Fold&& fold,
                       const Accumulator& init,
                       const engine::EngineOptions& eng) {
    const engine::ReducePlan plan = engine::ReducePlan::for_count(count);
    return engine::merge_in_order(engine::reduce_indexed_shards(
        plan, {0, plan.shards()}, fold, init, eng));
}

TEST(ReduceIndexedShards, FoldOrderIsRunOrderAtEveryJobCount) {
    for (const std::size_t jobs : {1u, 2u, 5u, 16u}) {
        engine::EngineOptions eng;
        eng.jobs = jobs;
        const OrderAccumulator acc = reduce_all(
            1000,
            [](OrderAccumulator& a, std::uint64_t i) { a.fold(i); },
            OrderAccumulator{}, eng);
        ASSERT_EQ(acc.order.size(), 1000u) << "jobs = " << jobs;
        for (std::uint64_t i = 0; i < 1000; ++i) {
            ASSERT_EQ(acc.order[i], i) << "jobs = " << jobs;
        }
    }
}

TEST(ReduceIndexedShards, ShardsEqualTheMonolithicFoldsAtEveryJobCount) {
    // Each shard accumulator is a pure function of (plan, shard, fold):
    // a slice computed alone must hold exactly the indices the
    // monolithic run folds into that shard, in the same order.
    const engine::ReducePlan plan = engine::ReducePlan::for_count(1000);
    for (const std::size_t jobs : {1u, 4u}) {
        engine::EngineOptions eng;
        eng.jobs = jobs;
        const engine::ReducePlan::ShardRange range =
            plan.slice(1, 3);  // some interior slice
        const std::vector<OrderAccumulator> shards =
            engine::reduce_indexed_shards(
                plan, range,
                [](OrderAccumulator& a, std::uint64_t i) { a.fold(i); },
                OrderAccumulator{}, eng);
        ASSERT_EQ(shards.size(), range.size());
        for (std::size_t s = 0; s < shards.size(); ++s) {
            const std::size_t shard = range.first + s;
            ASSERT_EQ(shards[s].order.size(),
                      plan.shard_end(shard) - plan.shard_begin(shard));
            for (std::size_t k = 0; k < shards[s].order.size(); ++k) {
                ASSERT_EQ(shards[s].order[k], plan.shard_begin(shard) + k)
                    << "jobs " << jobs;
            }
        }
    }
}

TEST(ReduceIndexedShards, EmptyRangeYieldsNoShards) {
    const engine::ReducePlan plan = engine::ReducePlan::for_count(10);
    const std::vector<OrderAccumulator> none =
        engine::reduce_indexed_shards(
            plan, {4, 4},
            [](OrderAccumulator& a, std::uint64_t i) { a.fold(i); },
            OrderAccumulator{});
    EXPECT_TRUE(none.empty());
    EXPECT_THROW(
        (void)engine::reduce_indexed_shards(
            plan, {4, 11},
            [](OrderAccumulator& a, std::uint64_t i) { a.fold(i); },
            OrderAccumulator{}),
        std::invalid_argument);
}

TEST(ReduceIndexedShards, InitSeedsEveryShard) {
    // The initial accumulator's configuration (here: block size) must
    // reach every shard-local copy.
    engine::EngineOptions eng;
    eng.jobs = 4;
    const StreamingBlockMaxima acc = reduce_all(
        600,
        [](StreamingBlockMaxima& a, std::uint64_t i) {
            a.add(i, static_cast<double>(i % 17));
        },
        StreamingBlockMaxima(25), eng);
    EXPECT_EQ(acc.block_size(), 25u);
    EXPECT_EQ(acc.complete_blocks(), 24u);
}

TEST(ReduceIndexedShards, PropagatesFoldExceptions) {
    engine::EngineOptions eng;
    eng.jobs = 2;
    EXPECT_THROW(
        (void)reduce_all(
            100,
            [](OrderAccumulator& a, std::uint64_t i) {
                if (i == 57) throw std::runtime_error("bad fold");
                a.fold(i);
            },
            OrderAccumulator{}, eng),
        std::runtime_error);
}

TEST(ReduceIndexedShards, ReportsProgressPerRun) {
    engine::ProgressCounter progress;
    engine::EngineOptions eng;
    eng.jobs = 3;
    eng.progress = &progress;
    (void)reduce_all(
        500, [](OrderAccumulator& a, std::uint64_t i) { a.fold(i); },
        OrderAccumulator{}, eng);
    EXPECT_EQ(progress.total(), 500u);
    EXPECT_EQ(progress.completed(), 500u);
}

// ------------------------------------------------------ pWCET campaigns

HwmCampaignOptions small_protocol() {
    HwmCampaignOptions protocol;
    protocol.runs = 48;
    protocol.seed = 7;
    return protocol;
}

PwcetSpec small_spec() {
    PwcetSpec spec;
    spec.block_size = 8;
    return spec;
}

MachineConfig test_config() { return MachineConfig::ngmp_ref(); }

Program test_scua() {
    return make_autobench(Autobench::kTblook, 0x0100'0000, 40, 2);
}

Scenario pwcet_scenario(const MachineConfig& cfg, const Program& scua,
                        const std::vector<Program>& contenders,
                        const HwmCampaignOptions& protocol) {
    return Scenario::on(cfg).scua(scua).contenders(contenders).protocol(
        protocol);
}

TEST(PwcetCampaign, BitIdenticalAtEveryJobCount) {
    const MachineConfig cfg = test_config();
    const Program scua = test_scua();
    const std::vector<Program> contenders =
        make_rsk_contenders(cfg, OpKind::kLoad);

    const PwcetCampaignResult serial = reference::pwcet(
        cfg, scua, contenders, small_protocol(), small_spec());

    for (const std::size_t jobs :
         {1u, 2u, 4u, static_cast<unsigned>(
                          engine::ThreadPool::default_jobs())}) {
        Session session;
        session.jobs(jobs);
        const PwcetCampaignResult parallel = session.pwcet(
            pwcet_scenario(cfg, scua, contenders, small_protocol()),
            small_spec());
        EXPECT_EQ(parallel.high_water_mark, serial.high_water_mark)
            << "jobs = " << jobs;
        EXPECT_EQ(parallel.low_water_mark, serial.low_water_mark);
        EXPECT_EQ(parallel.et_isolation, serial.et_isolation);
        EXPECT_EQ(parallel.nr, serial.nr);
        // Bit-identical floating point: the shard plan (and with it the
        // Chan merge tree) depends on runs, never on jobs.
        EXPECT_EQ(parallel.mean, serial.mean) << "jobs = " << jobs;
        EXPECT_EQ(parallel.stddev, serial.stddev);
        EXPECT_EQ(parallel.fit.mu, serial.fit.mu);
        EXPECT_EQ(parallel.fit.beta, serial.fit.beta);
        ASSERT_EQ(parallel.quantiles.size(), serial.quantiles.size());
        for (std::size_t q = 0; q < serial.quantiles.size(); ++q) {
            EXPECT_EQ(parallel.quantiles[q].pwcet,
                      serial.quantiles[q].pwcet);
        }
    }
}

TEST(PwcetCampaign, StreamedFitEqualsSerialBlockMaximaFit) {
    const MachineConfig cfg = test_config();
    const Program scua = test_scua();
    const std::vector<Program> contenders =
        make_rsk_contenders(cfg, OpKind::kLoad);
    const HwmCampaignOptions protocol = small_protocol();
    const PwcetSpec spec = small_spec();

    const PwcetCampaignResult streamed = Session().pwcet(
        pwcet_scenario(cfg, scua, contenders, protocol), spec);

    // The materializing reference: same run protocol, same seed.
    const HwmCampaignResult hwm =
        reference::hwm(cfg, scua, contenders, protocol);
    std::vector<double> times;
    times.reserve(hwm.exec_times.size());
    for (const Cycle t : hwm.exec_times) {
        times.push_back(static_cast<double>(t));
    }
    const GumbelFit reference =
        fit_gumbel(block_maxima(times, spec.block_size));

    EXPECT_EQ(streamed.high_water_mark, hwm.high_water_mark);
    EXPECT_EQ(streamed.low_water_mark, hwm.low_water_mark);
    EXPECT_EQ(streamed.fit.mu, reference.mu);
    EXPECT_EQ(streamed.fit.beta, reference.beta);
    EXPECT_EQ(streamed.fit.sample_size, reference.sample_size);
    EXPECT_EQ(streamed.runs, protocol.runs);
    EXPECT_EQ(streamed.blocks, protocol.runs / spec.block_size);
    // The memory contract: live state ~ runs/block_size, not ~ runs.
    EXPECT_LE(streamed.live_values, protocol.runs / spec.block_size + 1);
}

TEST(PwcetCampaign, Validates) {
    const MachineConfig cfg = test_config();
    const Program scua = test_scua();
    const std::vector<Program> contenders =
        make_rsk_contenders(cfg, OpKind::kLoad);
    const auto run = [&](const HwmCampaignOptions& protocol,
                         const PwcetSpec& spec,
                         const std::vector<Program>& with) {
        return Session().pwcet(pwcet_scenario(cfg, scua, with, protocol),
                               spec);
    };
    HwmCampaignOptions no_runs = small_protocol();
    no_runs.runs = 0;
    EXPECT_THROW((void)run(no_runs, small_spec(), contenders),
                 std::invalid_argument);
    PwcetSpec spec = small_spec();
    spec.block_size = 0;
    EXPECT_THROW((void)run(small_protocol(), spec, contenders),
                 std::invalid_argument);
    spec = small_spec();
    spec.exceedance = {0.0};
    EXPECT_THROW((void)run(small_protocol(), spec, contenders),
                 std::invalid_argument);
    EXPECT_THROW((void)run(small_protocol(), small_spec(), {}),
                 std::invalid_argument);
}

// -------------------------------------------------- white-box campaigns

TEST(WhiteboxCampaign, ShardedMergeEqualsSerialSingleThread) {
    const MachineConfig cfg = test_config();
    const Program scua = test_scua();
    const std::vector<Program> contenders =
        make_rsk_contenders(cfg, OpKind::kLoad);
    HwmCampaignOptions opt;
    opt.runs = 12;
    opt.seed = 5;

    // Serial reference: fold every run's measurement by hand.
    WhiteboxAccumulator serial;
    for (std::uint64_t run = 0; run < opt.runs; ++run) {
        serial.add(run, detail::hwm_campaign_measure(cfg, scua, contenders,
                                                     opt, run));
    }

    for (const std::size_t jobs : {1u, 4u}) {
        Session session;
        session.jobs(jobs);
        const engine::WhiteboxCampaignResult sharded = session.whitebox(
            Scenario::on(cfg).scua(scua).contenders(contenders).protocol(
                opt));
        const WhiteboxAccumulator& stats = sharded.stats;
        EXPECT_EQ(stats.runs(), serial.runs()) << "jobs = " << jobs;
        EXPECT_EQ(stats.max_gamma(), serial.max_gamma());
        EXPECT_EQ(stats.gamma().buckets(), serial.gamma().buckets());
        EXPECT_EQ(stats.ready_contenders().buckets(),
                  serial.ready_contenders().buckets());
        EXPECT_EQ(stats.injection_delta().buckets(),
                  serial.injection_delta().buckets());
        EXPECT_EQ(stats.exec_times().values(),
                  serial.exec_times().values());
    }
}

TEST(WhiteboxCampaign, MeasureAgreesWithBlackBoxRun) {
    // The Measurement path must observe the exact execution time the
    // Cycle-only path reports — one protocol, two views.
    const MachineConfig cfg = test_config();
    const Program scua = test_scua();
    const std::vector<Program> contenders =
        make_rsk_contenders(cfg, OpKind::kLoad);
    HwmCampaignOptions opt;
    opt.runs = 4;
    opt.seed = 3;
    for (std::uint64_t run = 0; run < opt.runs; ++run) {
        const Measurement m = detail::hwm_campaign_measure(
            cfg, scua, contenders, opt, run);
        EXPECT_EQ(m.exec_time, detail::hwm_campaign_run(cfg, scua,
                                                        contenders, opt,
                                                        run));
        EXPECT_FALSE(m.gamma.empty());
    }
}

}  // namespace
}  // namespace rrb
