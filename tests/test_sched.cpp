// The campaign scheduler's contract: a batch of N campaigns drained as
// one flat (campaign × shard) queue is bit-identical, campaign by
// campaign, to N standalone sequential runs — at every jobs value —
// and the sweep rewired onto it matches the standalone path per grid
// point. Plus the dispatch accounting (hits + steals == dispatches ==
// items enqueued) and the batch spec front end.
#include <bit>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/scenario.h"
#include "core/session.h"
#include "kernels/autobench.h"
#include "machine/config.h"
#include "obs/telemetry.h"
#include "sched/batch_spec.h"
#include "sched/campaign_scheduler.h"
#include "stats/checkpoint.h"

namespace rrb {
namespace {

Scenario small_scenario(const MachineConfig& config, std::size_t runs,
                        std::uint64_t seed) {
    return Scenario::on(config)
        .scua(make_autobench(Autobench::kCacheb, 0x0100'0000,
                             /*iterations=*/2, 9))
        .rsk_contenders(OpKind::kLoad)
        .runs(runs)
        .seed(seed);
}

/// Three deliberately heterogeneous campaigns: different platforms
/// (two sharing a fingerprint so lease affinity has something to hit),
/// run counts, seeds and block sizes.
std::vector<BatchItem> heterogeneous_batch() {
    PwcetSpec small;
    small.block_size = 5;
    PwcetSpec tiny;
    tiny.block_size = 3;
    std::vector<BatchItem> items;
    items.push_back({"ref-a",
                     small_scenario(MachineConfig::ngmp_ref(), 60, 7),
                     small});
    items.push_back({"scaled",
                     small_scenario(MachineConfig::scaled(2, 5), 45, 11),
                     tiny});
    items.push_back({"ref-b",
                     small_scenario(MachineConfig::ngmp_ref(), 30, 13),
                     small});
    return items;
}

/// Bit-pattern equality: "bit-identical" is the contract, and it must
/// hold for NaN quantiles of a degenerate fit too (EXPECT_EQ on the
/// double value would reject NaN == NaN).
void expect_same_bits(double a, double b) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a),
              std::bit_cast<std::uint64_t>(b));
}

void expect_same_result(const PwcetCampaignResult& a,
                        const PwcetCampaignResult& b) {
    EXPECT_EQ(a.et_isolation, b.et_isolation);
    EXPECT_EQ(a.nr, b.nr);
    EXPECT_EQ(a.runs, b.runs);
    EXPECT_EQ(a.high_water_mark, b.high_water_mark);
    EXPECT_EQ(a.low_water_mark, b.low_water_mark);
    expect_same_bits(a.mean, b.mean);
    expect_same_bits(a.stddev, b.stddev);
    EXPECT_EQ(a.blocks, b.blocks);
    EXPECT_EQ(a.live_values, b.live_values);
    expect_same_bits(a.fit.mu, b.fit.mu);
    expect_same_bits(a.fit.beta, b.fit.beta);
    ASSERT_EQ(a.quantiles.size(), b.quantiles.size());
    for (std::size_t q = 0; q < a.quantiles.size(); ++q) {
        EXPECT_EQ(a.quantiles[q].exceedance, b.quantiles[q].exceedance);
        expect_same_bits(a.quantiles[q].pwcet, b.quantiles[q].pwcet);
    }
}

TEST(CampaignScheduler, BatchMatchesStandaloneAcrossJobs) {
    const std::vector<BatchItem> items = heterogeneous_batch();

    std::vector<PwcetCampaignResult> reference;
    for (const BatchItem& item : items) {
        Session session;
        session.jobs(1);
        reference.push_back(session.pwcet(item.scenario, item.spec));
    }

    for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
        Session session;
        session.jobs(jobs);
        const BatchResult batch = session.batch(items);
        ASSERT_EQ(batch.points.size(), items.size());
        for (std::size_t i = 0; i < items.size(); ++i) {
            SCOPED_TRACE(items[i].name + " at jobs " +
                         std::to_string(jobs));
            EXPECT_EQ(batch.points[i].name, items[i].name);
            expect_same_result(batch.points[i].result, reference[i]);
        }
    }
}

TEST(CampaignScheduler, BatchCheckpointRoundTripsThroughMerge) {
    const std::vector<BatchItem> items = heterogeneous_batch();
    Session session;
    session.jobs(4);
    const BatchResult batch = session.batch(items);

    for (std::size_t i = 0; i < items.size(); ++i) {
        SCOPED_TRACE(items[i].name);
        const BatchPointResult& point = batch.points[i];
        // The batch checkpoint claims to be the whole campaign as
        // slice 0 of 1 — merge must accept it on its own and reproduce
        // the batch's (== the standalone) result bit for bit.
        EXPECT_EQ(point.checkpoint.meta.slice_index, 0u);
        EXPECT_EQ(point.checkpoint.meta.slice_count, 1u);
        EXPECT_EQ(point.checkpoint.meta.scenario_fingerprint,
                  items[i].scenario.fingerprint());
        const std::string path =
            testing::TempDir() + "sched_batch_" + point.name + ".ckpt";
        save_pwcet_checkpoint(path, point.checkpoint);
        const MergedPwcetCampaign merged = session.merge({path});
        expect_same_result(merged.result, point.result);
        std::remove(path.c_str());
    }
}

TEST(CampaignScheduler, SweepMatchesStandalonePerPointAcrossJobs) {
    const Scenario base =
        small_scenario(MachineConfig::ngmp_ref(), 24, 3);
    SweepAxes axes;
    axes.cores = {1, 2};
    axes.lbus = {5, 9};
    PwcetSpec spec;
    spec.block_size = 4;

    Session sequential;
    sequential.jobs(1);
    const SweepResult reference = sequential.sweep(base, axes, spec);
    ASSERT_EQ(reference.points.size(), axes.points());

    Session parallel;
    parallel.jobs(4);
    const SweepResult wide = parallel.sweep(base, axes, spec);
    ASSERT_EQ(wide.points.size(), reference.points.size());
    for (std::size_t p = 0; p < wide.points.size(); ++p) {
        SCOPED_TRACE("point " + std::to_string(p));
        EXPECT_EQ(wide.points[p].cores, reference.points[p].cores);
        EXPECT_EQ(wide.points[p].lbus, reference.points[p].lbus);
        expect_same_result(wide.points[p].result,
                           reference.points[p].result);

        // Each grid point also matches a standalone campaign on the
        // point's config — the scheduler may not leak one campaign's
        // state into another however items interleave.
        Session standalone;
        standalone.jobs(1);
        const PwcetCampaignResult lone = standalone.pwcet(
            base.with_config(wide.points[p].config), spec);
        expect_same_result(wide.points[p].result, lone);
    }
}

TEST(CampaignScheduler, DispatchAccountingAddsUp) {
    const std::vector<BatchItem> items = heterogeneous_batch();
    std::size_t expected_items = 0;
    for (const BatchItem& item : items) {
        expected_items +=
            engine::ReducePlan::for_count(
                item.scenario.run_protocol().runs).shards() + 1;
    }

    obs::TelemetryRegistry& registry = obs::TelemetryRegistry::instance();
    registry.reset();
    registry.enable();
    Session session;
    session.jobs(4);
    (void)session.batch(items);
    const obs::CounterSnapshot counters = registry.counters();
    registry.disable();

    EXPECT_EQ(counters[obs::kSchedItemsEnqueued], expected_items);
    EXPECT_EQ(counters[obs::kSchedDispatches], expected_items);
    // Every dispatch is exactly one of: affinity hit (worker already
    // held the fingerprint) or steal (anything else, first pulls
    // included).
    EXPECT_EQ(counters[obs::kSchedAffinityHits] +
                  counters[obs::kSchedSteals],
              counters[obs::kSchedDispatches]);
    EXPECT_GE(counters[obs::kSchedSteals], 1u);
}

TEST(CampaignScheduler, BatchProgressTicksAggregateAndPerCampaign) {
    const std::vector<BatchItem> items = heterogeneous_batch();
    sched::BatchProgress monitor;
    std::vector<std::pair<std::string, std::size_t>> announce;
    for (const BatchItem& item : items) {
        announce.emplace_back(item.name,
                              item.scenario.run_protocol().runs);
    }
    monitor.announce(announce);
    ASSERT_EQ(monitor.campaigns(), items.size());
    EXPECT_EQ(monitor.aggregate().total(), 60u + 45u + 30u);

    Session session;
    session.jobs(4);
    (void)session.batch(items, &monitor);
    EXPECT_EQ(monitor.aggregate().completed(),
              monitor.aggregate().total());
    for (std::size_t i = 0; i < items.size(); ++i) {
        EXPECT_EQ(monitor.campaign(i).completed(),
                  items[i].scenario.run_protocol().runs);
    }

    const std::vector<obs::CampaignSample> samples = monitor.samples();
    ASSERT_EQ(samples.size(), items.size());
    EXPECT_EQ(*samples[0].name, "ref-a");
}

TEST(CampaignScheduler, MismatchedMonitorIsRejected) {
    const std::vector<BatchItem> items = heterogeneous_batch();
    sched::BatchProgress monitor;  // never announced
    Session session;
    session.jobs(1);
    EXPECT_THROW((void)session.batch(items, &monitor),
                 std::invalid_argument);
}

TEST(CampaignScheduler, RunsExactlyOnce) {
    engine::ThreadPool pool(2);
    sched::CampaignScheduler scheduler(pool);
    const Scenario scenario =
        small_scenario(MachineConfig::ngmp_ref(), 4, 1);
    sched::CampaignWork work;
    work.inputs.config = scenario.config();
    work.inputs.scua = scenario.scua_program();
    work.inputs.contenders = scenario.contender_programs();
    work.inputs.protocol = scenario.run_protocol();
    for (std::size_t s = 0; s < engine::ReducePlan::for_count(4).shards();
         ++s) {
        work.shards.push_back(s);
    }
    ASSERT_EQ(scheduler.add(std::move(work), PwcetAccumulator{},
                            [](PwcetAccumulator& acc,
                               const sched::CampaignInputs& in,
                               std::uint64_t run) {
                                acc.add(run, detail::hwm_campaign_measure(
                                                 in.config, in.scua,
                                                 in.contenders, in.protocol,
                                                 run, in.fingerprint));
                            }),
              0u);
    EXPECT_EQ(scheduler.work_items(),
              engine::ReducePlan::for_count(4).shards() + 1);
    scheduler.run();
    EXPECT_THROW(scheduler.run(), std::invalid_argument);
    (void)scheduler.take<PwcetAccumulator>(0);
    EXPECT_THROW((void)scheduler.take<PwcetAccumulator>(0),
                 std::invalid_argument);
}

TEST(BatchSpec, ParsesScenarioBlocksInFileOrder) {
    const std::string text =
        "# comment\n"
        "[scenario small-rr]\n"
        "runs = 600\n"
        "seed = 7\n"
        "block-size = 30\n"
        "\n"
        "[scenario wide-bus]\n"
        "cores = 2\n"
        "lbus = 5\n"
        "runs = 400\n"
        "seed = 9\n"
        "exceedance = 1e-3,1e-6\n";
    const std::vector<BatchItem> items = sched::parse_batch_spec(text);
    ASSERT_EQ(items.size(), 2u);

    EXPECT_EQ(items[0].name, "small-rr");
    EXPECT_EQ(items[0].scenario.run_protocol().runs, 600u);
    EXPECT_EQ(items[0].scenario.run_protocol().seed, 7u);
    EXPECT_EQ(items[0].spec.block_size, 30u);
    // That the fingerprints match what the CLI builds is checked
    // through both real front ends in test_cli
    // (PwcetFlagsAndBatchKeysWriteIdenticalCheckpoints).

    EXPECT_EQ(items[1].name, "wide-bus");
    EXPECT_EQ(items[1].scenario.config().num_cores, 2u);
    EXPECT_EQ(items[1].scenario.config().load_hit_service(), 5u);
    ASSERT_EQ(items[1].spec.exceedance.size(), 2u);
    EXPECT_EQ(items[1].spec.exceedance[0], 1e-3);
    EXPECT_EQ(items[1].spec.exceedance[1], 1e-6);
}

TEST(BatchSpec, DefaultsMatchThePwcetCommand) {
    const std::vector<BatchItem> items =
        sched::parse_batch_spec("[scenario d]\n");
    ASSERT_EQ(items.size(), 1u);
    // pwcet defaults: 40 blocks of the default block size 50, seed 1,
    // NGMP reference platform.
    EXPECT_EQ(items[0].spec.block_size, 50u);
    EXPECT_EQ(items[0].scenario.run_protocol().runs, 40u * 50u);
    EXPECT_EQ(items[0].scenario.run_protocol().seed, 1u);
    EXPECT_EQ(items[0].scenario.config().fingerprint(),
              MachineConfig::ngmp_ref().fingerprint());
}

TEST(BatchSpec, RejectsMalformedInput) {
    EXPECT_THROW((void)sched::parse_batch_spec(""),
                 std::invalid_argument);
    EXPECT_THROW((void)sched::parse_batch_spec("runs = 5\n"),
                 std::invalid_argument);
    EXPECT_THROW((void)sched::parse_batch_spec("[scenario a/b]\n"),
                 std::invalid_argument);
    EXPECT_THROW(
        (void)sched::parse_batch_spec("[scenario a]\nbogus = 1\n"),
        std::invalid_argument);
    EXPECT_THROW(
        (void)sched::parse_batch_spec("[scenario a]\n[scenario a]\n"),
        std::invalid_argument);
    EXPECT_THROW(
        (void)sched::parse_batch_spec("[scenario a]\nexceedance = 2\n"),
        std::invalid_argument);
    EXPECT_THROW(
        (void)sched::parse_batch_spec("[scenario a]\nblock-size = 0\n"),
        std::invalid_argument);
}

TEST(BatchSpec, RejectsValuesThatOverflowTheirField) {
    // 2^32 + 4 cores used to narrow to a 4-core machine and report ok.
    try {
        (void)sched::parse_batch_spec(
            "[scenario a]\ncores = 4294967300\n");
        FAIL() << "expected the cores value to be rejected";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
            << e.what();
        EXPECT_NE(std::string(e.what()).find("cores"), std::string::npos);
    }
    EXPECT_THROW((void)sched::parse_batch_spec(
                     "[scenario a]\nruns = 18446744073709551617\n"),
                 std::invalid_argument);
}

}  // namespace
}  // namespace rrb
