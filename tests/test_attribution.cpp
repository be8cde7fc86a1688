// Cycle-attribution profiler (PR 7): closed accounting, PMC
// cross-checks, blame-matrix decomposition, and campaign determinism.
//
// The profiler's contract has four parts, each asserted here:
//   1. Closed accounting: per core, the StallCause buckets sum exactly
//      to the machine's elapsed cycles — on the same config grid the
//      hot-path differential suite uses, including cutoff runs.
//   2. PMC cross-checks: buckets the machine already counts as PMCs
//      (store-gate / store-buffer-full stall cycles, bus wait cycles)
//      must equal the attribution's view of the same cycles.
//   3. Observational only: finish cycles are bit-identical armed or
//      not.
//   4. Campaign determinism: the summed AttributionAccumulator is
//      bit-identical at every --jobs value and through shard+merge,
//      and round-trips through the checkpoint codec.
//   5. Execution-mode independence: an armed run that replays its
//      decoded scripts charges every bucket, blame cell and dead slot
//      exactly as the armed interpreter does.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/campaign.h"
#include "core/estimator.h"
#include "core/scenario.h"
#include "core/session.h"
#include "engine/reduce.h"
#include "engine/thread_pool.h"
#include "kernels/autobench.h"
#include "kernels/rsk.h"
#include "machine/attribution.h"
#include "machine/config.h"
#include "machine/machine.h"
#include "obs/report.h"
#include "obs/telemetry.h"
#include "replay/script_cache.h"
#include "sched/campaign_scheduler.h"
#include "serial_reference.h"
#include "stats/attribution.h"
#include "stats/checkpoint.h"

namespace rrb {
namespace {

struct GridPoint {
    std::string name;
    MachineConfig config;
};

/// Same platform grid as the hot-path differential suite: both NGMP
/// variants, a scaled platform, every arbiter kind.
std::vector<GridPoint> config_grid() {
    std::vector<GridPoint> grid;
    grid.push_back({"ngmp_ref", MachineConfig::ngmp_ref()});
    grid.push_back({"ngmp_var", MachineConfig::ngmp_var()});
    grid.push_back({"scaled_2x5", MachineConfig::scaled(2, 5)});
    grid.push_back({"textbook", MachineConfig::textbook()});
    {
        MachineConfig cfg = MachineConfig::ngmp_ref();
        cfg.arbiter = ArbiterKind::kTdma;
        grid.push_back({"tdma", cfg});
    }
    {
        MachineConfig cfg = MachineConfig::ngmp_ref();
        cfg.arbiter = ArbiterKind::kFixedPriority;
        grid.push_back({"fixed", cfg});
    }
    {
        MachineConfig cfg = MachineConfig::ngmp_ref();
        cfg.arbiter = ArbiterKind::kWeightedRoundRobin;
        cfg.wrr_weights = {3, 1, 1, 1};
        grid.push_back({"wrr", cfg});
    }
    return grid;
}

/// Scuas covering distinct attribution paths: L2-hit loads (bus wait +
/// service only), the DRAM split-transaction chain (row classes and
/// queue), and store-buffer machinery (gate / full / drain-wait).
std::vector<Program> scua_set() {
    std::vector<Program> scuas;
    scuas.push_back(make_autobench(Autobench::kCacheb, 0x0100'0000, 12, 9));
    scuas.push_back(ProgramBuilder("dram-walk")
                        .load(AddrPattern::stride(0x0200'0000, 32,
                                                  256 * 1024))
                        .nop(2)
                        .iterations(200)
                        .build());
    {
        RskParams params;
        params.access = OpKind::kStore;
        params.unroll = 2;
        params.iterations = 25;
        Program store_heavy = make_rsk(params);
        store_heavy.body.push_back(
            {OpKind::kLoad, 1, AddrPattern::fixed(0x0030'0000)});
        store_heavy.name = "store-heavy";
        scuas.push_back(store_heavy);
    }
    return scuas;
}

/// config_grid() plus the two points replay treats specially: kRandom
/// L1 replacement, which makes every core's script core-specific (and
/// declines the load contenders' decodes, so the scua replays beside
/// interpreting contenders), and an eight-core platform, whose blame
/// rows are twice as wide.
std::vector<GridPoint> replay_grid() {
    std::vector<GridPoint> grid = config_grid();
    {
        MachineConfig cfg = MachineConfig::ngmp_ref();
        cfg.core.l1_replacement = ReplacementPolicy::kRandom;
        grid.push_back({"l1_random", cfg});
    }
    grid.push_back({"scaled_8x9", MachineConfig::scaled(8, 9)});
    return grid;
}

void expect_closed(const Machine& machine, const std::string& what) {
    const CycleAttribution& attr = machine.attribution();
    for (CoreId c = 0; c < machine.config().num_cores; ++c) {
        EXPECT_EQ(attr.total(c), machine.now())
            << what << " core " << c << " timeline does not close";
    }
}

void expect_same_accumulator(const AttributionAccumulator& a,
                             const AttributionAccumulator& b,
                             const std::string& what) {
    ASSERT_EQ(a.num_cores(), b.num_cores()) << what;
    EXPECT_EQ(a.runs(), b.runs()) << what;
    EXPECT_EQ(a.machine_cycles(), b.machine_cycles()) << what;
    for (CoreId c = 0; c < a.num_cores(); ++c) {
        for (std::size_t cause = 0; cause < kStallCauseCount; ++cause) {
            EXPECT_EQ(a.timeline(c, static_cast<StallCause>(cause)),
                      b.timeline(c, static_cast<StallCause>(cause)))
                << what << " core " << c << " cause "
                << to_string(static_cast<StallCause>(cause));
        }
        for (CoreId w = 0; w < a.num_cores(); ++w) {
            EXPECT_EQ(a.blamed(c, w), b.blamed(c, w))
                << what << " blame[" << c << "][" << w << "]";
        }
        EXPECT_EQ(a.dead_slot_cycles(c), b.dead_slot_cycles(c))
            << what << " dead[" << c << "]";
    }
}

TEST(Attribution, ClosedAccountingAcrossConfigGrid) {
    // Every (platform, scua, run) combination: a full campaign run with
    // the profiler armed, then per core the buckets must sum exactly to
    // the machine's elapsed cycles — no cycle uncharged, none charged
    // twice.
    for (const GridPoint& point : config_grid()) {
        const std::vector<Program> contenders =
            make_rsk_contenders(point.config, OpKind::kLoad);
        for (const Program& scua : scua_set()) {
            HwmCampaignOptions options;
            options.runs = 2;
            options.seed = 3;
            for (std::uint64_t run = 0; run < options.runs; ++run) {
                const std::string what =
                    point.name + "/" + scua.name + "/run" +
                    std::to_string(run);
                Machine machine(point.config);
                machine.arm_attribution();
                std::uint64_t campaign = 0;
                const Cycle finish = detail::execute_campaign_run(
                    machine, campaign, scua, contenders, options, run);
                machine.finalize_attribution();
                ASSERT_NE(finish, kNoCycle) << what;
                expect_closed(machine, what);
            }
        }
    }
}

TEST(Attribution, ArmedRunsAreBitIdenticalToUnarmed) {
    // Strictly observational: the profiler never feeds into timing, so
    // the finish cycle of every run is identical armed or not — across
    // the full grid (the machine-reuse hot path included: attribute
    // goes through the same MachineLease as the production campaign).
    for (const GridPoint& point : config_grid()) {
        const std::vector<Program> contenders =
            make_rsk_contenders(point.config, OpKind::kLoad);
        const Program scua =
            make_autobench(Autobench::kCacheb, 0x0100'0000, 12, 9);
        HwmCampaignOptions options;
        options.runs = 3;
        AttributionAccumulator acc;
        for (std::uint64_t run = 0; run < options.runs; ++run) {
            const Cycle armed = detail::hwm_campaign_attribute(
                point.config, scua, contenders, options, run, acc);
            const Cycle plain = detail::hwm_campaign_run(
                point.config, scua, contenders, options, run);
            EXPECT_EQ(armed, plain)
                << point.name << " run " << run
                << ": arming attribution changed the simulation";
        }
        EXPECT_EQ(acc.runs(), options.runs);
    }
}

TEST(Attribution, ArmedReplayMatchesArmedInterpreter) {
    // The same armed campaign runs in two modes, each on one machine
    // reused across runs the way a lease is: interpreting, and
    // replaying scripts from a ScriptCache. Replay shares the
    // interpreter's core-side charge points (the entry charge in tick()
    // and the stall helper) and drives the bus/DRAM hooks live, so the
    // finalized attribution must match cell for cell.
    for (const GridPoint& point : replay_grid()) {
        for (const OpKind access : {OpKind::kLoad, OpKind::kStore}) {
            const std::vector<Program> contenders =
                make_rsk_contenders(point.config, access);
            for (const Program& scua : scua_set()) {
                HwmCampaignOptions options;
                options.runs = 4;
                options.seed = 5;
                Machine interpreted(point.config);
                Machine replayed(point.config);
                interpreted.arm_attribution();
                replayed.arm_attribution();
                std::uint64_t interpreted_campaign = 0;
                std::uint64_t replayed_campaign = 0;
                replay::ScriptCache scripts;
                for (std::uint64_t run = 0; run < options.runs; ++run) {
                    const std::string what =
                        point.name + "/" +
                        (access == OpKind::kLoad ? "load" : "store") +
                        "/" + scua.name + "/run" + std::to_string(run);
                    const Cycle expected = detail::execute_campaign_run(
                        interpreted, interpreted_campaign, scua,
                        contenders, options, run);
                    const Cycle finish = detail::execute_campaign_run(
                        replayed, replayed_campaign, scua, contenders,
                        options, run, &scripts);
                    interpreted.finalize_attribution();
                    replayed.finalize_attribution();

                    // A run whose every decode declined would interpret
                    // on both sides and pass vacuously.
                    std::size_t replaying = 0;
                    for (CoreId c = 0; c < point.config.num_cores; ++c) {
                        if (replayed.core(c).has_script()) ++replaying;
                    }
                    ASSERT_GT(replaying, 0u) << what;

                    EXPECT_EQ(finish, expected) << what;
                    EXPECT_EQ(replayed.now(), interpreted.now()) << what;
                    AttributionAccumulator got;
                    AttributionAccumulator want;
                    got.add(run, replayed.attribution());
                    want.add(run, interpreted.attribution());
                    expect_same_accumulator(got, want, what);
                    for (CoreId c = 0; c < point.config.num_cores; ++c) {
                        const CoreStats& rs = replayed.core(c).stats();
                        const CoreStats& is = interpreted.core(c).stats();
                        EXPECT_EQ(rs.load_gate_stall_cycles,
                                  is.load_gate_stall_cycles)
                            << what << " core " << c;
                        EXPECT_EQ(rs.store_full_stall_cycles,
                                  is.store_full_stall_cycles)
                            << what << " core " << c;
                    }
                    expect_closed(replayed, what);
                }
            }
        }
    }
}

TEST(Attribution, SessionAttributionReplaysEveryRun) {
    // The production armed path: every campaign run of
    // Session::attribution replays (no decode declines on this
    // scenario), which the telemetry counters make checkable.
    const MachineConfig config = MachineConfig::ngmp_ref();
    HwmCampaignOptions options;
    options.runs = 12;
    options.seed = 11;
    const Scenario scenario =
        Scenario::on(config)
            .scua(make_autobench(Autobench::kCacheb, 0x0100'0000, 12, 9))
            .contenders(make_rsk_contenders(config, OpKind::kLoad))
            .protocol(options);

    obs::TelemetryRegistry& registry = obs::TelemetryRegistry::instance();
    registry.reset();
    registry.enable();
    Session session;
    session.jobs(2);
    const engine::AttributionCampaignResult result =
        session.attribution(scenario);
    const obs::CounterSnapshot counters = registry.counters();
    registry.disable();

    EXPECT_EQ(result.attribution.runs(), options.runs);
    EXPECT_EQ(counters[obs::kRunsCompleted], options.runs);
    EXPECT_EQ(counters[obs::kReplayRuns], counters[obs::kRunsCompleted]);
    EXPECT_EQ(counters[obs::kReplayFallbackRuns], 0u);
}

TEST(Attribution, StoreStallBucketsEqualStallPmcs) {
    // The machine already counts store-gate and store-buffer-full stall
    // cycles as PMCs; the attribution buckets classify the same cycles
    // and must agree exactly.
    const MachineConfig config = MachineConfig::ngmp_ref();
    RskParams params;
    params.access = OpKind::kStore;
    params.unroll = 2;
    params.iterations = 30;
    Program scua = make_rsk(params);
    scua.body.push_back({OpKind::kLoad, 1, AddrPattern::fixed(0x0030'0000)});
    const std::vector<Program> contenders =
        make_rsk_contenders(config, OpKind::kStore);
    HwmCampaignOptions options;
    options.runs = 3;

    for (std::uint64_t run = 0; run < options.runs; ++run) {
        Machine machine(config);
        machine.arm_attribution();
        std::uint64_t campaign = 0;
        ASSERT_NE(detail::execute_campaign_run(machine, campaign, scua,
                                               contenders, options, run),
                  kNoCycle);
        machine.finalize_attribution();
        const CycleAttribution& attr = machine.attribution();
        const CoreStats& stats = machine.core(0).stats();
        EXPECT_EQ(attr.timeline(0, StallCause::kStoreGate),
                  stats.load_gate_stall_cycles)
            << "run " << run;
        EXPECT_EQ(attr.timeline(0, StallCause::kStoreBufferFull),
                  stats.store_full_stall_cycles)
            << "run " << run;
        expect_closed(machine, "store-stall run " + std::to_string(run));
    }
}

TEST(Attribution, BusWaitDecomposesIntoBlamePlusDeadSlots) {
    // The blame-matrix contract: per victim, cycles blamed on specific
    // contenders plus dead-slot cycles (nobody held the grant) equal
    // the bus's wait-cycle PMC (sum of per-request gamma). Needs every
    // request granted by finish, so all cores run finite programs and
    // the machine runs to global completion.
    for (const GridPoint& point : config_grid()) {
        Machine machine(point.config);
        machine.arm_attribution();
        RskParams params;
        params.access = OpKind::kLoad;
        params.iterations = 40;
        for (CoreId c = 0; c < point.config.num_cores; ++c) {
            // Distinct injection cadences per core (rsk-nop k = c) so
            // the arbitration pattern isn't lockstep.
            Program program = make_rsk_nop(params, c);
            machine.load_program(c, std::move(program),
                                 /*start_delay=*/c * 7);
        }
        const RunResult result = machine.run();
        ASSERT_FALSE(result.deadline_reached) << point.name;
        machine.finalize_attribution();

        const CycleAttribution& attr = machine.attribution();
        for (CoreId v = 0; v < point.config.num_cores; ++v) {
            const std::string what =
                point.name + " victim " + std::to_string(v);
            EXPECT_EQ(attr.blamed_total(v) + attr.dead_slot_cycles(v),
                      machine.bus().counters(v).wait_cycles)
                << what;
            // Nobody waits on themselves.
            EXPECT_EQ(attr.blamed(v, v), 0u) << what;
            if (point.config.arbiter != ArbiterKind::kTdma) {
                // Work-conserving arbiters never leave a pending
                // request ungranted while the bus idles.
                EXPECT_EQ(attr.dead_slot_cycles(v), 0u) << what;
            }
        }
        expect_closed(machine, point.name);
    }
}

TEST(Attribution, CutoffRunStillCloses) {
    // A run stopped by the cycle cap finalizes mid-flight: requests may
    // sit in queues, transactions mid-service. The holder flushes must
    // still cover every core's timeline up to exactly now().
    for (const GridPoint& point : config_grid()) {
        Machine machine(point.config);
        machine.arm_attribution();
        machine.load_program(
            0, ProgramBuilder("long")
                   .load(AddrPattern::stride(0x0200'0000, 32, 256 * 1024))
                   .iterations(1'000'000)
                   .build());
        for (CoreId c = 1; c < point.config.num_cores; ++c) {
            RskParams params;
            params.access = OpKind::kLoad;
            params.iterations = 1'000'000;
            machine.load_program(c, make_rsk(params));
        }
        ASSERT_EQ(machine.run_core(0, 5'000), kNoCycle) << point.name;
        machine.finalize_attribution();
        expect_closed(machine, point.name + " cutoff");
    }
}

TEST(Attribution, CampaignBitIdenticalAcrossJobsAndSharding) {
    const MachineConfig config = MachineConfig::ngmp_ref();
    const Program scua =
        make_autobench(Autobench::kCacheb, 0x0100'0000, 12, 9);
    const std::vector<Program> contenders =
        make_rsk_contenders(config, OpKind::kLoad);
    HwmCampaignOptions options;
    options.runs = 12;
    options.seed = 11;

    const engine::AttributionCampaignResult reference =
        reference::attribution(config, scua, contenders, options);
    EXPECT_EQ(reference.attribution.runs(), options.runs);
    for (CoreId c = 0; c < config.num_cores; ++c) {
        // Closed accounting survives the campaign sum: every run's core
        // timeline closed, so the summed timelines close against the
        // summed machine cycles.
        std::uint64_t total = 0;
        for (std::size_t cause = 0; cause < kStallCauseCount; ++cause) {
            total += reference.attribution.timeline(
                c, static_cast<StallCause>(cause));
        }
        EXPECT_EQ(total, reference.attribution.machine_cycles())
            << "core " << c;
    }

    const Scenario scenario =
        Scenario::on(config).scua(scua).contenders(contenders).protocol(
            options);
    for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
        Session session;
        session.jobs(jobs);
        const engine::AttributionCampaignResult parallel =
            session.attribution(scenario);
        EXPECT_EQ(parallel.et_isolation, reference.et_isolation);
        expect_same_accumulator(parallel.attribution, reference.attribution,
                                "jobs " + std::to_string(jobs) +
                                    " vs serial");
    }

    // Distributed form: two disjoint shard sets scheduled as two
    // campaigns of one batch, merged in shard order, reproduce the
    // serial accumulator bit-exactly.
    const engine::ReducePlan plan = engine::ReducePlan::for_count(
        static_cast<std::uint64_t>(options.runs));
    const std::size_t mid = plan.shards() / 2;
    engine::ThreadPool pool(4);
    sched::CampaignScheduler scheduler(pool);
    for (const engine::ReducePlan::ShardRange range :
         {engine::ReducePlan::ShardRange{0, mid},
          engine::ReducePlan::ShardRange{mid, plan.shards()}}) {
        sched::CampaignWork work;
        work.inputs.config = config;
        work.inputs.scua = scua;
        work.inputs.contenders = contenders;
        work.inputs.protocol = options;
        for (std::size_t s = range.first; s < range.last; ++s) {
            work.shards.push_back(s);
        }
        scheduler.add(std::move(work), AttributionAccumulator{},
                      [](AttributionAccumulator& acc,
                         const sched::CampaignInputs& in,
                         std::uint64_t run) {
                          static_cast<void>(detail::hwm_campaign_attribute(
                              in.config, in.scua, in.contenders,
                              in.protocol, run, acc, in.fingerprint));
                      });
    }
    scheduler.run();
    AttributionAccumulator merged;
    for (std::size_t half = 0; half < 2; ++half) {
        for (const AttributionAccumulator& shard :
             scheduler.take<AttributionAccumulator>(half).shards) {
            merged.merge(shard);
        }
    }
    expect_same_accumulator(merged, reference.attribution,
                            "shard+merge vs serial");
}

TEST(Attribution, CheckpointCodecRoundTripsAccumulator) {
    const MachineConfig config = MachineConfig::ngmp_ref();
    const Program scua =
        make_autobench(Autobench::kCacheb, 0x0100'0000, 12, 9);
    const std::vector<Program> contenders =
        make_rsk_contenders(config, OpKind::kLoad);
    HwmCampaignOptions options;
    options.runs = 3;
    AttributionAccumulator acc;
    for (std::uint64_t run = 0; run < options.runs; ++run) {
        static_cast<void>(detail::hwm_campaign_attribute(
            config, scua, contenders, options, run, acc));
    }

    CheckpointWriter writer;
    CheckpointCodec::save(writer, acc);
    CheckpointReader reader(writer.bytes());
    const AttributionAccumulator loaded =
        CheckpointCodec::load_attribution(reader);
    EXPECT_EQ(reader.remaining(), 0u);
    expect_same_accumulator(loaded, acc, "codec round trip");

    // Empty state round-trips too (a slice whose shard range held no
    // runs).
    CheckpointWriter empty_writer;
    CheckpointCodec::save(empty_writer, AttributionAccumulator{});
    CheckpointReader empty_reader(empty_writer.bytes());
    const AttributionAccumulator empty =
        CheckpointCodec::load_attribution(empty_reader);
    EXPECT_TRUE(empty.empty());
    EXPECT_EQ(empty.num_cores(), 0u);

    // A tampered timeline must fail the closed-accounting re-check on
    // load instead of being trusted.
    CheckpointWriter tampered;
    {
        CycleAttribution skewed(config.num_cores);
        skewed.add(0, StallCause::kCompute, 1);  // closes to 1, not 0
        AttributionAccumulator extra;
        extra.add(0, skewed);
        // machine_cycles sums total(0)=1, consistent; now break core 1.
        CheckpointCodec::save(tampered, extra);
    }
    std::vector<std::uint8_t> bytes = tampered.bytes();
    CheckpointReader bad_reader(bytes);
    EXPECT_THROW(static_cast<void>(
                     CheckpointCodec::load_attribution(bad_reader)),
                 CheckpointError);
}

TEST(Attribution, RunReportRendersTheAccumulator) {
    // TDMA, so the dead-slot column holds more than zeros.
    MachineConfig config = MachineConfig::scaled(2, 5);
    config.arbiter = ArbiterKind::kTdma;
    const Program scua =
        make_autobench(Autobench::kCacheb, 0x0100'0000, 10, 9);
    const std::vector<Program> contenders =
        make_rsk_contenders(config, OpKind::kLoad);
    HwmCampaignOptions options;
    options.runs = 2;
    AttributionAccumulator acc;
    for (std::uint64_t run = 0; run < options.runs; ++run) {
        static_cast<void>(detail::hwm_campaign_attribute(
            config, scua, contenders, options, run, acc));
    }
    obs::RunReportInfo info;
    info.attribution = &acc;
    const std::string text = obs::render_run_report(info, {}, {});
    const auto number_after = [&text](const std::string& key,
                                      std::size_t from) {
        const std::size_t at = text.find("\"" + key + "\": ", from);
        EXPECT_NE(at, std::string::npos) << key;
        return std::stoull(text.substr(at + key.size() + 4));
    };
    EXPECT_EQ(number_after("num_cores", 0), config.num_cores);
    EXPECT_EQ(number_after("runs", 0), options.runs);
    EXPECT_EQ(number_after("machine_cycles", 0), acc.machine_cycles());
    // The cause names, in enum order.
    std::string causes = "\"causes\": [";
    for (std::size_t cause = 0; cause < kStallCauseCount; ++cause) {
        causes += std::string(cause == 0 ? "\"" : ", \"") +
                  to_string(static_cast<StallCause>(cause)) + "\"";
    }
    EXPECT_NE(text.find(causes + "]"), std::string::npos);
    // Each core's rendered timeline sums to the machine cycles, and its
    // dead slots are the accumulator's.
    std::uint64_t dead_total = 0;
    std::size_t at = 0;
    for (CoreId c = 0; c < config.num_cores; ++c) {
        at = text.find("\"timeline\": {", at);
        ASSERT_NE(at, std::string::npos) << "core " << c;
        const std::size_t end = text.find('}', at);
        std::uint64_t row = 0;
        std::size_t buckets = 0;
        for (std::size_t colon = text.find(": ", at + 13); colon < end;
             colon = text.find(": ", colon + 2)) {
            row += std::stoull(text.substr(colon + 2));
            ++buckets;
        }
        EXPECT_EQ(buckets, kStallCauseCount) << "core " << c;
        EXPECT_EQ(row, acc.machine_cycles()) << "core " << c;
        EXPECT_EQ(number_after("dead_slot_cycles", end),
                  acc.dead_slot_cycles(c))
            << "core " << c;
        dead_total += acc.dead_slot_cycles(c);
        at = end;
    }
    EXPECT_GT(dead_total, 0u);
}

}  // namespace
}  // namespace rrb
