// Unit tests for the replay subsystem (src/replay): script decode
// determinism, the interpreter fallback and its reasons, L2-outcome
// baking eligibility, per-core script sharing, the lease-held
// program-keyed script pool (sharing across program sets, its
// two-generation bound, remembered declines), and a direct
// replay-vs-interpret differential through the campaign run protocol.
// The full configuration-grid bit-identity proof lives in
// tests/test_hotpath.cpp; these tests pin the replay layer's own
// contracts.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/campaign.h"
#include "core/estimator.h"
#include "core/experiment.h"
#include "engine/machine_lease.h"
#include "fault/fault.h"
#include "kernels/autobench.h"
#include "kernels/rsk.h"
#include "machine/config.h"
#include "machine/machine.h"
#include "obs/telemetry.h"
#include "replay/decode.h"
#include "replay/microop.h"
#include "replay/script_cache.h"
#include "sim/fnv.h"

namespace rrb {
namespace {

Program cacheb_program() {
    return make_autobench(Autobench::kCacheb, 0x0100'0000, 12, 9);
}

Program store_program() {
    RskParams params;
    params.access = OpKind::kStore;
    params.unroll = 2;
    params.iterations = 10;
    return make_rsk(params);
}

replay::L2PartitionSpec partition_spec(Machine& machine) {
    replay::L2PartitionSpec spec;
    spec.geometry = machine.l2().partition_geometry();
    return spec;
}

void expect_same_op(const replay::MicroOp& a, const replay::MicroOp& b,
                    const std::string& what) {
    EXPECT_EQ(a.kind, b.kind) << what;
    EXPECT_EQ(a.flags, b.flags) << what;
    EXPECT_EQ(a.il1_chain_hits, b.il1_chain_hits) << what;
    EXPECT_EQ(a.nops, b.nops) << what;
    EXPECT_EQ(a.instrs, b.instrs) << what;
    EXPECT_EQ(a.span_ops, b.span_ops) << what;
    EXPECT_EQ(a.cycles, b.cycles) << what;
    EXPECT_EQ(a.line, b.line) << what;
    EXPECT_EQ(a.span_cycles, b.span_cycles) << what;
    EXPECT_EQ(a.span_instrs, b.span_instrs) << what;
    EXPECT_EQ(a.span_nops, b.span_nops) << what;
    EXPECT_EQ(a.span_il1_hits, b.span_il1_hits) << what;
    EXPECT_EQ(a.span_loads, b.span_loads) << what;
}

void expect_same_script(const replay::MicroOpScript& a,
                        const replay::MicroOpScript& b) {
    EXPECT_EQ(a.looping, b.looping);
    EXPECT_EQ(a.l2_baked, b.l2_baked);
    EXPECT_EQ(a.loop_start, b.loop_start);
    EXPECT_EQ(a.tail_start, b.tail_start);
    EXPECT_EQ(a.tail_instrs, b.tail_instrs);
    EXPECT_EQ(a.loop_instrs, b.loop_instrs);
    EXPECT_EQ(a.total_instructions, b.total_instructions);
    ASSERT_EQ(a.ops.size(), b.ops.size());
    for (std::size_t i = 0; i < a.ops.size(); ++i) {
        expect_same_op(a.ops[i], b.ops[i], "op " + std::to_string(i));
    }
}

TEST(ScriptDecode, DeterministicForSameProgramAndConfig) {
    // Same (program, config, core) must produce the same script, op for
    // op — the property that lets equal-fingerprint cores share one
    // script and lets a re-decode never change campaign numbers.
    const MachineConfig config = MachineConfig::ngmp_ref();
    const Program program = cacheb_program();
    const auto a = replay::decode_program(program, config.core, 0);
    const auto b = replay::decode_program(program, config.core, 0);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    expect_same_script(*a, *b);
}

TEST(ScriptDecode, StructurallySaneLoopRegions) {
    const MachineConfig config = MachineConfig::ngmp_ref();
    const auto script =
        replay::decode_program(cacheb_program(), config.core, 0);
    ASSERT_NE(script, nullptr);
    EXPECT_GT(script->total_instructions, 0u);
    EXPECT_LE(script->loop_start, script->tail_start);
    EXPECT_LE(script->tail_start, script->ops.size());
    if (script->looping) {
        EXPECT_GT(script->loop_instrs, 0u);
        // The tail is one final (possibly partial) pass of the loop.
        EXPECT_LE(script->tail_instrs, script->loop_instrs);
    } else {
        EXPECT_EQ(script->tail_start, script->ops.size());
    }
}

TEST(ScriptDecode, TightLimitsDeclineInsteadOfTruncating) {
    // A cap too small to cover the program (and find its loop) must
    // return nullptr — the caller falls back to the interpreter; a
    // truncated script would silently change results.
    const MachineConfig config = MachineConfig::ngmp_ref();
    replay::DecodeLimits limits;
    limits.max_ops = 4;
    replay::Decline why = replay::Decline::kNone;
    EXPECT_EQ(replay::decode_program(cacheb_program(), config.core, 0,
                                     nullptr, limits, &why),
              nullptr);
    EXPECT_EQ(why, replay::Decline::kOpCap);

    // cacheb's addresses vary per iteration, so it can never fold;
    // re-scoped to a campaign's cycle cap, its loads alone outnumber the
    // default op cap, and the decode declines before decoding anything.
    Program endless = cacheb_program();
    endless.iterations = 200'000'000;
    why = replay::Decline::kNone;
    EXPECT_EQ(replay::decode_program(endless, config.core, 0, nullptr, {},
                                     &why),
              nullptr);
    EXPECT_EQ(why, replay::Decline::kOpCap);
}

TEST(ScriptDecode, SpentBoundaryBudgetDeclinesOnlyWhatCannotFit) {
    // Under kRandom L1 replacement the victim RNG state is part of every
    // boundary fingerprint, so a program that evicts every wrap never
    // folds. A contender re-scoped to a campaign's cycle cap cannot fit
    // the op cap either: it declines as soon as the budget is spent.
    MachineConfig config = MachineConfig::ngmp_ref();
    config.core.l1_replacement = ReplacementPolicy::kRandom;
    Program contender = make_rsk_contenders(config, OpKind::kLoad).front();
    contender.iterations = 200'000'000;
    replay::Decline why = replay::Decline::kNone;
    EXPECT_EQ(replay::decode_program(contender, config.core, 1, nullptr, {},
                                     &why),
              nullptr);
    EXPECT_EQ(why, replay::Decline::kBoundaryCap);

    // A short program that fits decodes straight through instead, to
    // the same script a budget it never spends would give.
    RskParams params;
    params.unroll = 4;
    params.iterations = 25;
    const Program scua = make_rsk_nop(params, 5);
    replay::DecodeLimits tight;
    tight.max_boundaries = 4;
    const auto straight =
        replay::decode_program(scua, config.core, 0, nullptr, tight, &why);
    ASSERT_NE(straight, nullptr);
    EXPECT_EQ(why, replay::Decline::kNone);
    EXPECT_FALSE(straight->looping);
    const auto unspent = replay::decode_program(scua, config.core, 0);
    ASSERT_NE(unspent, nullptr);
    expect_same_script(*straight, *unspent);
}

TEST(ScriptDecode, BakesL2OnlyForStorelessPrograms) {
    const MachineConfig config = MachineConfig::ngmp_ref();
    Machine machine(config);
    const replay::L2PartitionSpec spec = partition_spec(machine);

    // Storeless program + partition spec: outcomes baked.
    const auto baked =
        replay::decode_program(cacheb_program(), config.core, 0, &spec);
    ASSERT_NE(baked, nullptr);
    EXPECT_TRUE(baked->l2_baked);

    // A program with stores decodes fine but must not bake: store
    // drains write into the partition in a timing-dependent order.
    const auto with_stores =
        replay::decode_program(store_program(), config.core, 0, &spec);
    ASSERT_NE(with_stores, nullptr);
    EXPECT_FALSE(with_stores->l2_baked);

    // No spec, no baking.
    const auto unbaked =
        replay::decode_program(cacheb_program(), config.core, 0);
    ASSERT_NE(unbaked, nullptr);
    EXPECT_FALSE(unbaked->l2_baked);
}

TEST(ScriptDecode, BakedAndUnbakedScriptsAgreeOnEverythingButL2Flags) {
    // Baking only adds the kL2Hit/kL2Evict bits on miss ops; the op
    // stream itself (kinds, lines, cycles, spans) is identical.
    const MachineConfig config = MachineConfig::ngmp_ref();
    Machine machine(config);
    const replay::L2PartitionSpec spec = partition_spec(machine);
    const Program program = cacheb_program();
    const auto baked =
        replay::decode_program(program, config.core, 0, &spec);
    const auto plain = replay::decode_program(program, config.core, 0);
    ASSERT_NE(baked, nullptr);
    ASSERT_NE(plain, nullptr);
    ASSERT_EQ(baked->ops.size(), plain->ops.size());
    const std::uint8_t l2_bits =
        replay::MicroOp::kL2Hit | replay::MicroOp::kL2Evict;
    for (std::size_t i = 0; i < baked->ops.size(); ++i) {
        const replay::MicroOp& b = baked->ops[i];
        const replay::MicroOp& p = plain->ops[i];
        EXPECT_EQ(b.kind, p.kind) << i;
        EXPECT_EQ(b.line, p.line) << i;
        EXPECT_EQ(b.cycles, p.cycles) << i;
        const bool miss_kind =
            b.kind == replay::MicroOp::Kind::kLoadMiss ||
            b.kind == replay::MicroOp::Kind::kIfetchMiss;
        const std::uint8_t mask =
            miss_kind ? static_cast<std::uint8_t>(~l2_bits)
                      : static_cast<std::uint8_t>(~0);
        EXPECT_EQ(b.flags & mask, p.flags & mask) << i;
    }
}

TEST(ScriptDecode, RepeatBoundsStopWhereTheWalkChanges) {
    // cacheb walks 64 KiB in 32-byte steps, one DL1 miss per 32-op loop
    // body. A body repeats the one before it until the DL1 fills
    // (iteration 512: its miss evicts), the walk crosses a DRAM row
    // (iteration 1,024: 32 KiB per row across the four banks) and the
    // walk wraps (iteration 2,048: the L2 partition starts hitting).
    const MachineConfig config = MachineConfig::ngmp_ref();
    Machine machine(config);
    replay::L2PartitionSpec spec = partition_spec(machine);
    spec.dram = &config.dram;
    const auto script = replay::decode_program(
        make_autobench(Autobench::kCacheb, 0x0100'0000, 4096, 9),
        config.core, 0, &spec);
    ASSERT_NE(script, nullptr);
    ASSERT_FALSE(script->looping);
    ASSERT_EQ(script->pass_ops, 32u);
    const auto body = [](std::uint32_t iteration) { return iteration * 32; };
    EXPECT_EQ(script->repeat_pass[body(1)], body(512) - body(1));
    EXPECT_EQ(script->repeat_pass[body(513)], body(1024) - body(513));
    EXPECT_EQ(script->repeat_pass[body(1025)], body(2048) - body(1025));
    // A body's ops differ from their neighbours: no lag-1 run covers one.
    EXPECT_LT(script->repeat_prev[body(1)], 32u);
}

TEST(ScriptDecode, LoopRegionRepeatBoundsWrap) {
    // The estimator's 8-core scua at k = 160: five groups of five loads,
    // each followed by 160 nops (547 ops a body), twenty iterations.
    // Every body's 25 DL1 fills move its five lines one way on (four
    // ways), so the same lines in the same order sit in other ways. LRU
    // victims follow the order alone: the scua folds after one body, and
    // its loop region and tail are one body each. PLRU victims name a
    // way: it folds when the ways come round, after four bodies, and the
    // tail holds three. In the region the bounds count as the cursor
    // walks it, modulo the region: every body repeats the one before
    // it, so the body-lag bound never ends, while the region's first op
    // (a load) does not repeat the region's last (the body's closing
    // nops, loop control folded in).
    const MachineConfig config = MachineConfig::scaled(8, 9);
    Machine machine(config);
    const replay::L2PartitionSpec spec = partition_spec(machine);
    RskParams params;
    params.dl1_geometry = config.core.dl1_geometry;
    params.il1_geometry = config.core.il1_geometry;
    params.unroll = 5;
    params.iterations = 20;
    params.data_base = 0x0010'0000;
    const Program program = make_rsk_nop(params, 160);
    const auto lru =
        replay::decode_program(program, config.core, 0, &spec);
    ASSERT_NE(lru, nullptr);
    ASSERT_TRUE(lru->looping);
    ASSERT_EQ(lru->pass_ops, 547u);
    EXPECT_EQ(lru->loop_start, 547u);
    EXPECT_EQ(lru->tail_start - lru->loop_start, 547u);
    EXPECT_EQ(lru->ops.size() - lru->tail_start, 547u);
    for (std::uint32_t i = lru->loop_start; i < lru->tail_start; ++i) {
        ASSERT_EQ(lru->repeat_pass[i], UINT16_MAX) << "op " << i;
    }
    EXPECT_EQ(lru->repeat_prev[lru->loop_start], 0u);

    CoreConfig plru = config.core;
    plru.l1_replacement = ReplacementPolicy::kPlru;
    const auto scua = replay::decode_program(program, plru, 0, &spec);
    ASSERT_NE(scua, nullptr);
    ASSERT_TRUE(scua->looping);
    ASSERT_EQ(scua->pass_ops, 547u);
    EXPECT_EQ(scua->loop_start, 547u);
    EXPECT_EQ(scua->tail_start - scua->loop_start, 4 * 547u);
    EXPECT_EQ(scua->ops.size() - scua->tail_start, 3 * 547u);
    for (std::uint32_t i = scua->loop_start; i < scua->tail_start; ++i) {
        ASSERT_EQ(scua->repeat_pass[i], UINT16_MAX) << "op " << i;
    }
    EXPECT_EQ(scua->repeat_prev[scua->loop_start], 0u);
    // Straight regions stop at their end: the tail's last body repeats
    // the one before it up to the script's last op.
    EXPECT_EQ(scua->repeat_pass[scua->ops.size() - 547], 547u);

    // A load contender: one 40-load pass whose last load (kWrap)
    // charges loop control. At lag 1 every run stops at the kWrap op
    // and at the load after it — the region's first, across the wrap.
    Program contender = make_rsk_contenders(config, OpKind::kLoad, 8)[0];
    contender.iterations = 1'000;
    const auto rsk = replay::decode_program(contender, config.core, 1,
                                            &spec);
    ASSERT_NE(rsk, nullptr);
    ASSERT_TRUE(rsk->looping);
    const std::uint32_t begin = rsk->loop_start;
    const std::uint32_t end = rsk->tail_start;
    ASSERT_EQ(end - begin, 40u);
    ASSERT_NE(rsk->ops[end - 1].flags & replay::MicroOp::kWrap, 0);
    EXPECT_EQ(rsk->repeat_prev[begin], 0u);
    EXPECT_EQ(rsk->repeat_prev[begin + 1], 38u);
    EXPECT_EQ(rsk->repeat_prev[end - 2], 1u);
    EXPECT_EQ(rsk->repeat_prev[end - 1], 0u);
    // The pass lag is the region itself: every op repeats.
    EXPECT_EQ(rsk->pass_ops, 40u);
    EXPECT_EQ(rsk->repeat_pass[begin], UINT16_MAX);
    EXPECT_EQ(rsk->repeat_pass[end - 1], UINT16_MAX);
}

TEST(PrepareScripts, SharesOneScriptAcrossEqualPrograms) {
    const MachineConfig config = MachineConfig::ngmp_ref();
    Machine machine(config);
    machine.load_program(0, cacheb_program());
    const std::vector<Program> contenders =
        make_rsk_contenders(config, OpKind::kLoad);
    for (CoreId c = 1; c < config.num_cores; ++c) {
        machine.load_program(c, contenders[(c - 1) % contenders.size()]);
    }
    replay::ScriptCache cache;
    replay::prepare_scripts(cache, machine, /*campaign=*/1);
    EXPECT_EQ(cache.campaign, 1u);
    ASSERT_EQ(cache.per_core.size(), config.num_cores);
    ASSERT_NE(cache.per_core[0], nullptr);
    ASSERT_NE(cache.per_core[1], nullptr);
    // Contender cores run the same program: one shared script.
    EXPECT_EQ(cache.per_core[1], cache.per_core[2]);
    EXPECT_EQ(cache.per_core[2], cache.per_core[3]);
    EXPECT_NE(cache.per_core[0], cache.per_core[1]);
    EXPECT_EQ(cache.pool.size(), 2u);  // scua + shared contender
}

TEST(PrepareScripts, RandomReplacementMakesScriptsCoreSpecific) {
    // Under kRandom L1 replacement the victim RNG is seeded per core,
    // so equal programs still decode to core-specific outcome streams.
    MachineConfig config = MachineConfig::ngmp_ref();
    config.core.l1_replacement = ReplacementPolicy::kRandom;
    Machine machine(config);
    const std::vector<Program> contenders =
        make_rsk_contenders(config, OpKind::kLoad);
    for (CoreId c = 1; c < config.num_cores; ++c) {
        machine.load_program(c, contenders[(c - 1) % contenders.size()]);
    }
    replay::ScriptCache cache;
    replay::prepare_scripts(cache, machine, /*campaign=*/1);
    EXPECT_NE(cache.per_core[1], cache.per_core[2]);
    EXPECT_NE(cache.per_core[2], cache.per_core[3]);
}

TEST(LeaseScripts, SurviveReacquisitionAndDieWithTheMachine) {
    engine::MachineLease::drop_thread_cache();
    const MachineConfig config = MachineConfig::ngmp_ref();
    const replay::MicroOpScript* scua_script = nullptr;
    {
        engine::MachineLease lease(config);
        Machine& machine = lease.machine();
        machine.load_program(0, cacheb_program());
        replay::prepare_scripts(lease.scripts(), machine, /*campaign=*/7);
        scua_script = lease.scripts().per_core[0];
        ASSERT_NE(scua_script, nullptr);
    }
    {
        // Same fingerprint -> same cached machine -> the decoded
        // scripts are still there; no re-decode needed.
        engine::MachineLease lease(config);
        EXPECT_EQ(lease.scripts().campaign, 7u);
        ASSERT_EQ(lease.scripts().per_core.size(),
                  std::size_t{config.num_cores});
        EXPECT_EQ(lease.scripts().per_core[0], scua_script);
    }
    // Evicting the machine destroys its scripts with it; a fresh lease
    // starts with an empty cache.
    engine::MachineLease::drop_thread_cache();
    {
        engine::MachineLease lease(config);
        EXPECT_EQ(lease.scripts().campaign, 0u);
        EXPECT_TRUE(lease.scripts().pool.empty());
    }
    engine::MachineLease::drop_thread_cache();
}

TEST(Replay, CampaignRunsMatchInterpreterBitForBit) {
    // The same campaign run through the shared protocol body, once
    // interpreting and once replaying (scripts non-null): finish cycle
    // and the whole Measurement must match, including the L2 partition
    // statistics the baked path injects instead of looking up.
    const MachineConfig config = MachineConfig::ngmp_ref();
    const Program scua = cacheb_program();
    const std::vector<Program> contenders =
        make_rsk_contenders(config, OpKind::kLoad);
    HwmCampaignOptions options;
    options.runs = 4;
    options.seed = 3;
    options.max_start_delay = 499;

    Machine interp(config);
    Machine replayed(config);
    std::uint64_t interp_campaign = 0;
    std::uint64_t replay_campaign = 0;
    replay::ScriptCache scripts;
    for (std::uint64_t run = 0; run < options.runs; ++run) {
        const Cycle fi = detail::execute_campaign_run(
            interp, interp_campaign, scua, contenders, options, run);
        const Cycle fr = detail::execute_campaign_run(
            replayed, replay_campaign, scua, contenders, options, run,
            &scripts);
        ASSERT_NE(fi, kNoCycle);
        EXPECT_EQ(fi, fr) << "run " << run;
        for (CoreId c = 0; c < config.num_cores; ++c) {
            const std::string what =
                "run " + std::to_string(run) + " core " + std::to_string(c);
            EXPECT_EQ(interp.core(c).stats().instructions,
                      replayed.core(c).stats().instructions)
                << what;
            EXPECT_EQ(interp.l2().stats(c).read_hits,
                      replayed.l2().stats(c).read_hits)
                << what;
            EXPECT_EQ(interp.l2().stats(c).read_misses,
                      replayed.l2().stats(c).read_misses)
                << what;
            EXPECT_EQ(interp.l2().stats(c).evictions,
                      replayed.l2().stats(c).evictions)
                << what;
        }
    }
}

// ------------------------------------------------ the program-keyed pool

/// Counter deltas of `body`, run with telemetry on.
template <typename Body>
obs::CounterSnapshot counted(Body&& body) {
    obs::TelemetryRegistry& registry = obs::TelemetryRegistry::instance();
    registry.reset();
    registry.enable();
    body();
    const obs::CounterSnapshot counters = registry.counters();
    registry.disable();
    return counters;
}

Program sweep_scua(std::uint32_t k) {
    RskParams params;
    params.unroll = 4;
    params.iterations = 10;
    params.data_base = 0x0010'0000;
    return make_rsk_nop(params, k);
}

TEST(ScriptPool, ProgramSetsShareTheirCommonScripts) {
    // An estimator k-step: isolation then contention of one scua. The
    // contention run reuses the scua's script, the next k-step the
    // contenders' — each program is decoded once.
    engine::MachineLease::drop_thread_cache();
    const MachineConfig config = MachineConfig::ngmp_ref();
    const std::vector<Program> contenders =
        make_rsk_contenders(config, OpKind::kLoad, 4);
    const obs::CounterSnapshot counters = counted([&] {
        for (std::uint32_t k = 0; k < 3; ++k) {
            (void)run_isolation(config, sweep_scua(k));
            (void)run_contention(config, sweep_scua(k), contenders);
        }
    });
    EXPECT_EQ(counters[obs::kReplayDecodes], 3u + 1u);
    engine::MachineLease::drop_thread_cache();
}

TEST(ScriptPool, KeepsOnlyTheCurrentAndThePreviousProgramSet) {
    engine::MachineLease::drop_thread_cache();
    const MachineConfig config = MachineConfig::ngmp_ref();
    for (std::uint32_t k = 0; k < 6; ++k) {
        (void)run_isolation(config, sweep_scua(k));
    }
    engine::MachineLease lease(config);
    ASSERT_EQ(lease.scripts().pool.size(), 2u);
    // The previous set's script is still pooled: going back decodes
    // nothing, while a set two back was dropped.
    const obs::CounterSnapshot back_one = counted(
        [&] { (void)run_isolation(config, sweep_scua(4)); });
    EXPECT_EQ(back_one[obs::kReplayDecodes], 0u);
    const obs::CounterSnapshot back_two = counted(
        [&] { (void)run_isolation(config, sweep_scua(3)); });
    EXPECT_EQ(back_two[obs::kReplayDecodes], 1u);
    EXPECT_LE(lease.scripts().pool.size(), 2u);
    engine::MachineLease::drop_thread_cache();
}

TEST(ScriptPool, RandomL1ContenderDeclinesOnceAtTheBoundaryCap) {
    // A kRandom-L1 campaign: the load-rsk contender's decode runs out of
    // boundary budget on the first contender core, and the remembered
    // decline covers the other two and every later run.
    engine::MachineLease::drop_thread_cache();
    MachineConfig config = MachineConfig::ngmp_ref();
    config.core.l1_replacement = ReplacementPolicy::kRandom;
    const Program scua = cacheb_program();
    const std::vector<Program> contenders =
        make_rsk_contenders(config, OpKind::kLoad);
    HwmCampaignOptions options;
    options.runs = 3;
    const obs::CounterSnapshot counters = counted([&] {
        for (std::uint64_t run = 0; run < options.runs; ++run) {
            (void)detail::hwm_campaign_run(config, scua, contenders,
                                           options, run);
        }
    });
    EXPECT_EQ(counters[obs::kReplayDeclinesBoundaryCap], 1u);
    EXPECT_EQ(counters[obs::kReplayDeclinesOpCap], 0u);
    EXPECT_EQ(counters[obs::kReplayDecodes], 1u);  // the scua
    EXPECT_EQ(counters[obs::kReplayFallbackRuns], options.runs);
    EXPECT_EQ(counters[obs::kReplayRuns], 0u);
    engine::MachineLease::drop_thread_cache();
}

TEST(ScriptPool, InjectedDeclinesAreNotRemembered) {
    // decode-overflow declines every decode while armed; disarming it
    // must restore replay on the same thread, for the same program.
    engine::MachineLease::drop_thread_cache();
    fault::FaultInjector::instance().disarm();
    const MachineConfig config = MachineConfig::ngmp_ref();
    const Program scua = sweep_scua(3);
    fault::FaultInjector::instance().arm("decode-overflow");
    const obs::CounterSnapshot armed = counted([&] {
        (void)run_isolation(config, scua);
        (void)run_isolation(config, scua);
    });
    fault::FaultInjector::instance().disarm();
    EXPECT_EQ(armed[obs::kReplayDecodes], 0u);
    EXPECT_EQ(armed[obs::kReplayDeclinesInjected], 2u);
    const obs::CounterSnapshot disarmed =
        counted([&] { (void)run_isolation(config, scua); });
    EXPECT_EQ(disarmed[obs::kReplayDecodes], 1u);
    EXPECT_EQ(disarmed[obs::kReplayDeclinesInjected], 0u);
    engine::MachineLease::drop_thread_cache();
}

// ------------------------------------------------------ scripts golden

/// One line per script: every MicroOpScript field folded into one hash,
/// or the decline reason.
std::string script_line(const replay::MicroOpScript* script,
                        replay::Decline why) {
    if (script == nullptr) {
        static const char* const kReasons[] = {"none", "op-cap",
                                               "boundary-cap",
                                               "dirty-replica", "injected"};
        return std::string("declined ") +
               kReasons[static_cast<std::size_t>(why)];
    }
    Fnv1a h;
    for (const replay::MicroOp& op : script->ops) {
        for (const std::uint64_t field :
             {std::uint64_t(op.kind), std::uint64_t{op.flags},
              std::uint64_t{op.il1_chain_hits}, std::uint64_t{op.nops},
              std::uint64_t{op.instrs}, std::uint64_t{op.span_ops},
              std::uint64_t{op.cycles}, op.line,
              std::uint64_t{op.span_cycles}, std::uint64_t{op.span_instrs},
              std::uint64_t{op.span_nops}, std::uint64_t{op.span_il1_hits},
              std::uint64_t{op.span_loads}}) {
            h.u64(field);
        }
    }
    for (const std::uint64_t field :
         {std::uint64_t{script->looping}, std::uint64_t{script->l2_baked},
          std::uint64_t{script->loop_start},
          std::uint64_t{script->tail_start}, script->tail_instrs,
          script->loop_instrs, script->total_instructions,
          std::uint64_t{script->pass_ops}}) {
        h.u64(field);
    }
    for (const std::uint16_t bound : script->repeat_prev) h.u64(bound);
    for (const std::uint16_t bound : script->repeat_pass) h.u64(bound);
    char hash[17];
    std::snprintf(hash, sizeof hash, "%016llx",
                  static_cast<unsigned long long>(h.value()));
    return "ops " + std::to_string(script->ops.size()) + " loop " +
           std::to_string(script->loop_start) + ".." +
           std::to_string(script->tail_start) + " hash " + hash;
}

/// The decode of every program the estimator and the campaigns run, on
/// four platforms under each L1 replacement policy, as prepare_scripts
/// decodes it (scuas as core 0, contenders as core 1).
std::string decode_scripts_golden() {
    const struct {
        const char* name;
        MachineConfig config;
    } platforms[] = {
        {"ngmp_ref", MachineConfig::ngmp_ref()},
        {"ngmp_var", MachineConfig::ngmp_var()},
        {"scaled-8-9", MachineConfig::scaled(8, 9)},
        {"scaled-6-5", MachineConfig::scaled(6, 5)},
    };
    const struct {
        const char* name;
        ReplacementPolicy policy;
    } policies[] = {
        {"lru", ReplacementPolicy::kLru},
        {"fifo", ReplacementPolicy::kFifo},
        {"plru", ReplacementPolicy::kPlru},
        {"random", ReplacementPolicy::kRandom},
    };
    const std::uint64_t cycle_cap = 200'000'000;
    std::string out;
    for (const auto& platform : platforms) {
        for (const auto& policy : policies) {
            MachineConfig config = platform.config;
            config.core.l1_replacement = policy.policy;
            struct Entry {
                std::string name;
                Program program;
                CoreId core;
            };
            std::vector<Entry> programs;
            for (const std::uint32_t unroll : {5u, 8u}) {
                for (const std::uint32_t k : {0u, 1u, 7u, 8u, 9u, 40u, 160u}) {
                    RskParams params;
                    params.dl1_geometry = config.core.dl1_geometry;
                    params.il1_geometry = config.core.il1_geometry;
                    params.unroll = unroll;
                    params.iterations = 20;
                    params.data_base = 0x0010'0000;
                    params.code_base = 0;
                    programs.push_back({"rsk-nop-u" + std::to_string(unroll) +
                                            "-k" + std::to_string(k),
                                        make_rsk_nop(params, k), 0});
                }
            }
            for (const OpKind access : {OpKind::kLoad, OpKind::kStore}) {
                Program contender =
                    make_rsk_contenders(config, access, 8).front();
                contender.iterations = cycle_cap;
                programs.push_back({access == OpKind::kLoad
                                        ? "rsk-load-contender"
                                        : "rsk-store-contender",
                                    std::move(contender), 1});
            }
            programs.push_back(
                {"delta-nop", make_nop_kernel(2048, 64, 1), 0});
            programs.push_back(
                {"saturation-probe", make_nop_kernel(1, 50'000), 0});
            for (const Autobench kernel : all_autobench()) {
                programs.push_back(
                    {std::string("autobench-") + to_string(kernel),
                     make_autobench(kernel, 0x0100'0000, 12, 9), 0});
            }
            Machine machine(config);
            for (const Entry& entry : programs) {
                replay::L2PartitionSpec spec;
                spec.geometry = machine.l2().partition_geometry();
                spec.dram = &config.dram;
                replay::Decline why = replay::Decline::kNone;
                const auto script = replay::decode_program(
                    entry.program, config.core, entry.core, &spec, {}, &why);
                out += std::string(platform.name) + " " + policy.name + " " +
                       entry.name + ": " + script_line(script.get(), why) +
                       "\n";
            }
        }
    }
    return out;
}

TEST(ScriptDecode, MatchesTheGoldenScripts) {
    // tests/golden/scripts.txt pins the decoder's output. The
    // interpreter and the decoder share one functional core, so a change
    // to a shared rule moves both sides of every differential suite
    // alike, but it moves these hashes. A mismatch writes the recomputed
    // file to the test temp dir; re-blessing it is a test change.
    const std::string golden_path =
        std::string(RRB_SOURCE_DIR) + "/tests/golden/scripts.txt";
    std::ifstream in(golden_path, std::ios::binary);
    const std::string expected{std::istreambuf_iterator<char>(in), {}};
    const std::string actual = decode_scripts_golden();
    if (actual == expected) return;
    const std::string written = testing::TempDir() + "scripts.txt";
    std::ofstream(written, std::ios::binary) << actual;
    std::istringstream want(expected);
    std::istringstream got(actual);
    std::string a;
    std::string b;
    std::size_t line = 0;
    while (std::getline(want, a) && std::getline(got, b) && a == b) ++line;
    ADD_FAILURE() << "scripts differ from " << golden_path << " at line "
                  << line + 1 << ":\n  golden: " << a << "\n  decoded: " << b
                  << "\nrecomputed file: " << written;
}

}  // namespace
}  // namespace rrb
