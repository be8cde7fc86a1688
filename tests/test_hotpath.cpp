// Differential harness for the hot-path simulator (PR 5).
//
// The production campaign path — per-worker machine reuse
// (engine::MachineLease + Machine::reset_keep_programs), POD completion
// tokens, and event-driven cycle skipping — must be *bit-identical* to
// the semantics it replaced: a fresh Machine per run stepped cycle by
// cycle. These tests run both paths over a grid of configurations
// (ref/var platforms, 1–4 cores, every arbiter, DRAM-heavy and
// store-heavy kernels), seeds and start delays, and
// compare finish cycles, the full black-box/white-box Measurement
// (PMCs and histograms), and every statistic of every core, cache, the
// bus and the memory controller.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/campaign.h"
#include "core/estimator.h"
#include "core/experiment.h"
#include "core/scenario.h"
#include "core/session.h"
#include "engine/machine_lease.h"
#include "kernels/autobench.h"
#include "kernels/rsk.h"
#include "machine/config.h"
#include "machine/machine.h"

namespace rrb {
namespace {

/// The pre-optimization reference semantics: fresh machine, naive
/// cycle-by-cycle stepping, full program loads.
Measurement reference_measure(const MachineConfig& config,
                              const Program& scua,
                              const std::vector<Program>& contenders,
                              const HwmCampaignOptions& options,
                              std::uint64_t run_index) {
    Machine machine(config);
    machine.set_cycle_skipping(false);
    std::uint64_t no_campaign = 0;
    const Cycle finish = detail::execute_campaign_run(
        machine, no_campaign, scua, contenders, options, run_index);
    return detail::snapshot_measurement(machine, 0, finish,
                                        /*deadline_reached=*/false);
}

void expect_same_histogram(const Histogram& a, const Histogram& b,
                           const std::string& what) {
    EXPECT_EQ(a.total(), b.total()) << what;
    EXPECT_EQ(a.buckets(), b.buckets()) << what;
}

void expect_same_measurement(const Measurement& hot, const Measurement& ref,
                             const std::string& what) {
    EXPECT_EQ(hot.exec_time, ref.exec_time) << what;
    EXPECT_EQ(hot.bus_requests, ref.bus_requests) << what;
    // Doubles must be bit-equal: both sides compute the same integer
    // ratios in the same order.
    EXPECT_EQ(hot.bus_utilization, ref.bus_utilization) << what;
    EXPECT_EQ(hot.scua_bus_share, ref.scua_bus_share) << what;
    EXPECT_EQ(hot.max_gamma, ref.max_gamma) << what;
    expect_same_histogram(hot.gamma, ref.gamma, what + " gamma");
    expect_same_histogram(hot.ready_contenders, ref.ready_contenders,
                          what + " ready_contenders");
    expect_same_histogram(hot.injection_delta, ref.injection_delta,
                          what + " injection_delta");
    EXPECT_EQ(hot.deadline_reached, ref.deadline_reached) << what;
}

void expect_same_core_stats(const CoreStats& hot, const CoreStats& ref,
                            const std::string& what) {
    EXPECT_EQ(hot.instructions, ref.instructions) << what;
    EXPECT_EQ(hot.loads, ref.loads) << what;
    EXPECT_EQ(hot.stores, ref.stores) << what;
    EXPECT_EQ(hot.nops, ref.nops) << what;
    EXPECT_EQ(hot.load_miss_requests, ref.load_miss_requests) << what;
    EXPECT_EQ(hot.ifetch_requests, ref.ifetch_requests) << what;
    EXPECT_EQ(hot.store_drains, ref.store_drains) << what;
    EXPECT_EQ(hot.store_full_stall_cycles, ref.store_full_stall_cycles)
        << what;
    EXPECT_EQ(hot.load_gate_stall_cycles, ref.load_gate_stall_cycles)
        << what;
    expect_same_histogram(hot.load_injection_delta, ref.load_injection_delta,
                          what + " load_injection_delta");
}

void expect_same_cache_stats(const CacheStats& hot, const CacheStats& ref,
                             const std::string& what) {
    EXPECT_EQ(hot.read_hits, ref.read_hits) << what;
    EXPECT_EQ(hot.read_misses, ref.read_misses) << what;
    EXPECT_EQ(hot.write_hits, ref.write_hits) << what;
    EXPECT_EQ(hot.write_misses, ref.write_misses) << what;
    EXPECT_EQ(hot.evictions, ref.evictions) << what;
    EXPECT_EQ(hot.writebacks, ref.writebacks) << what;
}

/// Every statistic the machine keeps, per core and shared — not just the
/// scua's Measurement, so a contender whose bookkeeping slips while the
/// scua's timing holds still fails. Armed machines also compare their
/// finalized attribution cell for cell.
void expect_same_machine(Machine& hot, Machine& ref,
                         const std::string& what) {
    EXPECT_EQ(hot.now(), ref.now()) << what;
    EXPECT_EQ(hot.bus().total_busy_cycles(), ref.bus().total_busy_cycles())
        << what;
    for (CoreId c = 0; c < hot.config().num_cores; ++c) {
        const std::string core = what + " core " + std::to_string(c);
        const BusCoreCounters& hb = hot.bus().counters(c);
        const BusCoreCounters& rb = ref.bus().counters(c);
        EXPECT_EQ(hb.requests, rb.requests) << core;
        EXPECT_EQ(hb.busy_cycles, rb.busy_cycles) << core;
        EXPECT_EQ(hb.wait_cycles, rb.wait_cycles) << core;
        EXPECT_EQ(hb.max_wait, rb.max_wait) << core;
        expect_same_histogram(hb.gamma, rb.gamma, core + " gamma");
        expect_same_histogram(hb.ready_contenders, rb.ready_contenders,
                              core + " ready_contenders");
        expect_same_core_stats(hot.core(c).stats(), ref.core(c).stats(),
                               core);
        expect_same_cache_stats(hot.core(c).il1().stats(),
                                ref.core(c).il1().stats(), core + " il1");
        expect_same_cache_stats(hot.core(c).dl1().stats(),
                                ref.core(c).dl1().stats(), core + " dl1");
        expect_same_cache_stats(hot.l2().stats(c), ref.l2().stats(c),
                                core + " l2");
    }
    const DramStats& hd = hot.dram().stats();
    const DramStats& rd = ref.dram().stats();
    EXPECT_EQ(hd.reads, rd.reads) << what;
    EXPECT_EQ(hd.writes, rd.writes) << what;
    EXPECT_EQ(hd.row_hits, rd.row_hits) << what;
    EXPECT_EQ(hd.row_misses, rd.row_misses) << what;
    EXPECT_EQ(hd.row_conflicts, rd.row_conflicts) << what;
    EXPECT_EQ(hd.total_latency, rd.total_latency) << what;
    expect_same_histogram(hd.latency, rd.latency, what + " dram latency");

    ASSERT_EQ(hot.attribution_armed(), ref.attribution_armed()) << what;
    if (!hot.attribution_armed()) return;
    hot.finalize_attribution();
    ref.finalize_attribution();
    const CycleAttribution& ha = hot.attribution();
    const CycleAttribution& ra = ref.attribution();
    for (CoreId v = 0; v < hot.config().num_cores; ++v) {
        const std::string core = what + " core " + std::to_string(v);
        for (std::size_t cause = 0; cause < kStallCauseCount; ++cause) {
            const StallCause sc = static_cast<StallCause>(cause);
            EXPECT_EQ(ha.timeline(v, sc), ra.timeline(v, sc))
                << core << " " << to_string(sc);
        }
        EXPECT_EQ(ha.dead_slot_cycles(v), ra.dead_slot_cycles(v)) << core;
        for (CoreId w = 0; w < hot.config().num_cores; ++w) {
            EXPECT_EQ(ha.blamed(v, w), ra.blamed(v, w))
                << core << " blamed on " << w;
        }
    }
}

struct GridPoint {
    std::string name;
    MachineConfig config;
};

std::vector<GridPoint> config_grid() {
    std::vector<GridPoint> grid;
    grid.push_back({"ngmp_ref", MachineConfig::ngmp_ref()});
    grid.push_back({"ngmp_var", MachineConfig::ngmp_var()});
    grid.push_back({"scaled_2x5", MachineConfig::scaled(2, 5)});
    grid.push_back({"textbook", MachineConfig::textbook()});
    {
        MachineConfig cfg = MachineConfig::ngmp_ref();
        cfg.arbiter = ArbiterKind::kTdma;  // non-work-conserving skipping
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

/// Scuas chosen to exercise distinct hot-path machinery: L2-hit loads
/// (cacheb), nop/alu batching (a2time), the DRAM split-transaction path
/// (a 256KB walk misses the 64KB L2 partition), and the store drain /
/// full-buffer / load-gate stalls (store rsk with interleaved loads).
std::vector<Program> scua_set() {
    std::vector<Program> scuas;
    scuas.push_back(make_autobench(Autobench::kCacheb, 0x0100'0000, 12, 9));
    scuas.push_back(make_autobench(Autobench::kA2time, 0x0100'0000, 10, 3));
    scuas.push_back(ProgramBuilder("dram-walk")
                        .load(AddrPattern::stride(0x0200'0000, 32,
                                                  256 * 1024))
                        .nop(2)
                        .iterations(300)
                        .build());
    {
        RskParams params;
        params.access = OpKind::kStore;
        params.unroll = 2;
        params.iterations = 25;
        Program store_heavy = make_rsk(params);
        // A trailing load closes the store buffer gate every pass.
        store_heavy.body.push_back(
            {OpKind::kLoad, 1, AddrPattern::fixed(0x0030'0000)});
        store_heavy.name = "store-heavy";
        scuas.push_back(store_heavy);
    }
    return scuas;
}

TEST(HotPathDifferential, GridIsBitIdenticalToFreshNaiveReference) {
    std::uint64_t bus_only_steps[2] = {};  // unarmed, armed
    for (const GridPoint& point : config_grid()) {
        for (const OpKind access : {OpKind::kLoad, OpKind::kStore}) {
            const std::vector<Program> contenders =
                make_rsk_contenders(point.config, access);
            for (const Program& scua : scua_set()) {
                for (const std::uint64_t seed : {1ULL, 7ULL}) {
                    HwmCampaignOptions options;
                    options.runs = 3;
                    options.seed = seed;
                    options.max_start_delay = 997;
                    for (const bool armed : {false, true}) {
                        // Production: a leased machine (restarted in
                        // place on repeat runs), replaying, cycle
                        // skipping and bus-only steps.
                        engine::MachineLease lease(point.config);
                        Machine& hot = lease.machine();
                        for (std::uint64_t run = 0; run < options.runs;
                             ++run) {
                            const std::string what =
                                point.name + "/" +
                                (access == OpKind::kLoad ? "load" : "store") +
                                "/" + scua.name + "/seed" +
                                std::to_string(seed) +
                                (armed ? "/armed" : "") + "/run" +
                                std::to_string(run);
                            if (armed) hot.arm_attribution();
                            const Cycle hot_finish =
                                detail::execute_campaign_run(
                                    hot, lease.campaign(), scua, contenders,
                                    options, run, &lease.scripts());
                            Machine ref(point.config);
                            ref.set_cycle_skipping(false);
                            if (armed) ref.arm_attribution();
                            std::uint64_t no_campaign = 0;
                            const Cycle ref_finish =
                                detail::execute_campaign_run(
                                    ref, no_campaign, scua, contenders,
                                    options, run);
                            EXPECT_EQ(hot_finish, ref_finish) << what;
                            expect_same_measurement(
                                detail::snapshot_measurement(
                                    hot, 0, hot_finish, false),
                                detail::snapshot_measurement(
                                    ref, 0, ref_finish, false),
                                what);
                            expect_same_machine(hot, ref, what);
                            bus_only_steps[armed] += hot.bus_only_steps();
                            hot.disarm_attribution();
                        }
                    }
                }
            }
        }
    }
    // The grid must reach the bus-only step, armed and unarmed.
    EXPECT_GT(bus_only_steps[0], 0u);
    EXPECT_GT(bus_only_steps[1], 0u);
}

/// Every cycle of a run is a full step of one kind, a bus-only step, a
/// skipped cycle or a fast-forwarded cycle.
std::uint64_t accounted_cycles(const Machine& m) {
    std::uint64_t cycles =
        m.bus_only_steps() + m.cycles_skipped() + m.cycles_fast_forwarded();
    for (std::size_t kind = 0;
         kind < static_cast<std::size_t>(Machine::StepKind::kCount); ++kind) {
        cycles += m.steps(static_cast<Machine::StepKind>(kind));
    }
    return cycles;
}

/// One run of `scua` against `contenders` on the leased machine —
/// replaying, cycle skipping, fast-forwarding — and on a fresh naively
/// stepped machine, armed or not: every statistic, histogram and
/// attribution cell must agree, and every cycle must be accounted for by
/// step kind. Returns the periods the leased run fast-forwarded.
std::uint64_t expect_fast_forward_exact(
    engine::MachineLease& lease, const MachineConfig& config,
    const Program& scua, const std::vector<Program>& contenders,
    const HwmCampaignOptions& options, std::uint64_t run, bool armed,
    const std::string& what) {
    Machine& hot = lease.machine();
    if (armed) hot.arm_attribution();
    const Cycle hot_finish = detail::execute_campaign_run(
        hot, lease.campaign(), scua, contenders, options, run,
        &lease.scripts());
    Machine ref(config);
    ref.set_cycle_skipping(false);
    if (armed) ref.arm_attribution();
    std::uint64_t no_campaign = 0;
    const Cycle ref_finish = detail::execute_campaign_run(
        ref, no_campaign, scua, contenders, options, run);
    EXPECT_EQ(hot_finish, ref_finish) << what;
    expect_same_measurement(
        detail::snapshot_measurement(hot, 0, hot_finish, false),
        detail::snapshot_measurement(ref, 0, ref_finish, false), what);
    expect_same_machine(hot, ref, what);
    EXPECT_EQ(accounted_cycles(hot), hot.now()) << what;
    EXPECT_EQ(accounted_cycles(ref), ref.now()) << what;
    EXPECT_EQ(ref.periods_fast_forwarded(), 0u) << what;
    hot.disarm_attribution();
    return hot.periods_fast_forwarded();
}

TEST(HotPathDifferential, LongScuasFastForwardBitIdentically) {
    // The steady-state fast-forward skips whole scua loop-body periods.
    // Long cacheb scuas make it skip many of them: 150 iterations is
    // the attribution campaign's length, 640 crosses many contender loop
    // wraps, and 4,096 crosses the DRAM row change at iteration 1,024
    // and the 64 KiB walk's wrap at 2,048, where the scua's baked L2
    // outcome flips from miss to hit. Every run must equal fresh naive
    // stepping, armed or not, and account for every cycle by step kind;
    // every eligible run must skip periods, and TDMA runs (absolute-time
    // slots) never may.
    std::vector<GridPoint> grid;
    for (GridPoint& point : config_grid()) {
        if (point.name == "ngmp_ref" || point.name == "scaled_2x5" ||
            point.name == "wrr" || point.name == "tdma") {
            grid.push_back(std::move(point));
        }
    }
    ASSERT_EQ(grid.size(), 4u);
    for (const GridPoint& point : grid) {
        const std::vector<Program> contenders =
            make_rsk_contenders(point.config, OpKind::kLoad);
        for (const std::uint64_t iterations : {150ULL, 640ULL, 4096ULL}) {
            const Program scua = make_autobench(
                Autobench::kCacheb, 0x0100'0000, iterations, 9);
            HwmCampaignOptions options;
            options.runs = 2;
            options.seed = 3;
            for (const bool armed : {false, true}) {
                engine::MachineLease lease(point.config);
                for (std::uint64_t run = 0; run < options.runs; ++run) {
                    const std::string what =
                        point.name + "/cacheb" + std::to_string(iterations) +
                        (armed ? "/armed" : "") + "/run" +
                        std::to_string(run);
                    const std::uint64_t periods = expect_fast_forward_exact(
                        lease, point.config, scua, contenders, options, run,
                        armed, what);
                    if (point.name == "tdma") {
                        EXPECT_EQ(periods, 0u) << what;
                    } else {
                        EXPECT_GT(periods, 0u) << what;
                    }
                }
            }
        }
    }
}

TEST(HotPathDifferential, LoopingScuasFastForwardBitIdentically) {
    // The estimator's scuas loop: an rsk-nop script re-enters a loop
    // region of one or more bodies (four on scaled(8,9) at large k), so
    // the fast-forward moves every cursor modulo its loop region and
    // stops before the scua's tail. k spans the saw-tooth — 0, either
    // side of ubd, and 2·ubd + 3 where the scua misses whole rounds —
    // and 10, 40 and 200 iterations leave the loop 2 to 199 passes.
    // Each isolation and contention run, with the estimator's protocol
    // (no release offsets), must equal fresh naive stepping, armed or
    // not. TDMA runs and runs with store programs (a live L2 partition)
    // never skip. Every isolation run skips, and every load-contender
    // sweep on a round-robin bus, except where the design forbids it:
    // under WRR the scua's three slots a round keep a contender's
    // 40-load pass from spanning whole periods.
    std::vector<GridPoint> grid = {
        {"ngmp_ref", MachineConfig::ngmp_ref()},
        {"scaled_8x9", MachineConfig::scaled(8, 9)},
        {"scaled_6x5", MachineConfig::scaled(6, 5)},
        {"scaled_2x9", MachineConfig::scaled(2, 9)},
    };
    for (GridPoint& point : config_grid()) {
        if (point.name == "wrr" || point.name == "tdma") {
            grid.push_back(std::move(point));
        }
    }
    ASSERT_EQ(grid.size(), 6u);
    HwmCampaignOptions options;
    options.runs = 1;
    options.max_start_delay = 0;
    for (const GridPoint& point : grid) {
        const MachineConfig& config = point.config;
        const Cycle ubd = config.ubd_analytic();
        const bool round_robin = point.name.rfind("scaled", 0) == 0 ||
                                 point.name == "ngmp_ref";
        const struct {
            std::string name;
            std::vector<Program> programs;
        } contender_sets[] = {
            {"isolation", {}},
            {"load", make_rsk_contenders(config, OpKind::kLoad, 8)},
            {"store", make_rsk_contenders(config, OpKind::kStore, 8)},
        };
        for (const auto& [contention, contenders] : contender_sets) {
            for (const bool armed : {false, true}) {
                engine::MachineLease lease(config);
                std::uint64_t periods = 0;
                for (const Cycle k : {Cycle{0}, ubd - 1, ubd, 2 * ubd + 3}) {
                    for (const std::uint64_t iterations :
                         {10ULL, 40ULL, 200ULL}) {
                        RskParams params;
                        params.dl1_geometry = config.core.dl1_geometry;
                        params.il1_geometry = config.core.il1_geometry;
                        params.unroll = 8;
                        params.iterations = iterations;
                        params.data_base = 0x0010'0000;
                        const Program scua = make_rsk_nop(
                            params, static_cast<std::uint32_t>(k));
                        const std::string what =
                            point.name + "/" + contention + "/k" +
                            std::to_string(k) + "/i" +
                            std::to_string(iterations) +
                            (armed ? "/armed" : "");
                        const std::uint64_t run_periods =
                            expect_fast_forward_exact(lease, config, scua,
                                                      contenders, options, 0,
                                                      armed, what);
                        if (contention == "isolation" &&
                            point.name != "tdma") {
                            EXPECT_GT(run_periods, 0u) << what;
                        }
                        periods += run_periods;
                    }
                }
                const std::string what =
                    point.name + "/" + contention + (armed ? "/armed" : "");
                if (point.name == "tdma" || contention == "store") {
                    EXPECT_EQ(periods, 0u) << what;
                } else if (contention == "isolation" || round_robin) {
                    EXPECT_GT(periods, 0u) << what;
                }
            }
        }
    }
}

TEST(HotPathDifferential, SuperPeriodsFastForwardBitIdentically) {
    // The 8-core sweep at k_max 160 caps the scua's unroll at five
    // groups (25 loads a body) while the contenders keep eight (40-load
    // passes): each contender's loop wrap moves every body, so only a
    // super-period of m bodies, after which every contender has walked
    // whole passes, can repeat. k spans one, two and three bus rounds
    // (7 x 9 = 63 cycles) per scua load: a contender issues 25, 50 or
    // 75 loads a body, m is 8, 4 or 8, and 20 iterations leave room for
    // one recorded super-period and one skipped (three at m = 4), 40
    // iterations for more. At k = 62 the loop control at the end of each
    // scua body makes it miss one more round: a contender issues 26
    // loads a body, m = 20 fits neither run, and the runs give up. On
    // three cores at lbus 3, against contenders that idle after each
    // load (one 17-cycle nop), some super-periods end in another state
    // than they began although every contender walked whole passes:
    // those runs (k = 38, 42, 71) must give up, not skip; the others
    // skip. Each run must equal fresh naive stepping, armed or not, and
    // fast-forward the scua bodies expected.
    const auto scua_at = [](const MachineConfig& config, std::uint32_t k,
                            std::uint64_t iterations) {
        RskParams params;
        params.dl1_geometry = config.core.dl1_geometry;
        params.il1_geometry = config.core.il1_geometry;
        params.unroll = 5;
        params.iterations = iterations;
        params.data_base = 0x0010'0000;
        return make_rsk_nop(params, k);
    };
    HwmCampaignOptions options;
    options.runs = 1;
    options.max_start_delay = 0;
    const MachineConfig eight = MachineConfig::scaled(8, 9);
    const MachineConfig three = MachineConfig::scaled(3, 3);
    const struct {
        std::uint32_t k;
        std::uint64_t bodies_at_20;  ///< fast-forwarded at 20 iterations
    } points[] = {{0, 8},    {40, 8},   {62, 0},   {63, 12},
                  {100, 12}, {135, 8},  {136, 8},  {160, 8}};
    for (const bool armed : {false, true}) {
        const std::string tag = armed ? "/armed" : "";
        {
            engine::MachineLease lease(eight);
            const std::vector<Program> contenders =
                make_rsk_contenders(eight, OpKind::kLoad, 8);
            for (const auto& [k, bodies_at_20] : points) {
                for (const std::uint64_t iterations : {20ULL, 40ULL}) {
                    const std::string what = "8 cores/k" + std::to_string(k) +
                                             "/i" +
                                             std::to_string(iterations) + tag;
                    const std::uint64_t bodies = expect_fast_forward_exact(
                        lease, eight, scua_at(eight, k, iterations),
                        contenders, options, 0, armed, what);
                    if (iterations == 20) {
                        EXPECT_EQ(bodies, bodies_at_20) << what;
                    } else if (k != 62) {
                        EXPECT_GT(bodies, bodies_at_20) << what;
                    }
                }
            }
        }
        engine::MachineLease lease(three);
        RskParams idle;
        idle.dl1_geometry = three.core.dl1_geometry;
        idle.unroll = 8;
        idle.data_base = 0x0800'0000;
        idle.code_base = 0x0004'0000;
        idle.nop_latency = 17;
        const std::vector<Program> contenders = {make_rsk_nop(idle, 1)};
        for (const std::uint32_t k : {13u, 38u, 42u, 56u, 71u, 77u}) {
            const std::string what = "3 cores/k" + std::to_string(k) + tag;
            const std::uint64_t bodies = expect_fast_forward_exact(
                lease, three, scua_at(three, k, 40), contenders, options, 0,
                armed, what);
            if (k == 38 || k == 42 || k == 71) {
                EXPECT_EQ(bodies, 0u) << what;
            } else {
                EXPECT_GT(bodies, 0u) << what;
            }
        }
    }
}

TEST(HotPathDifferential, StallCountersMatchNaivePath) {
    // Stall PMCs (full store buffer, load gate) charge per cycle; the
    // skipper must observe every one of those cycles. Drive a reused
    // skipping machine and fresh naive machines over the same runs and
    // compare the whole per-core counter set.
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
    options.runs = 4;

    Machine hot(config);  // reused across runs, skipping on (default)
    std::uint64_t hot_campaign = 0;
    for (std::uint64_t run = 0; run < options.runs; ++run) {
        const Cycle hot_finish = detail::execute_campaign_run(
            hot, hot_campaign, scua, contenders, options, run);

        Machine ref(config);
        ref.set_cycle_skipping(false);
        std::uint64_t ref_campaign = 0;
        const Cycle ref_finish = detail::execute_campaign_run(
            ref, ref_campaign, scua, contenders, options, run);

        EXPECT_EQ(hot_finish, ref_finish) << "run " << run;
        for (CoreId c = 0; c < config.num_cores; ++c) {
            expect_same_core_stats(
                hot.core(c).stats(), ref.core(c).stats(),
                "run " + std::to_string(run) + " core " + std::to_string(c));
        }
    }
}

TEST(HotPathDifferential, CampaignHwmsMatchAtEveryJobCount) {
    // End to end through the engine: the campaign's exec-time vector and
    // HWM/LWM are identical to a loop of naive-reference runs, at jobs 1
    // and 4 (worker count must never leak into the numbers).
    const MachineConfig config = MachineConfig::ngmp_ref();
    const Program scua = make_autobench(Autobench::kCacheb, 0x0100'0000,
                                        15, 9);
    const std::vector<Program> contenders =
        make_rsk_contenders(config, OpKind::kLoad);
    HwmCampaignOptions options;
    options.runs = 8;
    options.seed = 5;

    std::vector<Cycle> reference;
    for (std::uint64_t run = 0; run < options.runs; ++run) {
        reference.push_back(
            reference_measure(config, scua, contenders, options, run)
                .exec_time);
    }

    for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
        Session session;
        session.jobs(jobs);
        const HwmCampaignResult result = session.hwm(
            Scenario::on(config).scua(scua).contenders(contenders).protocol(
                options));
        EXPECT_EQ(result.exec_times, reference) << "jobs " << jobs;
    }
}

TEST(MachineReset, RunAfterResetEqualsFreshMachineRun) {
    // State-leak probe: run program A, reset, run program B — every
    // observable of the B run must equal a fresh machine's B run.
    const MachineConfig config = MachineConfig::ngmp_ref();
    const Program a = make_autobench(Autobench::kCacheb, 0x0100'0000, 10, 9);
    const Program b = make_autobench(Autobench::kTblook, 0x0200'0000, 10, 3);

    Machine reused(config);
    reused.load_program(0, a);
    reused.warm_static_footprint(0);
    ASSERT_NE(reused.run_core(0), kNoCycle);

    reused.reset();
    reused.load_program(0, b);
    reused.warm_static_footprint(0);
    const Cycle reused_finish = reused.run_core(0);

    Machine fresh(config);
    fresh.load_program(0, b);
    fresh.warm_static_footprint(0);
    const Cycle fresh_finish = fresh.run_core(0);

    EXPECT_EQ(reused_finish, fresh_finish);
    const Measurement mr = detail::snapshot_measurement(reused, 0,
                                                        reused_finish, false);
    const Measurement mf = detail::snapshot_measurement(fresh, 0,
                                                        fresh_finish, false);
    expect_same_measurement(mr, mf, "post-reset run B");
    // Cache statistics too: a leaked line would show up as a hit delta.
    EXPECT_EQ(reused.l2().stats(0).read_hits, fresh.l2().stats(0).read_hits);
    EXPECT_EQ(reused.l2().stats(0).read_misses,
              fresh.l2().stats(0).read_misses);
    EXPECT_EQ(reused.core(0).il1().stats().read_hits,
              fresh.core(0).il1().stats().read_hits);
    EXPECT_EQ(reused.core(0).dl1().stats().read_misses,
              fresh.core(0).dl1().stats().read_misses);
    EXPECT_EQ(reused.dram().stats().reads, fresh.dram().stats().reads);
}

TEST(MachineReset, ResetForgetsPrograms) {
    Machine machine(MachineConfig::ngmp_ref());
    machine.load_program(0, ProgramBuilder("n").nop(4).iterations(2).build());
    ASSERT_NE(machine.run_core(0), kNoCycle);
    machine.reset();
    EXPECT_EQ(machine.now(), 0u);
    EXPECT_THROW(machine.run_core(0), std::invalid_argument);
    EXPECT_THROW(machine.restart_program(0), std::invalid_argument);
}

TEST(MachineLease, ReusesOneMachinePerConfigFingerprint) {
    engine::MachineLease::drop_thread_cache();
    const MachineConfig ref = MachineConfig::ngmp_ref();
    Machine* first = nullptr;
    {
        engine::MachineLease lease(ref);
        first = &lease.machine();
        lease.campaign() = 42;
    }
    {
        engine::MachineLease lease(ref);
        EXPECT_EQ(&lease.machine(), first);  // same cached machine
        EXPECT_EQ(lease.campaign(), 42u);    // campaign tag survives
    }
    EXPECT_EQ(engine::MachineLease::cached_machines(), 1u);
    {
        engine::MachineLease lease(MachineConfig::ngmp_var());
        EXPECT_NE(&lease.machine(), first);
    }
    EXPECT_EQ(engine::MachineLease::cached_machines(), 2u);
    engine::MachineLease::drop_thread_cache();
    EXPECT_EQ(engine::MachineLease::cached_machines(), 0u);
}

TEST(MachineLease, EvictsLeastRecentlyUsedBeyondCap) {
    engine::MachineLease::drop_thread_cache();
    const std::vector<MachineConfig> configs = {
        MachineConfig::ngmp_ref(), MachineConfig::ngmp_var(),
        MachineConfig::textbook(), MachineConfig::scaled(2, 5),
        MachineConfig::scaled(3, 9), MachineConfig::p4080_like()};
    for (const MachineConfig& config : configs) {
        engine::MachineLease lease(config);
        (void)lease.machine();
    }
    EXPECT_LE(engine::MachineLease::cached_machines(), 4u);
    engine::MachineLease::drop_thread_cache();
}

TEST(MachineRun, RunCoreAgreesWithRunUntilCore) {
    const MachineConfig config = MachineConfig::ngmp_ref();
    const Program scua = make_autobench(Autobench::kCacheb, 0x0100'0000,
                                        10, 9);
    Machine a(config);
    a.load_program(0, scua);
    a.warm_static_footprint(0);
    const RunResult r = a.run_until_core(0);
    ASSERT_FALSE(r.deadline_reached);

    Machine b(config);
    b.load_program(0, scua);
    b.warm_static_footprint(0);
    EXPECT_EQ(b.run_core(0), r.finish_cycle[0]);
}

TEST(MachineRun, DeadlineStillReportedWithSkipping) {
    Machine machine(MachineConfig::ngmp_ref());
    machine.load_program(
        0, ProgramBuilder("long").nop(4).iterations(1'000'000).build());
    EXPECT_EQ(machine.run_core(0, 100), kNoCycle);
    EXPECT_EQ(machine.now(), 100u);  // skipping never overshoots the cap
}

}  // namespace
}  // namespace rrb
