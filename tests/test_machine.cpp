#include "machine/machine.h"

#include <gtest/gtest.h>

#include "kernels/rsk.h"

namespace rrb {
namespace {

TEST(MachineConfig, NgmpRefMatchesPaperNumbers) {
    const MachineConfig cfg = MachineConfig::ngmp_ref();
    EXPECT_EQ(cfg.num_cores, 4u);
    EXPECT_EQ(cfg.load_hit_service(), 9u);  // 6 L2 hit + 3 transfer
    EXPECT_EQ(cfg.ubd_analytic(), 27u);     // (4-1) * 9
    EXPECT_EQ(cfg.core.dl1_latency, 1u);
    EXPECT_EQ(cfg.core.dl1_geometry.size_bytes, 16u * 1024u);
    EXPECT_EQ(cfg.core.dl1_geometry.ways, 4u);
    EXPECT_EQ(cfg.core.dl1_geometry.line_bytes, 32u);
    EXPECT_EQ(cfg.l2_geometry.size_bytes, 256u * 1024u);
}

TEST(MachineConfig, NgmpVarShiftsInjectionTime) {
    const MachineConfig cfg = MachineConfig::ngmp_var();
    EXPECT_EQ(cfg.core.dl1_latency, 4u);
    EXPECT_EQ(cfg.ubd_analytic(), 27u);  // same bus, same ubd
}

TEST(MachineConfig, TextbookMatchesFigure3) {
    const MachineConfig cfg = MachineConfig::textbook();
    EXPECT_EQ(cfg.load_hit_service(), 2u);
    EXPECT_EQ(cfg.ubd_analytic(), 6u);
}

TEST(MachineConfig, ValidationCatchesBadTdmaSlot) {
    MachineConfig cfg = MachineConfig::ngmp_ref();
    cfg.arbiter = ArbiterKind::kTdma;
    cfg.tdma_slot_cycles = 4;  // < lbus = 9
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(Machine, SingleCoreNopProgramFinishes) {
    Machine m(MachineConfig::ngmp_ref());
    m.load_program(0, ProgramBuilder("n").nop(8).iterations(10).build());
    const RunResult r = m.run(100000);
    EXPECT_FALSE(r.deadline_reached);
    EXPECT_NE(r.finish_cycle[0], kNoCycle);
}

TEST(Machine, IsolatedRskLoadTiming) {
    // In isolation each rsk load costs dl1_latency + lbus; cold ifetches
    // and loop control add a bounded overhead.
    const MachineConfig cfg = MachineConfig::ngmp_ref();
    RskParams params;
    params.unroll = 8;
    params.iterations = 100;
    Machine m(cfg);
    const Program rsk = make_rsk(params);
    m.load_program(0, rsk);
    const RunResult r = m.run(10'000'000);
    ASSERT_FALSE(r.deadline_reached);
    const auto loads = static_cast<double>(rsk.body.size()) * 100.0;
    const double per_load =
        static_cast<double>(r.finish_cycle[0]) / loads;
    // dl1(1) + lbus(9) = 10, plus <5% overhead.
    EXPECT_GE(per_load, 10.0);
    EXPECT_LE(per_load, 10.5);
    // Every load missed DL1 and went to the bus.
    EXPECT_EQ(m.core(0).stats().load_miss_requests,
              static_cast<std::uint64_t>(loads));
}

TEST(Machine, RskLoadsAlwaysHitL2) {
    Machine m(MachineConfig::ngmp_ref());
    RskParams params;
    params.unroll = 4;
    params.iterations = 50;
    m.load_program(0, make_rsk(params));
    const RunResult r = m.run(10'000'000);
    ASSERT_FALSE(r.deadline_reached);
    const CacheStats& l2 = m.l2().stats(0);
    // Only cold misses (5 data lines + a few code lines).
    EXPECT_LE(l2.read_misses, 16u);
    EXPECT_GT(l2.read_hits, 200u);
    // Nothing reached DRAM after the cold fills.
    EXPECT_LE(m.dram().stats().accesses(), 16u);
}

TEST(Machine, L2MissGoesToDramAndBack) {
    MachineConfig cfg = MachineConfig::ngmp_ref();
    Machine m(cfg);
    // Strided walk over 256KB >> 64KB partition: repeated L2 misses.
    Program p = ProgramBuilder("big-walk")
                    .load(AddrPattern::stride(0, 32, 256 * 1024))
                    .iterations(4096)
                    .build();
    m.load_program(0, p);
    const RunResult r = m.run(50'000'000);
    ASSERT_FALSE(r.deadline_reached);
    EXPECT_GT(m.dram().stats().reads, 2048u);
    // Split transactions: miss requests + fill responses both counted as
    // bus requests.
    EXPECT_GT(m.bus().counters(0).requests, 4096u);
}

TEST(Machine, StoreRskDrainsThroughBus) {
    Machine m(MachineConfig::ngmp_ref());
    RskParams params;
    params.access = OpKind::kStore;
    params.unroll = 2;
    params.iterations = 20;
    m.load_program(0, make_rsk(params));
    const RunResult r = m.run(10'000'000);
    ASSERT_FALSE(r.deadline_reached);
    EXPECT_EQ(m.core(0).stats().store_drains,
              m.core(0).stats().stores);
    EXPECT_GE(m.core(0).stats().stores, 200u);
}

TEST(Machine, RunUntilCoreLeavesContendersRunning) {
    Machine m(MachineConfig::ngmp_ref());
    m.load_program(0, ProgramBuilder("short").nop(4).iterations(10).build());
    m.load_program(1,
                   ProgramBuilder("long").nop(4).iterations(1'000'000).build());
    const RunResult r = m.run_until_core(0, 1'000'000);
    EXPECT_FALSE(r.deadline_reached);
    EXPECT_NE(r.finish_cycle[0], kNoCycle);
    EXPECT_EQ(r.finish_cycle[1], kNoCycle);  // still running
}

TEST(Machine, DeadlineReported) {
    Machine m(MachineConfig::ngmp_ref());
    m.load_program(0, ProgramBuilder("n").nop(4).iterations(1'000'000).build());
    const RunResult r = m.run(100);
    EXPECT_TRUE(r.deadline_reached);
}

TEST(Machine, FourRskSaturateBus) {
    // Section 4.3's confidence check: Nc rsk drive utilization to ~100%.
    Machine m(MachineConfig::ngmp_ref());
    RskParams params;
    params.unroll = 8;
    params.iterations = 200;
    for (CoreId c = 0; c < 4; ++c) {
        RskParams p = params;
        p.data_base = 0x0010'0000 + c * 0x0010'0000;
        p.code_base = c * 0x0001'0000;
        m.load_program(c, make_rsk(p));
    }
    const RunResult r = m.run_until_core(0, 50'000'000);
    ASSERT_FALSE(r.deadline_reached);
    EXPECT_GE(m.bus().utilization(m.now()), 0.97);
}

TEST(Machine, WarmRskBusRequestsAreItsDl1Misses) {
    // Every rsk load misses DL1 and goes to the bus; with the code
    // warmed, nothing else does.
    Machine m(MachineConfig::ngmp_ref());
    RskParams p;
    p.unroll = 4;
    p.iterations = 20;
    m.load_program(0, make_rsk(p));
    m.warm_static_footprint(0);
    m.run(1'000'000);
    EXPECT_EQ(m.bus().counters(0).requests, m.core(0).dl1().stats().misses());
}

TEST(Machine, SaturatedBusSplitsItsBusyCyclesAcrossCores) {
    // Four warmed rsk saturate the bus, each holds it about a quarter of
    // the time, and the per-core busy cycles sum to the bus's total.
    Machine m(MachineConfig::ngmp_ref());
    for (CoreId c = 0; c < 4; ++c) {
        RskParams p;
        p.unroll = 4;
        p.iterations = 50;
        p.data_base = 0x0010'0000 + c * 0x0010'0000;
        p.code_base = c * 0x0001'0000;
        m.load_program(c, make_rsk(p));
        m.warm_static_footprint(c);
    }
    m.run_until_core(0, 10'000'000);
    const double cycles = static_cast<double>(m.now());
    const double total = static_cast<double>(m.bus().total_busy_cycles());
    const double core0 = static_cast<double>(m.bus().counters(0).busy_cycles);
    EXPECT_GT(total / cycles, 0.97);
    EXPECT_GT(core0 / cycles, 0.2);
    EXPECT_LT(core0 / cycles, 0.3);
    std::uint64_t sum = 0;
    for (CoreId c = 0; c < 4; ++c) sum += m.bus().counters(c).busy_cycles;
    EXPECT_EQ(sum, m.bus().total_busy_cycles());
}

TEST(Machine, CoreIdValidation) {
    Machine m(MachineConfig::ngmp_ref());
    EXPECT_THROW((void)m.core(4), std::invalid_argument);
    EXPECT_THROW(m.load_program(9, ProgramBuilder("n").nop(1).build()),
                 std::invalid_argument);
    EXPECT_THROW(m.run_until_core(0), std::invalid_argument);  // no program
}

}  // namespace
}  // namespace rrb
