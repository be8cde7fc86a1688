// Tests of the HWM measurement campaign and the L2-miss kernel.
#include "core/campaign.h"

#include <gtest/gtest.h>

#include <set>

#include "core/estimator.h"
#include "core/experiment.h"
#include "core/padding.h"
#include "core/scenario.h"
#include "core/session.h"
#include "kernels/autobench.h"
#include "kernels/rsk.h"
#include "machine/machine.h"

namespace rrb {
namespace {

HwmCampaignOptions small_campaign() {
    HwmCampaignOptions opt;
    opt.runs = 8;
    opt.seed = 7;
    return opt;
}

/// One HWM campaign through Session on a single worker.
HwmCampaignResult session_hwm(const MachineConfig& config,
                              const Program& scua,
                              const std::vector<Program>& contenders,
                              const HwmCampaignOptions& options) {
    Session session;
    return session.jobs(1).hwm(
        Scenario::on(config).scua(scua).contenders(contenders).protocol(
            options));
}

TEST(HwmCampaign, BoundedByEtbWithTrueUbd) {
    const MachineConfig cfg = MachineConfig::ngmp_ref();
    const Program scua =
        make_autobench(Autobench::kCacheb, 0x0100'0000, 150, 3);
    const HwmCampaignResult hwm = session_hwm(
        cfg, scua, make_rsk_contenders(cfg, OpKind::kLoad), small_campaign());
    const Cycle etb = hwm.et_isolation + hwm.nr * cfg.ubd_analytic();
    EXPECT_LE(hwm.high_water_mark, etb);
    EXPECT_GE(hwm.high_water_mark, hwm.et_isolation);
    EXPECT_GE(hwm.high_water_mark, hwm.low_water_mark);
}

TEST(HwmCampaign, PerRequestSlowdownNeverExceedsUbd) {
    const MachineConfig cfg = MachineConfig::ngmp_ref();
    RskParams p;
    p.unroll = 8;
    p.iterations = 30;
    const Program scua = make_rsk(p);
    const HwmCampaignResult hwm = session_hwm(
        cfg, scua, make_rsk_contenders(cfg, OpKind::kLoad), small_campaign());
    EXPECT_LE(hwm.hwm_slowdown_per_request(),
              static_cast<double>(cfg.ubd_analytic()));
    EXPECT_GT(hwm.hwm_slowdown_per_request(), 0.0);
}

TEST(HwmCampaign, RandomOffsetsProduceSpread) {
    // Different alignments should yield different execution times for a
    // bursty scua (not for a saturating rsk, whose synchrony collapses
    // the spread).
    const MachineConfig cfg = MachineConfig::ngmp_ref();
    const Program scua =
        make_autobench(Autobench::kTblook, 0x0100'0000, 100, 5);
    HwmCampaignOptions opt = small_campaign();
    opt.runs = 10;
    const HwmCampaignResult hwm = session_hwm(
        cfg, scua, make_rsk_contenders(cfg, OpKind::kLoad), opt);
    const std::set<Cycle> distinct(hwm.exec_times.begin(),
                                   hwm.exec_times.end());
    EXPECT_GE(distinct.size(), 2u);
}

TEST(HwmCampaign, DeterministicForSameSeed) {
    const MachineConfig cfg = MachineConfig::ngmp_ref();
    const Program scua =
        make_autobench(Autobench::kCanrdr, 0x0100'0000, 60, 2);
    const auto a = session_hwm(
        cfg, scua, make_rsk_contenders(cfg, OpKind::kLoad), small_campaign());
    const auto b = session_hwm(
        cfg, scua, make_rsk_contenders(cfg, OpKind::kLoad), small_campaign());
    EXPECT_EQ(a.exec_times, b.exec_times);
}

TEST(HwmCampaign, Validation) {
    const MachineConfig cfg = MachineConfig::ngmp_ref();
    RskParams p;
    const Program scua = make_rsk(p);
    HwmCampaignOptions opt;
    opt.runs = 0;
    EXPECT_THROW(session_hwm(cfg, scua, {scua}, opt),
                 std::invalid_argument);
    EXPECT_THROW(session_hwm(cfg, scua, {}, {}), std::invalid_argument);
}

TEST(L2MissKernel, EveryLoadReachesDram) {
    const MachineConfig cfg = MachineConfig::ngmp_ref();
    Machine m(cfg);
    RskParams p;
    p.unroll = 8;
    p.iterations = 10;
    const Program kernel = make_rsk_l2miss(p, 256 * 1024);
    m.load_program(0, kernel);
    const RunResult r = m.run(50'000'000);
    ASSERT_FALSE(r.deadline_reached);
    const std::uint64_t loads = m.core(0).stats().loads;
    // Every load misses DL1 and L2 (modulo a few ifetch lines).
    EXPECT_EQ(m.core(0).stats().load_miss_requests, loads);
    EXPECT_GE(m.dram().stats().reads, loads);
}

TEST(L2MissKernel, FootprintValidation) {
    RskParams p;
    EXPECT_THROW((void)make_rsk_l2miss(p, 1024), std::invalid_argument);
}

TEST(L2MissKernel, NopVariantInterleaves) {
    RskParams p;
    p.unroll = 2;
    const Program kernel = make_rsk_l2miss(p, 256 * 1024, 3);
    EXPECT_GT(kernel.count(OpKind::kNop), 0u);
    EXPECT_EQ(kernel.count(OpKind::kNop), kernel.count(OpKind::kLoad) * 3);
}

TEST(L2MissKernel, AddressesNeverRepeatWithinSweep) {
    RskParams p;
    p.unroll = 2;
    const Program kernel = make_rsk_l2miss(p, 256 * 1024);
    std::set<Addr> seen;
    const std::uint64_t passes = 256 * 1024 / (kernel.body.size() * 32);
    for (std::uint64_t it = 0; it < passes; ++it) {
        for (const Instruction& instr : kernel.body) {
            if (instr.kind != OpKind::kLoad) continue;
            const Addr line = instr.addr.address(it) / 32;
            EXPECT_TRUE(seen.insert(line).second) << "line repeated";
        }
    }
}

}  // namespace
}  // namespace rrb
