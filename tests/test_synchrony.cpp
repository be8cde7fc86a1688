// Validation of the synchrony effect (Section 3): the simulated per-request
// contention delays under saturation must match Equation 2 exactly, for
// the didactic lbus=2 setup of Figure 3 and for the NGMP setups.
#include <gtest/gtest.h>

#include "core/analytic.h"
#include "core/experiment.h"
#include "kernels/rsk.h"
#include "machine/machine.h"

namespace rrb {
namespace {

/// Runs rsk-nop(k) on core 0 against Nc-1 rsk and returns the dominant
/// (mode) per-request contention delay of core 0's requests.
std::uint64_t dominant_gamma(const MachineConfig& cfg, std::uint32_t k,
                             std::uint64_t iterations = 60,
                             OpKind contender_access = OpKind::kLoad) {
    RskParams scua_params;
    scua_params.dl1_geometry = cfg.core.dl1_geometry;
    scua_params.iterations = iterations;
    const Program scua = make_rsk_nop(scua_params, k);

    RskParams contender_params = scua_params;
    contender_params.access = contender_access;
    contender_params.data_base = 0x0800'0000;
    contender_params.code_base = 0x0004'0000;
    const Program contender = make_rsk(contender_params);

    const Measurement m =
        run_contention(cfg, scua, {contender}, 0, 100'000'000);
    EXPECT_FALSE(m.deadline_reached);
    EXPECT_FALSE(m.gamma.empty());
    return m.gamma.mode();
}

TEST(Synchrony, Figure3GammaMatrixForTextbookSetup) {
    // Figure 3: 4 cores, lbus = 2, ubd = 6. Injection time delta = k + 1
    // (dl1_latency = 1), so gamma(mode) must equal Eq. 2 at delta = k+1.
    const MachineConfig cfg = MachineConfig::textbook();
    const Cycle ubd = cfg.ubd_analytic();
    ASSERT_EQ(ubd, 6u);
    for (std::uint32_t k = 0; k <= 13; ++k) {
        const Cycle delta = k + 1;  // delta_rsk = 1
        EXPECT_EQ(dominant_gamma(cfg, k), gamma_eq2(delta, ubd))
            << "k = " << k;
    }
}

TEST(Synchrony, RefArchitectureModeGammaIsUbdMinus1) {
    // Section 5.2 / Figure 6(b): with delta_rsk = 1, nearly all requests
    // suffer ubd - 1 = 26 — never 27.
    const MachineConfig cfg = MachineConfig::ngmp_ref();
    EXPECT_EQ(dominant_gamma(cfg, 0), cfg.ubd_analytic() - 1);
}

TEST(Synchrony, VarArchitectureModeGammaIsUbdMinus4) {
    // With delta_rsk = 4: ubdm = 27 - 4 = 23 (Figure 6(b) var bar).
    const MachineConfig cfg = MachineConfig::ngmp_var();
    EXPECT_EQ(dominant_gamma(cfg, 0), cfg.ubd_analytic() - 4);
}

TEST(Synchrony, MeanBusWaitIsUbdMinus1) {
    // The bus's own counters tell the same story as the gamma mode:
    // under synchrony nearly every request of the scua waits ubd - 1.
    const MachineConfig cfg = MachineConfig::ngmp_ref();
    Machine m(cfg);
    for (CoreId c = 0; c < 4; ++c) {
        RskParams p;
        p.unroll = 4;
        p.iterations = c == 0 ? 60 : 100'000;
        p.data_base = 0x0010'0000 + c * 0x0010'0000;
        p.code_base = c * 0x0001'0000;
        m.load_program(c, make_rsk(p));
        m.warm_static_footprint(c);
    }
    m.run_until_core(0, 10'000'000);
    const BusCoreCounters& bus = m.bus().counters(0);
    ASSERT_GT(bus.requests, 0u);
    EXPECT_NEAR(static_cast<double>(bus.wait_cycles) /
                    static_cast<double>(bus.requests),
                static_cast<double>(cfg.ubd_analytic() - 1), 0.5);
}

TEST(Synchrony, SingleGammaDominates) {
    // "We observe that most of the requests, 98% of them, have the same
    // contention delay": the synchrony effect locks the rotation.
    const MachineConfig cfg = MachineConfig::ngmp_ref();
    RskParams params;
    params.iterations = 100;
    params.unroll = 32;
    const Program scua = make_rsk(params);
    RskParams cp = params;
    cp.data_base = 0x0800'0000;
    const Measurement m =
        run_contention(cfg, scua, {make_rsk(cp)}, 0, 100'000'000);
    ASSERT_FALSE(m.gamma.empty());
    EXPECT_GE(m.gamma.mode_fraction(), 0.98);
}

class Equation2Sweep
    : public ::testing::TestWithParam<std::tuple<CoreId, Cycle>> {};

TEST_P(Equation2Sweep, GammaMatchesModelAcrossPlatforms) {
    // Property test over (Nc, lbus): for several injection times the
    // dominant simulated contention equals Equation 2.
    const auto [num_cores, lbus] = GetParam();
    const MachineConfig cfg = MachineConfig::scaled(num_cores, lbus);
    const Cycle ubd = ubd_eq1(num_cores, lbus);
    ASSERT_EQ(cfg.ubd_analytic(), ubd);

    for (const std::uint32_t k : {0u, 1u, 3u,
                                  static_cast<std::uint32_t>(ubd - 1),
                                  static_cast<std::uint32_t>(ubd),
                                  static_cast<std::uint32_t>(ubd + 2)}) {
        const Cycle delta = k + 1;
        EXPECT_EQ(dominant_gamma(cfg, k, 40), gamma_eq2(delta, ubd))
            << "Nc=" << num_cores << " lbus=" << lbus << " k=" << k;
    }
}

// Note: Nc = 2 with *load* contenders is excluded on purpose. The
// synchrony effect requires the remaining contenders to keep the bus
// saturated across one contender's re-injection gap, i.e.
// (Nc - 2) * lbus >= delta_rsk; a single load rsk (delta_rsk = 1) leaves
// 1-cycle bus holes that shift the alignment away from Equation 2. The
// dedicated test below pins down that boundary.
INSTANTIATE_TEST_SUITE_P(
    Platforms, Equation2Sweep,
    ::testing::Values(std::make_tuple(3u, Cycle{3}),
                      std::make_tuple(4u, Cycle{2}),
                      std::make_tuple(4u, Cycle{5}),
                      std::make_tuple(4u, Cycle{9}),
                      std::make_tuple(8u, Cycle{2}),
                      std::make_tuple(8u, Cycle{9})));

TEST(Synchrony, TwoCoreSaturationBoundary) {
    // With Nc = 2, a load contender (delta_rsk = 1) cannot saturate the
    // bus: (Nc-2)*lbus = 0 < delta_rsk, so Equation 2 must NOT be assumed.
    const MachineConfig cfg = MachineConfig::scaled(2, 9);
    const Cycle ubd = cfg.ubd_analytic();  // 9

    int load_mismatches = 0;
    int store_mismatches = 0;
    for (std::uint32_t k = 0; k <= 12; k += 2) {
        const Cycle delta = k + 1;
        if (dominant_gamma(cfg, k, 40, OpKind::kLoad) !=
            gamma_eq2(delta, ubd)) {
            ++load_mismatches;
        }
        // Store-rsk contenders drain with delta = 0 (always pending), so
        // the saturation premise holds and Equation 2 applies exactly.
        if (dominant_gamma(cfg, k, 40, OpKind::kStore) !=
            gamma_eq2(delta, ubd)) {
            ++store_mismatches;
        }
    }
    EXPECT_GT(load_mismatches, 0);   // the premise really fails
    EXPECT_EQ(store_mismatches, 0);  // and delta=0 contenders restore it
}

TEST(Synchrony, NoSynchronyUnderTdma) {
    // Ablation: the saw-tooth mechanism is RR-specific. Under TDMA the
    // contention delay is set by slot position, not by RR rotation, so
    // gamma must not follow Equation 2's delta dependence.
    MachineConfig cfg = MachineConfig::textbook();
    cfg.arbiter = ArbiterKind::kTdma;
    cfg.tdma_slot_cycles = 2;  // = lbus
    const Cycle ubd = cfg.ubd_analytic();
    // Under TDMA with slot = lbus a saturated core gets one slot per
    // Nc*lbus cycles; with delta = 1 the wait is Nc*lbus - 1 - lbus + ...
    // — the precise value is schedule math, but it must differ from RR's
    // gamma for at least one delta in a period sweep.
    int mismatches = 0;
    for (std::uint32_t k = 0; k <= 6; ++k) {
        const Cycle delta = k + 1;
        if (dominant_gamma(cfg, k, 40) != gamma_eq2(delta, ubd)) ++mismatches;
    }
    EXPECT_GT(mismatches, 0);
}

}  // namespace
}  // namespace rrb
