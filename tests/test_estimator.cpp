// End-to-end tests of the paper's methodology: ubd recovered from pure
// execution-time measurements, with no bus-latency knowledge — and
// recovered bit-identically by the leased, replaying sweep and by the
// fresh-machine interpreter (tests/serial_reference.h).
#include "core/estimator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <string>

#include "core/analytic.h"
#include "core/calibrate.h"
#include "core/experiment.h"
#include "core/scenario.h"
#include "core/session.h"
#include "core/store_span.h"
#include "engine/machine_lease.h"
#include "kernels/rsk.h"
#include "obs/telemetry.h"
#include "replay/script_cache.h"
#include "serial_reference.h"

namespace rrb {
namespace {

UbdEstimatorOptions fast_options(std::uint32_t k_max) {
    UbdEstimatorOptions opt;
    opt.k_max = k_max;
    opt.unroll = 8;
    opt.rsk_iterations = 30;
    return opt;
}

TEST(Calibration, DeltaNopIsOneCycleOnNgmp) {
    const NopCalibration cal =
        calibrate_delta_nop(MachineConfig::ngmp_ref());
    EXPECT_EQ(cal.rounded(), 1u);
    EXPECT_LT(cal.residual(), 0.02);
    EXPECT_GT(cal.nops_executed, 10000u);
}

TEST(Calibration, SlowNopPipeMeasured) {
    // If nops took 2 cycles the calibration must say so (Section 4.2's
    // "unlikely case delta_nop > 1").
    const MachineConfig cfg = MachineConfig::ngmp_ref();
    const std::size_t body = 1024;
    const Program kernel = make_nop_kernel(body, 32, /*nop_latency=*/2);
    const Measurement m = run_isolation(cfg, kernel);
    const double per_nop = static_cast<double>(m.exec_time) /
                           static_cast<double>(body * 32);
    EXPECT_NEAR(per_nop, 2.0, 0.1);
}

TEST(Estimator, RecoversUbdOnTextbookSetup) {
    // lbus = 2, ubd = 6 (Figure 3's platform).
    const UbdEstimate e =
        estimate_ubd(MachineConfig::textbook(), fast_options(16));
    ASSERT_TRUE(e.found);
    EXPECT_EQ(e.ubd, 6u);
    EXPECT_EQ(e.period_k, 6u);
}

TEST(Estimator, RecoversUbd27OnNgmpRef) {
    const MachineConfig cfg = MachineConfig::ngmp_ref();
    const UbdEstimate e = estimate_ubd(cfg, fast_options(60));
    ASSERT_TRUE(e.found);
    EXPECT_EQ(e.ubd, cfg.ubd_analytic());  // 27
    EXPECT_TRUE(e.confidence.saturated);
    EXPECT_GE(e.confidence.detector_votes, 2);
}

TEST(Estimator, RecoversUbd27OnNgmpVar) {
    // Robustness (Section 5.3): the var architecture shifts the sweep's
    // phase (peaks at 24/51 instead of 0/27/54) but not its period.
    const MachineConfig cfg = MachineConfig::ngmp_var();
    const UbdEstimate e = estimate_ubd(cfg, fast_options(60));
    ASSERT_TRUE(e.found);
    EXPECT_EQ(e.ubd, 27u);
}

TEST(Estimator, SweepTooShortReportsNotFound) {
    // k_max = 10 < one period (27): the estimator must say so rather than
    // fabricate a bound.
    const UbdEstimate e =
        estimate_ubd(MachineConfig::ngmp_ref(), fast_options(10));
    EXPECT_FALSE(e.found);
    EXPECT_FALSE(e.confidence.warnings.empty());
}

TEST(Estimator, DbusSeriesIsPeriodicWithUbd) {
    const UbdEstimate e =
        estimate_ubd(MachineConfig::textbook(), fast_options(18));
    ASSERT_TRUE(e.found);
    ASSERT_EQ(e.dbus.size(), 19u);
    for (std::size_t k = 0; k + 6 < e.dbus.size(); ++k) {
        EXPECT_NEAR(e.dbus[k], e.dbus[k + 6], e.dbus[k] * 0.02 + 1.0)
            << "k " << k;
    }
}

TEST(Estimator, IsolationTimeGrowsWithK) {
    // More nops = longer isolated execution; sanity of the sweep data.
    const UbdEstimate e =
        estimate_ubd(MachineConfig::textbook(), fast_options(12));
    ASSERT_GE(e.et_isolation.size(), 12u);
    EXPECT_LT(e.et_isolation.front(), e.et_isolation.back());
}

TEST(Estimator, SweepRunsPastTheCycleCapThrow) {
    UbdEstimatorOptions options = fast_options(8);
    options.max_cycles_per_run = 1000;
    EXPECT_THROW((void)estimate_ubd(MachineConfig::textbook(), options),
                 CycleCapReached);
}

TEST(Estimator, OptionValidation) {
    EXPECT_THROW(estimate_ubd(MachineConfig::textbook(), [] {
                     UbdEstimatorOptions o;
                     o.k_max = 2;
                     return o;
                 }()),
                 std::invalid_argument);
}

class SlowNopSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(SlowNopSweep, AliasedSweepStillRecoversUbd) {
    // Section 4.2's delta_nop > 1 case, including the aliasing trap:
    // delta_nop = 2 yields period_k = 27 (gcd(27,2) = 1), where the naive
    // period_k * delta_nop conversion would report 54. The amplitude
    // disambiguation must recover 27 for every nop latency.
    const MachineConfig cfg = MachineConfig::ngmp_ref();
    UbdEstimatorOptions opt = fast_options(70);
    opt.rsk_iterations = 20;
    opt.nop_latency = GetParam();
    const UbdEstimate e = estimate_ubd(cfg, opt);
    ASSERT_TRUE(e.found) << "nop latency " << GetParam();
    EXPECT_EQ(e.ubd, 27u) << "nop latency " << GetParam();
    EXPECT_NEAR(e.confidence.nop.delta_nop, GetParam(), 0.05);
}

INSTANTIATE_TEST_SUITE_P(NopLatencies, SlowNopSweep,
                         ::testing::Values(1u, 2u, 3u));

class EstimatorPlatformSweep
    : public ::testing::TestWithParam<std::tuple<CoreId, Cycle>> {};

TEST_P(EstimatorPlatformSweep, UbdEqualsEquationOne) {
    // The headline property: for every platform shape, the measured ubd
    // equals (Nc - 1) * lbus with zero knowledge of lbus.
    const auto [num_cores, lbus] = GetParam();
    const MachineConfig cfg = MachineConfig::scaled(num_cores, lbus);

    const Cycle expected = cfg.ubd_analytic();
    const auto k_max = static_cast<std::uint32_t>(expected * 5 / 2 + 4);
    const UbdEstimate e = estimate_ubd(cfg, fast_options(k_max));
    ASSERT_TRUE(e.found) << "Nc=" << num_cores << " lbus=" << lbus;
    EXPECT_EQ(e.ubd, expected) << "Nc=" << num_cores << " lbus=" << lbus;
}

INSTANTIATE_TEST_SUITE_P(
    Platforms, EstimatorPlatformSweep,
    ::testing::Values(std::make_tuple(3u, Cycle{9}),
                      std::make_tuple(4u, Cycle{2}),
                      std::make_tuple(4u, Cycle{5}),
                      std::make_tuple(4u, Cycle{13}),
                      std::make_tuple(8u, Cycle{5})));

TEST(Estimator, TwoCoreLoadContenderIsConservativeAndFlagged) {
    // With Nc = 2 a single load rsk cannot saturate the bus (its DL1
    // lookup leaves a 1-cycle hole per rotation). The measured period
    // becomes lbus + delta_rsk — a conservative over-approximation of
    // ubd = lbus — and the confidence check must flag the missing
    // saturation so the user knows the estimate is not tight.
    for (const Cycle lbus : {Cycle{5}, Cycle{9}}) {
        const MachineConfig cfg = MachineConfig::scaled(2, lbus);
        const Cycle exact = cfg.ubd_analytic();
        const UbdEstimate e = estimate_ubd(cfg, fast_options(30));
        ASSERT_TRUE(e.found) << "lbus=" << lbus;
        EXPECT_GE(e.ubd, exact);                  // never optimistic
        EXPECT_EQ(e.ubd, exact + 1);              // window + delta_rsk
        EXPECT_FALSE(e.confidence.saturated);     // and the user is told
        EXPECT_FALSE(e.confidence.warnings.empty());
    }
}

TEST(EstimatorProperty, GridRecoversEquationOneAndBoundsCampaigns) {
    // The paper's guarantees on a fixed grid of 3-8 cores x lbus 3-9:
    // with the CLI's options (unroll 8, 20 iterations) and a sweep of
    // max(70, 3·ubd + 10) steps, the estimator returns Equation 1's ubd
    // from execution times alone, and no run of a short pwcet campaign
    // (the CLI's cacheb scua against load-rsk contenders) exceeds
    // ETB = et_isolation + nr·ubd. From k_max 102 on the IL1 caps the
    // sweep's unroll below the contenders' 8: 5 cores at lbus 9 (unroll
    // 6), 8 at lbus 5 (7) and 8 at lbus 9 (4).
    const struct {
        CoreId cores;
        Cycle lbus;
    } grid[] = {{3, 3}, {3, 9}, {4, 6}, {5, 9},
                {6, 5}, {7, 3}, {8, 5}, {8, 9}};
    for (const auto& [cores, lbus] : grid) {
        const std::string what =
            std::to_string(cores) + " cores, lbus " + std::to_string(lbus);
        const Cycle ubd = ubd_eq1(cores, lbus);
        CampaignKnobs knobs;
        knobs.cores = cores;
        knobs.lbus = lbus;
        knobs.iterations = 20;
        knobs.runs = 100;
        knobs.block_size = 10;
        const MachineConfig cfg = knobs.config();
        UbdEstimatorOptions opt;
        opt.k_max = static_cast<std::uint32_t>(
            std::max<Cycle>(70, 3 * ubd + 10));
        opt.unroll = 8;
        opt.rsk_iterations = 20;
        const UbdEstimate e = estimate_ubd(cfg, opt);
        EXPECT_TRUE(e.found) << what;
        EXPECT_EQ(e.ubd, ubd) << what;

        const CampaignSetup setup = build_campaign(knobs);
        Session session;
        session.jobs(1);
        const PwcetCampaignResult campaign =
            session.pwcet(setup.scenario, setup.spec);
        EXPECT_EQ(campaign.runs, 100u) << what;
        EXPECT_LE(campaign.high_water_mark, campaign.etb(ubd)) << what;
    }
}

// ------------------------------------ replayed sweeps vs the oracle

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_same_series(const std::vector<double>& got,
                        const std::vector<double>& want,
                        const std::string& what) {
    ASSERT_EQ(got.size(), want.size()) << what;
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(bits(got[i]), bits(want[i])) << what << " [" << i << "]";
    }
}

void expect_same_period(const PeriodEstimate& got,
                        const PeriodEstimate& want, const std::string& what) {
    EXPECT_EQ(got.period, want.period) << what;
    EXPECT_EQ(bits(got.score), bits(want.score)) << what;
}

/// Every UbdEstimate field; doubles by bit pattern.
void expect_same_estimate(const UbdEstimate& got, const UbdEstimate& want,
                          const std::string& what) {
    EXPECT_EQ(got.found, want.found) << what;
    EXPECT_EQ(got.ubd, want.ubd) << what;
    EXPECT_EQ(got.period_k, want.period_k) << what;
    EXPECT_EQ(bits(got.amplitude_per_request),
              bits(want.amplitude_per_request))
        << what;
    EXPECT_EQ(got.nr, want.nr) << what;
    expect_same_series(got.dbus, want.dbus, what + " dbus");
    expect_same_series(got.et_isolation, want.et_isolation,
                       what + " et_isolation");
    expect_same_series(got.et_contention, want.et_contention,
                       what + " et_contention");
    const PeriodConsensus& gc = got.consensus;
    const PeriodConsensus& wc = want.consensus;
    EXPECT_EQ(gc.period, wc.period) << what;
    expect_same_period(gc.exact, wc.exact, what + " exact");
    expect_same_period(gc.equal_value, wc.equal_value, what + " equal");
    expect_same_period(gc.peaks, wc.peaks, what + " peaks");
    expect_same_period(gc.autocorr, wc.autocorr, what + " autocorr");
    EXPECT_EQ(gc.votes, wc.votes) << what;
    const ConfidenceReport& gr = got.confidence;
    const ConfidenceReport& wr = want.confidence;
    EXPECT_EQ(bits(gr.saturation_utilization),
              bits(wr.saturation_utilization))
        << what;
    EXPECT_EQ(gr.saturated, wr.saturated) << what;
    EXPECT_EQ(bits(gr.nop.delta_nop), bits(wr.nop.delta_nop)) << what;
    EXPECT_EQ(gr.nop.nops_executed, wr.nop.nops_executed) << what;
    EXPECT_EQ(gr.nop.exec_time, wr.nop.exec_time) << what;
    EXPECT_EQ(gr.detector_votes, wr.detector_votes) << what;
    EXPECT_EQ(gr.warnings, wr.warnings) << what;
}

/// Every StoreSpanEstimate field.
void expect_same_span(const StoreSpanEstimate& got,
                      const StoreSpanEstimate& want,
                      const std::string& what) {
    EXPECT_EQ(got.found, want.found) << what;
    EXPECT_EQ(got.ubd, want.ubd) << what;
    EXPECT_EQ(got.plateau_end, want.plateau_end) << what;
    EXPECT_EQ(got.first_zero, want.first_zero) << what;
    expect_same_series(got.dbus, want.dbus, what + " dbus");
}

/// A sweep long enough for 2.5 saw-tooth periods, kept short otherwise.
UbdEstimatorOptions oracle_options(const MachineConfig& cfg) {
    UbdEstimatorOptions opt = fast_options(
        static_cast<std::uint32_t>(cfg.ubd_analytic() * 5 / 2 + 4));
    opt.rsk_iterations = 10;
    return opt;
}

void expect_estimates_match_oracle(const MachineConfig& cfg,
                                   const UbdEstimatorOptions& opt,
                                   const std::string& what) {
    const UbdEstimate got = estimate_ubd(cfg, opt);
    EXPECT_TRUE(got.found) << what;
    expect_same_estimate(got,
                         estimate_ubd(cfg, opt, reference::fresh_machines()),
                         what);
    // The store span ends at k + 1 = Nc * lbus = ubd + lbus.
    UbdEstimatorOptions span = opt;
    const Cycle ubd = cfg.ubd_analytic();
    span.k_max = static_cast<std::uint32_t>(ubd + ubd / (cfg.num_cores - 1) + 8);
    const StoreSpanEstimate got_span = estimate_ubd_store_span(cfg, span);
    EXPECT_TRUE(got_span.found) << what;
    expect_same_span(
        got_span,
        estimate_ubd_store_span(cfg, span, reference::fresh_machines()),
        what + " store span");
}

TEST(EstimatorOracle, PlatformsMatchTheFreshMachineInterpreter) {
    const struct {
        const char* name;
        MachineConfig config;
    } platforms[] = {
        {"ngmp_ref", MachineConfig::ngmp_ref()},
        {"ngmp_var", MachineConfig::ngmp_var()},
        {"scaled(8,9)", MachineConfig::scaled(8, 9)},
        {"scaled(6,5)", MachineConfig::scaled(6, 5)},
        {"scaled(2,9)", MachineConfig::scaled(2, 9)},
    };
    for (const auto& [name, cfg] : platforms) {
        expect_estimates_match_oracle(cfg, oracle_options(cfg), name);
    }
    // Ten iterations barely reach a steady state; at forty the
    // steady-state fast-forward skips most of every run's periods.
    for (const auto& [name, cfg] : {platforms[0], platforms[2]}) {
        UbdEstimatorOptions opt = oracle_options(cfg);
        opt.rsk_iterations = 40;
        expect_estimates_match_oracle(cfg, opt,
                                      std::string(name) + " at 40 iterations");
    }
    // Past k_max 101 the IL1 caps the scua's unroll below the
    // contenders' 8 (unroll 7 here), and at 20 iterations most
    // contention runs skip super-periods of whole contender passes.
    const MachineConfig capped = MachineConfig::scaled(8, 5);
    UbdEstimatorOptions opt = oracle_options(capped);
    opt.k_max = 115;
    opt.rsk_iterations = 20;
    expect_estimates_match_oracle(capped, opt,
                                  "scaled(8,5), capped unroll");
}

TEST(EstimatorOracle, L1PoliciesAndSlowNopsMatchTheOracle) {
    const struct {
        const char* name;
        ReplacementPolicy policy;
    } policies[] = {{"plru", ReplacementPolicy::kPlru},
                    {"fifo", ReplacementPolicy::kFifo},
                    {"random", ReplacementPolicy::kRandom}};
    for (const auto& [name, policy] : policies) {
        MachineConfig cfg = MachineConfig::ngmp_ref();
        cfg.core.l1_replacement = policy;
        expect_estimates_match_oracle(cfg, oracle_options(cfg), name);
    }
    const MachineConfig cfg = MachineConfig::ngmp_ref();
    UbdEstimatorOptions slow = oracle_options(cfg);
    slow.nop_latency = 2;
    expect_estimates_match_oracle(cfg, slow, "nop latency 2");
}

TEST(EstimatorOracle, SweepDecodesEachProgramOnce) {
    // One decode per distinct program the estimator runs: the nop
    // calibration kernel, the saturation probe's one-nop scua and its
    // rsk contender (re-scoped to the probe window), one rsk-nop scua
    // per k — shared by that k's isolation and contention runs — and
    // the sweep's rsk contender, shared by every contender core and
    // every k. A sweep that interprets decodes nothing; one that
    // re-decodes its contender per k decodes k_max more.
    engine::MachineLease::drop_thread_cache();
    const MachineConfig cfg = MachineConfig::ngmp_ref();
    const UbdEstimatorOptions opt = oracle_options(cfg);
    obs::TelemetryRegistry& registry = obs::TelemetryRegistry::instance();
    registry.reset();
    registry.enable();
    const UbdEstimate e = estimate_ubd(cfg, opt);
    const obs::CounterSnapshot counters = registry.counters();
    registry.disable();
    EXPECT_TRUE(e.found);
    EXPECT_EQ(counters[obs::kReplayDecodes], opt.k_max + 1u + 4u);
    EXPECT_EQ(counters[obs::kReplayDeclinesOpCap] +
                  counters[obs::kReplayDeclinesBoundaryCap] +
                  counters[obs::kReplayDeclinesDirtyReplica] +
                  counters[obs::kReplayDeclinesInjected],
              0u);
    // Experiment runs stay out of the campaign counters.
    EXPECT_EQ(counters[obs::kRunsCompleted], 0u);
    EXPECT_EQ(counters[obs::kReplayRuns], 0u);
}

// ------------------------------------ super-period fast-forward

/// What the counting contention backend below saw of the sweep's runs.
struct SweepCount {
    std::uint64_t runs = 0;
    std::uint64_t bodies = 0;  ///< scua bodies fast-forwarded
    std::uint64_t one_body_loops = 0;  ///< scuas with one-body loop
                                       ///< region and tail
};
SweepCount* sweep_count = nullptr;

/// run_contention, counting the runs that finish (the saturation probe
/// stops at its window), the scua bodies each fast-forwarded on this
/// thread's leased machine, and the shape of the scua's script.
Measurement counted_contention(const MachineConfig& config,
                               const Program& scua,
                               const std::vector<Program>& contenders,
                               CoreId scua_core, Cycle max_cycles) {
    const Measurement m =
        run_contention(config, scua, contenders, scua_core, max_cycles);
    if (m.deadline_reached) return m;
    engine::MachineLease lease(config);
    ++sweep_count->runs;
    sweep_count->bodies += lease.machine().periods_fast_forwarded();
    const replay::MicroOpScript* script =
        lease.scripts().per_core[scua_core];
    if (script != nullptr && script->looping &&
        script->tail_start - script->loop_start == script->pass_ops &&
        script->ops.size() - script->tail_start == script->pass_ops) {
        ++sweep_count->one_body_loops;
    }
    return m;
}

TEST(EstimatorFastForward, EightCoreSweepSkipsSuperPeriods) {
    // `rrbtool estimate --cores 8 --kmax 160 --iterations 20`: the IL1
    // caps the scua body at five groups (25 loads) while the seven
    // contenders keep 40-load passes, so every contender's loop wrap
    // moves each scua body and no single body repeats. A super-period
    // of 4 or 8 bodies walks whole contender passes. Under
    // LRU the scua folds after one body (its ways rotate, its lines'
    // order does not), leaving a one-body tail: room in 20 iterations
    // for one recorded super-period and one skipped.
    engine::MachineLease::drop_thread_cache();
    const MachineConfig cfg = MachineConfig::scaled(8, 9);
    UbdEstimatorOptions opt;
    opt.k_max = 160;
    opt.unroll = 8;
    opt.rsk_iterations = 20;
    SweepCount count;
    sweep_count = &count;
    ExperimentBackend backend;
    backend.contention = &counted_contention;
    const UbdEstimate e = estimate_ubd(cfg, opt, backend);
    sweep_count = nullptr;
    EXPECT_TRUE(e.found);
    EXPECT_EQ(e.ubd, cfg.ubd_analytic());
    ASSERT_EQ(count.runs, 161u);
    EXPECT_GE(count.bodies, 1'400u) << "of " << count.runs * 20;
    EXPECT_EQ(count.one_body_loops, count.runs);
}

}  // namespace
}  // namespace rrb
