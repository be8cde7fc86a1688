// Tests of the measurement harness itself: warm-up discipline,
// determinism, deadline handling, PMC plumbing, and bit-identity of the
// leased, replaying primitives with the fresh-machine interpreter
// (tests/serial_reference.h).
#include "core/experiment.h"

#include <gtest/gtest.h>

#include <bit>
#include <string>

#include "core/estimator.h"
#include "engine/machine_lease.h"
#include "kernels/autobench.h"
#include "kernels/rsk.h"
#include "machine/machine.h"
#include "serial_reference.h"

namespace rrb {
namespace {

Program small_rsk(std::uint64_t iterations = 20) {
    RskParams p;
    p.unroll = 4;
    p.iterations = iterations;
    return make_rsk(p);
}

TEST(Experiment, IsolationIsDeterministic) {
    const MachineConfig cfg = MachineConfig::ngmp_ref();
    const Measurement a = run_isolation(cfg, small_rsk());
    const Measurement b = run_isolation(cfg, small_rsk());
    EXPECT_EQ(a.exec_time, b.exec_time);
    EXPECT_EQ(a.bus_requests, b.bus_requests);
}

TEST(Experiment, ContentionIsDeterministic) {
    const MachineConfig cfg = MachineConfig::ngmp_ref();
    RskParams cp;
    cp.data_base = 0x0800'0000;
    const std::vector<Program> contenders = {make_rsk(cp)};
    const Measurement a = run_contention(cfg, small_rsk(), contenders);
    const Measurement b = run_contention(cfg, small_rsk(), contenders);
    EXPECT_EQ(a.exec_time, b.exec_time);
    EXPECT_EQ(a.max_gamma, b.max_gamma);
}

TEST(Experiment, ContentionNeverFasterThanIsolation) {
    const MachineConfig cfg = MachineConfig::ngmp_ref();
    for (const Autobench kernel :
         {Autobench::kCacheb, Autobench::kTblook, Autobench::kMatrix}) {
        const Program scua = make_autobench(kernel, 0x0100'0000, 100, 3);
        const SlowdownResult r = run_slowdown(
            cfg, scua, {small_rsk()});
        EXPECT_GE(r.contention.exec_time, r.isolation.exec_time)
            << to_string(kernel);
    }
}

TEST(Experiment, WarmupRemovesColdIfetchRequests) {
    // The static-footprint warm-up must eliminate every cold code/data
    // miss for an rsk (fixed addresses): the request count becomes
    // exactly loads + boundary effects.
    const MachineConfig cfg = MachineConfig::ngmp_ref();
    const Program rsk = small_rsk(10);
    const Measurement m = run_isolation(cfg, rsk);
    const std::uint64_t loads = rsk.body.size() * rsk.iterations;
    EXPECT_EQ(m.bus_requests, loads);
}

TEST(Experiment, DeadlineReportedNotFabricated) {
    const MachineConfig cfg = MachineConfig::ngmp_ref();
    const Measurement m = run_isolation(cfg, small_rsk(1'000'000), 0, 1000);
    EXPECT_TRUE(m.deadline_reached);
    EXPECT_EQ(m.exec_time, 1000u);
}

TEST(Experiment, ScuaCoreSelectable) {
    const MachineConfig cfg = MachineConfig::ngmp_ref();
    RskParams cp;
    cp.data_base = 0x0800'0000;
    const Measurement m =
        run_contention(cfg, small_rsk(), {make_rsk(cp)}, /*scua_core=*/2);
    EXPECT_GT(m.bus_requests, 0u);
    EXPECT_FALSE(m.gamma.empty());
}

TEST(Experiment, ScuaCoreOutOfRangeRejected) {
    const MachineConfig cfg = MachineConfig::ngmp_ref();
    EXPECT_THROW(run_isolation(cfg, small_rsk(), 7), std::invalid_argument);
    EXPECT_THROW(run_contention(cfg, small_rsk(), {small_rsk()}, 9),
                 std::invalid_argument);
}

TEST(Experiment, NoContendersRejected) {
    const MachineConfig cfg = MachineConfig::ngmp_ref();
    EXPECT_THROW(run_contention(cfg, small_rsk(), {}),
                 std::invalid_argument);
}

TEST(Experiment, FewerContendersThanCoresAreCycled) {
    // One contender program, three contender cores: the program must be
    // replicated across all of them.
    const MachineConfig cfg = MachineConfig::ngmp_ref();
    RskParams cp;
    cp.data_base = 0x0800'0000;
    const Measurement m =
        run_contention(cfg, small_rsk(50), {make_rsk(cp)});
    // With all three contender cores running rsk, nearly every scua
    // request sees 3 ready contenders.
    EXPECT_GE(m.ready_contenders.fraction(3), 0.9);
}

TEST(Experiment, UtilizationPmcsConsistent) {
    const MachineConfig cfg = MachineConfig::ngmp_ref();
    RskParams cp;
    cp.data_base = 0x0800'0000;
    const Measurement m = run_contention(cfg, small_rsk(80), {make_rsk(cp)});
    EXPECT_GT(m.bus_utilization, 0.9);
    EXPECT_GT(m.scua_bus_share, 0.1);
    EXPECT_LE(m.scua_bus_share, m.bus_utilization);
}

TEST(Experiment, InjectionDeltaHistogramExposed) {
    const MachineConfig cfg = MachineConfig::ngmp_ref();
    const Measurement m = run_isolation(cfg, small_rsk(30));
    ASSERT_FALSE(m.injection_delta.empty());
    EXPECT_EQ(m.injection_delta.mode(), cfg.core.dl1_latency);
}

TEST(Experiment, MachineRunsAreIndependent) {
    // Two machines built from one config must not share state.
    const MachineConfig cfg = MachineConfig::ngmp_ref();
    Machine m1(cfg);
    Machine m2(cfg);
    m1.load_program(0, small_rsk(5));
    m2.load_program(0, small_rsk(5));
    m1.warm_static_footprint(0);
    const RunResult r1 = m1.run(1'000'000);
    const RunResult r2 = m2.run(1'000'000);
    // m2 was not warmed: cold misses make it slower.
    EXPECT_LT(r1.finish_cycle[0], r2.finish_cycle[0]);
}

// ------------------------------------- replayed primitives vs the oracle

void expect_same_histogram(const Histogram& got, const Histogram& want,
                           const std::string& what) {
    EXPECT_EQ(got.total(), want.total()) << what;
    EXPECT_EQ(got.buckets(), want.buckets()) << what;
}

/// Every Measurement field; doubles by bit pattern.
void expect_same_measurement(const Measurement& got, const Measurement& want,
                             const std::string& what) {
    EXPECT_EQ(got.exec_time, want.exec_time) << what;
    EXPECT_EQ(got.bus_requests, want.bus_requests) << what;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.bus_utilization),
              std::bit_cast<std::uint64_t>(want.bus_utilization))
        << what;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.scua_bus_share),
              std::bit_cast<std::uint64_t>(want.scua_bus_share))
        << what;
    expect_same_histogram(got.gamma, want.gamma, what + " gamma");
    EXPECT_EQ(got.max_gamma, want.max_gamma) << what;
    expect_same_histogram(got.ready_contenders, want.ready_contenders,
                          what + " ready_contenders");
    expect_same_histogram(got.injection_delta, want.injection_delta,
                          what + " injection_delta");
    EXPECT_EQ(got.deadline_reached, want.deadline_reached) << what;
}

Program sweep_scua(const MachineConfig& cfg, OpKind access, std::uint32_t k,
                   std::uint32_t nop_latency = 1) {
    RskParams p;
    p.dl1_geometry = cfg.core.dl1_geometry;
    p.il1_geometry = cfg.core.il1_geometry;
    p.access = access;
    p.unroll = 4;
    p.iterations = 12;
    p.nop_latency = nop_latency;
    p.data_base = 0x0010'0000;
    return make_rsk_nop(p, k);
}

/// An estimator-shaped sequence on one leased machine — isolation then
/// contention of rsk-nop(k) for a few k against the rsk contenders —
/// each run compared with the oracle. Consecutive runs share scripts
/// through the lease's pool, so this also checks the pool hands every
/// run the right ones.
void expect_sweep_matches_oracle(const MachineConfig& cfg, OpKind access,
                                 const std::string& name,
                                 std::uint32_t nop_latency = 1,
                                 CoreId scua_core = 0) {
    const std::vector<Program> contenders =
        make_rsk_contenders(cfg, access, 4);
    const Cycle cap = 50'000'000;
    for (const std::uint32_t k : {0u, 7u, 19u, 7u}) {
        const Program scua = sweep_scua(cfg, access, k, nop_latency);
        const std::string what = name + " k=" + std::to_string(k);
        expect_same_measurement(
            run_isolation(cfg, scua, scua_core, cap),
            reference::fresh_isolation(cfg, scua, scua_core, cap),
            what + " isolation");
        expect_same_measurement(
            run_contention(cfg, scua, contenders, scua_core, cap),
            reference::fresh_contention(cfg, scua, contenders, scua_core,
                                        cap),
            what + " contention");
    }
}

TEST(ExperimentOracle, PlatformsMatchTheFreshMachineInterpreter) {
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
    for (const auto& platform : platforms) {
        for (const OpKind access : {OpKind::kLoad, OpKind::kStore}) {
            expect_sweep_matches_oracle(
                platform.config, access,
                std::string(platform.name) +
                    (access == OpKind::kLoad ? " load" : " store"));
        }
    }
}

TEST(ExperimentOracle, L1PoliciesMatchTheFreshMachineInterpreter) {
    // kRandom makes scripts core-specific and declines the load-rsk
    // contenders' decodes (they never fold and cannot fit the op cap),
    // so those contention runs mix a replaying scua with interpreting
    // contenders.
    const struct {
        const char* name;
        ReplacementPolicy policy;
    } policies[] = {{"plru", ReplacementPolicy::kPlru},
                    {"fifo", ReplacementPolicy::kFifo},
                    {"random", ReplacementPolicy::kRandom}};
    for (const auto& [name, policy] : policies) {
        MachineConfig cfg = MachineConfig::ngmp_ref();
        cfg.core.l1_replacement = policy;
        for (const OpKind access : {OpKind::kLoad, OpKind::kStore}) {
            expect_sweep_matches_oracle(
                cfg, access,
                std::string(name) +
                    (access == OpKind::kLoad ? " load" : " store"));
        }
    }
}

TEST(ExperimentOracle, SlowNopsAndAnotherScuaCoreMatchTheOracle) {
    const MachineConfig cfg = MachineConfig::ngmp_ref();
    expect_sweep_matches_oracle(cfg, OpKind::kLoad, "nop latency 2",
                                /*nop_latency=*/2);
    expect_sweep_matches_oracle(cfg, OpKind::kLoad, "scua core 2",
                                /*nop_latency=*/1, /*scua_core=*/2);
}

TEST(ExperimentOracle, DeadlineCappedIsolationMatchesTheOracle) {
    const MachineConfig cfg = MachineConfig::ngmp_ref();
    const Program scua = small_rsk(1'000'000);
    const Measurement got = run_isolation(cfg, scua, 0, 4321);
    ASSERT_TRUE(got.deadline_reached);
    expect_same_measurement(got,
                            reference::fresh_isolation(cfg, scua, 0, 4321),
                            "capped isolation");
}

}  // namespace
}  // namespace rrb
