#include "cpu/core.h"

#include <gtest/gtest.h>

#include <vector>

#include "kernels/rsk.h"

namespace rrb {
namespace {

/// A scripted bus: serves every request after a fixed latency, recording
/// (op, addr, ready) tuples. Lets us test core timing in isolation.
/// attach() the core after construction — completions dispatch through
/// the production on_bus_complete entry point, POD slots and all.
class FakePort final : public CoreBusPort {
public:
    explicit FakePort(Cycle service_latency) : latency_(service_latency) {}

    void attach(InOrderCore* core) { core_ = core; }

    void request(BusOp op, Addr addr, Cycle ready, BusSlot slot,
                 L2Outcome /*l2*/) override {
        log.push_back({op, addr, ready});
        pending_.push_back({ready + latency_, slot});
    }

    /// Delivers completions due at `now` (call before core.tick(now)).
    void tick(Cycle now) {
        for (auto it = pending_.begin(); it != pending_.end();) {
            if (it->first <= now) {
                const BusSlot slot = it->second;
                it = pending_.erase(it);
                core_->on_bus_complete(slot, now);
            } else {
                ++it;
            }
        }
    }

    struct Entry {
        BusOp op;
        Addr addr;
        Cycle ready;
    };
    std::vector<Entry> log;

private:
    Cycle latency_;
    InOrderCore* core_ = nullptr;
    std::vector<std::pair<Cycle, BusSlot>> pending_;
};

CoreConfig test_config() {
    CoreConfig cfg;
    cfg.store_buffer_entries = 2;
    return cfg;
}

Cycle run_to_done(InOrderCore& core, FakePort& port, Cycle limit = 100000) {
    for (Cycle now = 0; now < limit; ++now) {
        port.tick(now);
        core.tick(now);
        if (core.done()) return core.finish_cycle();
    }
    ADD_FAILURE() << "core did not finish";
    return 0;
}

TEST(InOrderCore, NopKernelTiming) {
    // N nops of latency 1 + loop control per iteration.
    FakePort port(5);
    CoreConfig cfg = test_config();
    InOrderCore core(0, cfg, port);
    port.attach(&core);
    Program p = ProgramBuilder("nops").nop(10).iterations(3)
                    .loop_control(2).build();
    core.set_program(p);
    core.il1().warm(0);
    core.il1().warm(32);
    const Cycle finish = run_to_done(core, port);
    // 3 iterations x (10 nops + 2 loop control) = 36 cycles; finish when
    // the core observes completion.
    EXPECT_EQ(finish, 36u);
    EXPECT_EQ(core.stats().instructions, 30u);
    EXPECT_EQ(core.stats().nops, 30u);
    EXPECT_TRUE(port.log.empty());  // no bus traffic, IL1 code_base warm?
}

TEST(InOrderCore, AluLatencyCharged) {
    FakePort port(5);
    InOrderCore core(0, test_config(), port);
    port.attach(&core);
    core.set_program(
        ProgramBuilder("alu").alu(4, 3).iterations(1).loop_control(0).build());
    core.il1().warm(0);
    const Cycle finish = run_to_done(core, port);
    EXPECT_EQ(finish, 12u);
}

TEST(InOrderCore, Dl1HitLoadCostsDl1Latency) {
    FakePort port(5);
    CoreConfig cfg = test_config();
    cfg.dl1_latency = 1;
    InOrderCore core(0, cfg, port);
    port.attach(&core);
    Program p = ProgramBuilder("ld")
                    .load(AddrPattern::fixed(0x1000))
                    .iterations(4)
                    .loop_control(0)
                    .build();
    core.set_program(p);
    core.il1().warm(0);
    core.dl1().warm(0x1000);
    const Cycle finish = run_to_done(core, port);
    EXPECT_EQ(finish, 4u);  // 4 x dl1_latency
    EXPECT_TRUE(port.log.empty());
    EXPECT_EQ(core.stats().load_miss_requests, 0u);
}

TEST(InOrderCore, Dl1MissIssuesRequestAfterLookup) {
    FakePort port(10);
    CoreConfig cfg = test_config();
    cfg.dl1_latency = 1;
    InOrderCore core(0, cfg, port);
    port.attach(&core);
    Program p = ProgramBuilder("ld")
                    .load(AddrPattern::fixed(0x2000))
                    .iterations(1)
                    .loop_control(0)
                    .build();
    core.set_program(p);
    core.il1().warm(0);
    run_to_done(core, port);
    ASSERT_EQ(port.log.size(), 1u);
    EXPECT_EQ(port.log[0].op, BusOp::kDataLoad);
    // Instruction starts at 0; request ready at dl1_latency = 1.
    EXPECT_EQ(port.log[0].ready, 1u);
}

TEST(InOrderCore, InjectionTimeIsDl1LatencyForBackToBackLoads) {
    // The cornerstone of Section 3: delta_rsk = dl1_latency.
    for (const std::uint32_t dl1_lat : {1u, 4u}) {
        FakePort port(9);
        CoreConfig cfg = test_config();
        cfg.dl1_latency = dl1_lat;
        InOrderCore core(0, cfg, port);
        port.attach(&core);
        // Two distinct lines mapping to different sets, never cached (cold
        // each iteration? no — use 5 same-set lines like rsk).
        const CacheGeometry g = cfg.dl1_geometry;
        ProgramBuilder b("rsk-like");
        for (std::uint32_t i = 0; i <= g.ways; ++i) {
            b.load(AddrPattern::fixed(0x4000 + i * g.set_stride()));
        }
        Program p = b.iterations(20).loop_control(2).build();
        core.set_program(p);
        run_to_done(core, port);
        const Histogram& delta = core.stats().load_injection_delta;
        ASSERT_FALSE(delta.empty());
        // Mode of injection delta = dl1_latency (body-internal pairs).
        EXPECT_EQ(delta.mode(), dl1_lat) << "dl1_latency " << dl1_lat;
        // Boundary pairs carry the +2 loop control.
        EXPECT_GT(delta.count(dl1_lat + 2), 0u);
    }
}

TEST(InOrderCore, NopsStretchInjectionTime) {
    FakePort port(9);
    CoreConfig cfg = test_config();
    cfg.dl1_latency = 1;
    InOrderCore core(0, cfg, port);
    port.attach(&core);
    const CacheGeometry g = cfg.dl1_geometry;
    const std::uint32_t k = 6;
    ProgramBuilder b("rsk-nop");
    for (std::uint32_t i = 0; i <= g.ways; ++i) {
        b.load(AddrPattern::fixed(0x4000 + i * g.set_stride()));
        b.nop(k);
    }
    core.set_program(b.iterations(10).loop_control(2).build());
    run_to_done(core, port);
    EXPECT_EQ(core.stats().load_injection_delta.mode(), k + 1u);
}

TEST(InOrderCore, StoreRetiresInOneCycleWhenBufferHasSpace) {
    FakePort port(50);
    InOrderCore core(0, test_config(), port);  // 2-entry buffer
    port.attach(&core);
    Program p = ProgramBuilder("st")
                    .store(AddrPattern::fixed(0x3000))
                    .nop(3)
                    .iterations(1)
                    .loop_control(0)
                    .build();
    core.set_program(p);
    core.il1().warm(0);
    for (Cycle now = 0; now < 4; ++now) {
        port.tick(now);
        core.tick(now);
    }
    // store at 0 (1 cycle), nops at 1,2,3 -> all retired by cycle 4 even
    // though the drain is still in flight.
    EXPECT_EQ(core.stats().instructions, 4u);
    EXPECT_EQ(core.stats().stores, 1u);
}

TEST(InOrderCore, FullStoreBufferStalls) {
    FakePort port(100);  // very slow drains
    InOrderCore core(0, test_config(), port);  // 2 entries
    port.attach(&core);
    Program p = ProgramBuilder("st4")
                    .store(AddrPattern::fixed(0x3000))
                    .store(AddrPattern::fixed(0x3040))
                    .store(AddrPattern::fixed(0x3080))
                    .iterations(1)
                    .loop_control(0)
                    .build();
    core.set_program(p);
    core.il1().warm(0);
    for (Cycle now = 0; now < 50; ++now) {
        port.tick(now);
        core.tick(now);
    }
    // Third store cannot retire until a drain completes at ~100.
    EXPECT_EQ(core.stats().stores, 2u);
    EXPECT_GT(core.stats().store_full_stall_cycles, 0u);
}

TEST(InOrderCore, DoneWaitsForStoreBufferDrain) {
    FakePort port(20);
    InOrderCore core(0, test_config(), port);
    port.attach(&core);
    Program p = ProgramBuilder("st")
                    .store(AddrPattern::fixed(0x3000))
                    .iterations(1)
                    .loop_control(0)
                    .build();
    core.set_program(p);
    core.il1().warm(0);
    const Cycle finish = run_to_done(core, port);
    EXPECT_GE(finish, 20u);  // drain latency dominates
    EXPECT_EQ(core.stats().store_drains, 1u);
}

TEST(InOrderCore, LoadWaitsForStoreBuffer) {
    FakePort port(30);
    CoreConfig cfg = test_config();
    InOrderCore core(0, cfg, port);
    port.attach(&core);
    Program p = ProgramBuilder("st-ld")
                    .store(AddrPattern::fixed(0x3000))
                    .load(AddrPattern::fixed(0x5000))
                    .iterations(1)
                    .loop_control(0)
                    .build();
    core.set_program(p);
    core.il1().warm(0);
    run_to_done(core, port);
    ASSERT_EQ(port.log.size(), 2u);
    EXPECT_EQ(port.log[0].op, BusOp::kDataStore);
    EXPECT_EQ(port.log[1].op, BusOp::kDataLoad);
    // Load request must come after the drain completed (ready > 30).
    EXPECT_GT(port.log[1].ready, 30u);
    EXPECT_GT(core.stats().load_gate_stall_cycles, 0u);
}

TEST(InOrderCore, IfetchMissOnColdCode) {
    FakePort port(9);
    InOrderCore core(0, test_config(), port);
    port.attach(&core);
    // 16 instructions = 2 IL1 lines -> 2 ifetch requests, cold.
    Program p = ProgramBuilder("nops").nop(16).iterations(2)
                    .code_base(0x9000).loop_control(0).build();
    core.set_program(p);
    run_to_done(core, port);
    EXPECT_EQ(core.stats().ifetch_requests, 2u);  // warm on iteration 2
}

TEST(InOrderCore, StoreDrainsHaveZeroInjectionTime) {
    // Consecutive buffer drains must be posted ready exactly at the
    // previous drain's completion (Section 5.3's delta = 0 property).
    FakePort port(7);
    InOrderCore core(0, test_config(), port);
    port.attach(&core);
    ProgramBuilder b("sts");
    for (int i = 0; i < 6; ++i) {
        b.store(AddrPattern::fixed(0x3000 + 64u * static_cast<Addr>(i)));
    }
    core.set_program(b.iterations(1).loop_control(0).build());
    core.il1().warm(0);
    run_to_done(core, port);
    ASSERT_EQ(port.log.size(), 6u);
    for (std::size_t i = 1; i < port.log.size(); ++i) {
        // completion of drain i-1 = ready_{i-1} + 7; next ready equals it.
        EXPECT_EQ(port.log[i].ready, port.log[i - 1].ready + 7)
            << "drain " << i;
    }
}

TEST(InOrderCore, FinishCycleRequiresDone) {
    FakePort port(5);
    InOrderCore core(0, test_config(), port);
    port.attach(&core);
    core.set_program(ProgramBuilder("n").nop(100).build());
    EXPECT_THROW((void)core.finish_cycle(), std::invalid_argument);
}

TEST(InOrderCore, ConfigValidation) {
    CoreConfig cfg;
    cfg.dl1_latency = 0;
    FakePort port(1);
    EXPECT_THROW(InOrderCore(0, cfg, port), std::invalid_argument);
    cfg = {};
    cfg.store_buffer_entries = 0;
    EXPECT_THROW(InOrderCore(0, cfg, port), std::invalid_argument);
}

// ------------------------------------------------- the functional core

TEST(FunctionalCore, NopRunStopsAtTheEndOfItsIl1Line) {
    // 32-byte lines hold 8 instructions: a warm 20-nop body batches
    // 8 + 8 + 4, each batch starting on a fresh line (a full IL1 read,
    // not a memo hit).
    const Program p = ProgramBuilder("nops").nop(20).loop_control(0).build();
    FunctionalCore core(0, CoreConfig{}, p);
    core.warm_code();
    for (const std::uint32_t expected : {8u, 8u, 4u}) {
        const std::uint64_t reads = core.il1().stats().read_hits;
        const FunctionalCore::Lookup fetch = core.fetch();
        ASSERT_TRUE(fetch.hit);
        EXPECT_EQ(fetch.line, core.pc() * Program::kInstrBytes);
        const FunctionalCore::Batch batch = core.compute_batch();
        EXPECT_EQ(batch.instrs, expected);
        EXPECT_EQ(batch.nops, expected);
        EXPECT_EQ(batch.cycles, expected);
        // One hit for the fetch, one memo hit per chained instruction.
        EXPECT_EQ(core.il1().stats().read_hits - reads, expected);
    }
    EXPECT_TRUE(core.finished());
    // A body that starts mid-line batches only the rest of that line.
    const Program offset = ProgramBuilder("nops").code_base(20).nop(20).build();
    FunctionalCore shifted(0, CoreConfig{}, offset);
    shifted.warm_code();
    ASSERT_TRUE(shifted.fetch().hit);
    EXPECT_EQ(shifted.compute_batch().instrs, 3u);
}

TEST(FunctionalCore, NopRunStopsAtALoadAndAtRetirement) {
    const Program p = ProgramBuilder("mixed")
                          .nop(3)
                          .load(AddrPattern::fixed(0x1000))
                          .alu(2, 5)
                          .loop_control(4)
                          .build();
    FunctionalCore core(0, CoreConfig{}, p);
    core.warm_code();
    ASSERT_TRUE(core.fetch().hit);
    FunctionalCore::Batch batch = core.compute_batch();
    EXPECT_EQ(batch.instrs, 3u);
    EXPECT_EQ(core.instruction().kind, OpKind::kLoad);
    ASSERT_TRUE(core.fetch().hit);
    const FunctionalCore::Lookup load = core.load();
    EXPECT_FALSE(load.hit);
    EXPECT_EQ(load.line, 0x1000u);
    EXPECT_FALSE(core.retire());
    // The alus close the only iteration: the batch stops at retirement
    // and charges the body's loop control once.
    ASSERT_TRUE(core.fetch().hit);
    batch = core.compute_batch();
    EXPECT_EQ(batch.instrs, 2u);
    EXPECT_EQ(batch.nops, 0u);
    EXPECT_EQ(batch.cycles, 2u * 5 + 4);
    EXPECT_TRUE(core.finished());
    EXPECT_EQ(core.retired(), 6u);
    // A budget cut short stops a batch the same way.
    core.restart();
    core.finish_at(2);
    ASSERT_TRUE(core.fetch().hit);
    EXPECT_EQ(core.compute_batch().instrs, 2u);
    EXPECT_TRUE(core.finished());
}

TEST(FunctionalCore, OneInstructionLoopChainsSixtyFourAfterItsFirst) {
    // The saturation probe's scua: one nop, looping. Every instruction
    // wraps the body, so a batch of 1 + kMaxComputeBatch instructions
    // charges loop control 65 times — and the next batch fetches
    // through the memo.
    const Program probe = make_nop_kernel(1, 100);
    FunctionalCore core(0, CoreConfig{}, probe);
    core.warm_code();
    ASSERT_TRUE(core.fetch().hit);
    FunctionalCore::Batch batch = core.compute_batch();
    EXPECT_EQ(batch.instrs, 1 + FunctionalCore::kMaxComputeBatch);
    EXPECT_EQ(batch.nops, 65u);
    EXPECT_EQ(batch.cycles, 65u * (1 + probe.loop_control_cycles));
    EXPECT_EQ(core.iteration(), 65u);
    EXPECT_EQ(core.pc(), 0u);
    EXPECT_EQ(core.memo_line(), 0u);
    ASSERT_TRUE(core.fetch().hit);
    batch = core.compute_batch();
    EXPECT_EQ(batch.instrs, 35u);  // the budget ends the second batch
    EXPECT_TRUE(core.finished());
    EXPECT_EQ(core.il1().stats().read_hits, 100u);
    EXPECT_EQ(core.il1().stats().read_misses, 0u);
}

TEST(FunctionalCore, Il1MissClearsTheFetchMemo) {
    // Cold code: a miss installs the line but leaves no memo, so the
    // instruction after it re-reads the IL1 before chaining resumes.
    const Program p = ProgramBuilder("nops").nop(16).build();
    FunctionalCore core(0, CoreConfig{}, p);
    FunctionalCore::Lookup fetch = core.fetch();
    EXPECT_FALSE(fetch.hit);
    EXPECT_EQ(fetch.line, 0u);
    EXPECT_EQ(core.memo_line(), kNoCycle);
    EXPECT_EQ(core.compute_batch().instrs, 1u);  // nothing chains
    fetch = core.fetch();
    EXPECT_TRUE(fetch.hit);
    EXPECT_EQ(core.memo_line(), 0u);
    EXPECT_EQ(core.compute_batch().instrs, 7u);
    // The next line is cold: its miss clears the valid memo.
    fetch = core.fetch();
    EXPECT_FALSE(fetch.hit);
    EXPECT_EQ(fetch.line, 32u);
    EXPECT_EQ(core.memo_line(), kNoCycle);
    EXPECT_EQ(core.compute_batch().instrs, 1u);
    EXPECT_EQ(core.il1().stats().read_misses, 2u);
}

}  // namespace
}  // namespace rrb
