#include "dram/dram.h"

#include <gtest/gtest.h>

#include <vector>

namespace rrb {
namespace {

DramConfig small_config() {
    DramConfig cfg;
    cfg.capacity_bytes = 1 << 20;
    return cfg;
}

class DramTest : public ::testing::Test, protected DramClient {
protected:
    DramTest() : mc_(small_config()) { mc_.attach_client(this); }

    void dram_complete(const DramRequest& r, Cycle done) override {
        completions_.push_back({r.addr, done});
    }

    void run_to(Cycle end) {
        for (; now_ <= end; ++now_) mc_.tick(now_);
    }

    void enqueue(Addr addr, Cycle arrival, bool write = false, CoreId core = 0) {
        mc_.enqueue({core, addr, write, arrival, 0});
    }

    MemoryController mc_;
    Cycle now_ = 0;
    std::vector<std::pair<Addr, Cycle>> completions_;
};

TEST_F(DramTest, ColdAccessIsRowMiss) {
    enqueue(0x0, 0);
    run_to(50);
    ASSERT_EQ(completions_.size(), 1u);
    const DramTiming t;
    // overhead + tRCD + tCL + burst
    EXPECT_EQ(completions_[0].second,
              t.t_overhead + t.t_rcd + t.t_cl + t.t_burst);
    EXPECT_EQ(mc_.stats().row_misses, 1u);
}

TEST_F(DramTest, SameRowSecondAccessIsHit) {
    enqueue(0x0, 0);
    run_to(30);
    enqueue(0x0 + 32 * 4, 31);  // same bank (stride = banks*access), same row
    run_to(60);
    ASSERT_EQ(completions_.size(), 2u);
    EXPECT_EQ(mc_.stats().row_hits, 1u);
    const DramTiming t;
    EXPECT_EQ(completions_[1].second, 31 + t.t_overhead + t.t_cl + t.t_burst);
}

TEST_F(DramTest, DifferentRowSameBankIsConflict) {
    const DramConfig cfg = small_config();
    enqueue(0x0, 0);
    run_to(30);
    // Same bank, different row: jump a full row*banks span.
    enqueue(cfg.row_bytes * cfg.num_banks, 31);
    run_to(80);
    ASSERT_EQ(completions_.size(), 2u);
    EXPECT_EQ(mc_.stats().row_conflicts, 1u);
    const DramTiming t;
    EXPECT_EQ(completions_[1].second,
              31 + t.t_overhead + t.t_rp + t.t_rcd + t.t_cl + t.t_burst);
}

TEST_F(DramTest, ConsecutiveLinesHitDifferentBanks) {
    const DramConfig cfg = small_config();
    EXPECT_NE(cfg.bank_of(0), cfg.bank_of(32));
    EXPECT_EQ(cfg.bank_of(0), cfg.bank_of(32 * 4));
}

TEST_F(DramTest, FrFcfsPrefersRowHit) {
    // Open a row in bank 0, then queue: conflict (bank 0, other row) ahead
    // of a row hit (bank 0, open row). FR-FCFS must serve the hit first.
    const DramConfig cfg = small_config();
    enqueue(0x0, 0);
    run_to(11);  // completes at 10
    const Addr conflict = cfg.row_bytes * cfg.num_banks;  // bank0, row 1
    const Addr hit = 32 * 4;                              // bank0, row 0
    enqueue(conflict, 12);
    enqueue(hit, 12);
    run_to(100);
    ASSERT_EQ(completions_.size(), 3u);
    EXPECT_EQ(completions_[1].first, hit);
    EXPECT_EQ(completions_[2].first, conflict);
}

TEST_F(DramTest, BankParallelismOverlapsButDataBusSerializes) {
    // Two requests to different banks arriving together: the second's
    // completion is pushed by the shared data bus, not a full latency.
    enqueue(0x0, 0);    // bank 0
    enqueue(0x20, 0);   // bank 1
    run_to(60);
    ASSERT_EQ(completions_.size(), 2u);
    const Cycle first = completions_[0].second;
    const Cycle second = completions_[1].second;
    EXPECT_GT(second, first);
}

TEST_F(DramTest, WriteCounted) {
    enqueue(0x40, 0, /*write=*/true);
    run_to(30);
    EXPECT_EQ(mc_.stats().writes, 1u);
    EXPECT_EQ(mc_.stats().reads, 0u);
}

TEST_F(DramTest, LatencyStats) {
    enqueue(0x0, 0);
    run_to(30);
    EXPECT_GT(mc_.stats().mean_latency(), 0.0);
    EXPECT_EQ(mc_.stats().latency.total(), 1u);
}

TEST_F(DramTest, IdleWhenDrained) {
    EXPECT_TRUE(mc_.idle());
    enqueue(0x0, 0);
    EXPECT_FALSE(mc_.idle());
    run_to(30);
    EXPECT_TRUE(mc_.idle());
}

TEST_F(DramTest, RejectsOutOfCapacity) {
    EXPECT_THROW(enqueue(small_config().capacity_bytes, 0),
                 std::invalid_argument);
}

TEST(DramConfig, ValidationRejectsBadShapes) {
    DramConfig cfg;
    cfg.num_banks = 3;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
    cfg = {};
    cfg.row_bytes = 24;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
    cfg = {};
    EXPECT_NO_THROW(cfg.validate());
}

TEST(DramConfig, RowMappingConsistency) {
    const DramConfig cfg;
    // Addresses within one row of one bank share row_of.
    EXPECT_EQ(cfg.row_of(0), cfg.row_of(32 * 4));
    EXPECT_NE(cfg.row_of(0), cfg.row_of(cfg.row_bytes * cfg.num_banks));
}

}  // namespace
}  // namespace rrb
