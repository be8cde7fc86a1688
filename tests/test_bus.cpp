#include "bus/bus.h"

#include <gtest/gtest.h>

#include <vector>

namespace rrb {
namespace {

class BusTest : public ::testing::Test, protected BusClient {
protected:
    static constexpr CoreId kCores = 4;
    static constexpr Cycle kLbus = 2;

    BusTest() : bus_(Arbiter(ArbiterKind::kRoundRobin, kCores)) {
        bus_.attach_client(this);
    }

    /// The one completion sink: records (core, completion) pairs.
    void bus_complete(const BusRequest& request, Cycle completion) override {
        completions_.push_back({request.core, completion});
    }

    /// Runs both phases for a window of cycles.
    void run_cycles(Cycle from, Cycle to) {
        for (Cycle now = from; now <= to; ++now) {
            bus_.complete_phase(now);
            bus_.arbitrate_phase(now);
        }
    }

    void post(CoreId core, Cycle ready, Cycle duration = kLbus) {
        bus_.post({core, BusOp::kDataLoad, 0x100u * core, ready, duration,
                   0});
    }

    Bus bus_;
    std::vector<std::pair<CoreId, Cycle>> completions_;
};

TEST_F(BusTest, SingleRequestImmediateGrant) {
    post(0, 0);
    run_cycles(0, 5);
    ASSERT_EQ(completions_.size(), 1u);
    EXPECT_EQ(completions_[0].second, kLbus);  // granted at 0, busy [0,2)
    EXPECT_EQ(bus_.counters(0).gamma.max(), 0u);
}

TEST_F(BusTest, ContentionDelayIsGrantMinusReady) {
    post(0, 0);
    post(1, 0);
    run_cycles(0, 10);
    ASSERT_EQ(completions_.size(), 2u);
    // Core 0 first (initial RR priority), core 1 waits lbus.
    EXPECT_EQ(bus_.counters(0).gamma.max(), 0u);
    EXPECT_EQ(bus_.counters(1).gamma.max(), kLbus);
}

TEST_F(BusTest, UbdScenarioLowestPriorityWaitsNcMinus1TimesLbus) {
    // All four post at cycle 0; the last in RR order waits 3*lbus = ubd.
    for (CoreId c = 0; c < kCores; ++c) post(c, 0);
    run_cycles(0, 20);
    ASSERT_EQ(completions_.size(), 4u);
    EXPECT_EQ(bus_.counters(3).gamma.max(), (kCores - 1) * kLbus);
}

TEST_F(BusTest, BackToBackGrantSameCycleAsCompletion) {
    // A request becoming ready exactly when the bus frees is granted that
    // same cycle (delta = 0 path).
    post(0, 0);
    run_cycles(0, 1);
    post(1, kLbus);  // ready exactly at completion of core 0's txn
    run_cycles(2, 6);
    ASSERT_EQ(completions_.size(), 2u);
    EXPECT_EQ(completions_[1].second, 2 * kLbus);
    EXPECT_EQ(bus_.counters(1).gamma.max(), 0u);
}

TEST_F(BusTest, FutureReadyNotGrantedEarly) {
    post(0, 5);
    run_cycles(0, 4);
    EXPECT_TRUE(completions_.empty());
    run_cycles(5, 8);
    ASSERT_EQ(completions_.size(), 1u);
    EXPECT_EQ(completions_[0].second, 5 + kLbus);
}

TEST_F(BusTest, RotationUnderSaturation) {
    // Synchrony effect substrate: keep all cores always pending; grants
    // must rotate and every request of the re-posting core waits exactly
    // (Nc-1)*lbus when re-posted with ready = completion (delta = 0).
    for (CoreId c = 0; c < kCores; ++c) post(c, 0);
    for (Cycle now = 0; now <= 100; ++now) {
        bus_.complete_phase(now);
        // Re-post completed requests immediately (delta = 0).
        while (!completions_.empty()) {
            const auto [core, done] = completions_.back();
            completions_.pop_back();
            if (done + kLbus * 8 < 100) post(core, done);
        }
        bus_.arbitrate_phase(now);
    }
    for (CoreId c = 0; c < kCores; ++c) {
        const Histogram& gamma = bus_.counters(c).gamma;
        // After the initial transient every request waits ubd.
        EXPECT_EQ(gamma.max(), (kCores - 1) * kLbus) << "core " << c;
        EXPECT_GE(gamma.count((kCores - 1) * kLbus), gamma.total() - 1);
    }
}

TEST_F(BusTest, UtilizationFullWhenSaturated) {
    for (CoreId c = 0; c < kCores; ++c) post(c, 0);
    for (Cycle now = 0; now <= 79; ++now) {
        bus_.complete_phase(now);
        while (!completions_.empty()) {
            const auto [core, done] = completions_.back();
            completions_.pop_back();
            if (done < 70) post(core, done);
        }
        bus_.arbitrate_phase(now);
    }
    EXPECT_GE(bus_.utilization(72), 0.95);
}

TEST_F(BusTest, ReadyContendersCounted) {
    post(0, 0);
    post(1, 0);
    post(2, 0);  // sees 2 others pending
    EXPECT_EQ(bus_.counters(0).ready_contenders.max(), 0u);
    EXPECT_EQ(bus_.counters(1).ready_contenders.max(), 1u);
    EXPECT_EQ(bus_.counters(2).ready_contenders.max(), 2u);
}

TEST_F(BusTest, BusyReportsPendingAndActive) {
    post(0, 0);
    EXPECT_TRUE(bus_.busy(0));
    run_cycles(0, 0);  // granted, now active
    EXPECT_TRUE(bus_.busy(0));
    run_cycles(1, kLbus);
    EXPECT_FALSE(bus_.busy(0));
}

TEST_F(BusTest, CountersAccumulate) {
    post(0, 0);
    run_cycles(0, 3);
    post(0, 4);
    run_cycles(4, 7);
    EXPECT_EQ(bus_.counters(0).requests, 2u);
    EXPECT_EQ(bus_.counters(0).busy_cycles, 2 * kLbus);
    EXPECT_EQ(bus_.total_busy_cycles(), 2 * kLbus);
}

TEST_F(BusTest, ResetCountersClears) {
    post(0, 0);
    run_cycles(0, 3);
    bus_.reset_counters();
    EXPECT_EQ(bus_.counters(0).requests, 0u);
    EXPECT_EQ(bus_.total_busy_cycles(), 0u);
}

TEST_F(BusTest, ZeroDurationRejected) {
    BusRequest req{0, BusOp::kDataLoad, 0, 0, 0, 0};
    EXPECT_THROW(bus_.post(req), std::invalid_argument);
}

/// Minimal standalone client for tests outside the fixture.
struct RecordingClient final : BusClient {
    std::vector<std::pair<CoreId, Cycle>> completions;
    void bus_complete(const BusRequest& request, Cycle c) override {
        completions.push_back({request.core, c});
    }
};

TEST(BusTdma, SlotOwnershipDelaysGrant) {
    Bus bus(Arbiter(ArbiterKind::kTdma, 2, 10));
    RecordingClient client;
    bus.attach_client(&client);
    bus.post({1, BusOp::kDataLoad, 0, 0, 2, 0});
    for (Cycle now = 0; now <= 20; ++now) {
        bus.complete_phase(now);
        bus.arbitrate_phase(now);
    }
    // Core 1 owns [10,20): granted at 10, completes at 12.
    ASSERT_EQ(client.completions.size(), 1u);
    EXPECT_EQ(client.completions[0].second, 12u);
}

TEST(BusTdma, SoleContenderStillWaitsForItsSlot) {
    // A sole contender must respect slot ownership too: core 0 owns
    // [0,10) but its 8-cycle transaction posted at cycle 5 no longer
    // fits, so the grant slips to its next slot.
    Bus bus(Arbiter(ArbiterKind::kTdma, 2, 10));
    RecordingClient client;
    bus.attach_client(&client);
    bus.post({0, BusOp::kDataLoad, 0, 5, 8, 0});
    for (Cycle now = 0; now <= 40; ++now) {
        bus.complete_phase(now);
        bus.arbitrate_phase(now);
    }
    ASSERT_EQ(client.completions.size(), 1u);
    EXPECT_EQ(client.completions[0].second, 28u);  // granted at 20
}

}  // namespace
}  // namespace rrb
