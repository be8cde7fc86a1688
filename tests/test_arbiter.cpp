#include "bus/arbiter.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace rrb {
namespace {

/// The arbiter's pick at `now` among the cores in `ready`, each with a
/// `duration`-cycle transaction; kNoCore leaves the bus idle.
CoreId pick(const Arbiter& arbiter, Cycle now,
            const std::vector<CoreId>& ready, Cycle duration = 2) {
    return arbiter.pick(
        now,
        [&](CoreId c) {
            return std::find(ready.begin(), ready.end(), c) != ready.end();
        },
        [&](CoreId) { return duration; });
}

Arbiter round_robin(CoreId cores) {
    return Arbiter(ArbiterKind::kRoundRobin, cores);
}
Arbiter fixed_priority(CoreId cores) {
    return Arbiter(ArbiterKind::kFixedPriority, cores);
}
Arbiter tdma(CoreId cores, Cycle slot) {
    return Arbiter(ArbiterKind::kTdma, cores, slot);
}

TEST(RoundRobin, InitialPriorityIsCoreZero) {
    const Arbiter rr = round_robin(4);
    EXPECT_EQ(pick(rr, 0, {0, 1, 2, 3}), CoreId{0});
}

TEST(RoundRobin, RotationAfterGrant) {
    // Section 2: "If requester ci is granted access in a given round, the
    // priority ordering for the next round is ci+1, ci+2, ..., ci."
    Arbiter rr = round_robin(4);
    rr.granted(1);
    EXPECT_EQ(rr.head(), 2u);
    EXPECT_EQ(pick(rr, 1, {0, 1, 2, 3}), CoreId{2});
}

TEST(RoundRobin, GrantedCoreBecomesLowestPriority) {
    Arbiter rr = round_robin(4);
    rr.granted(2);
    // 2 should only win if nobody else is ready.
    EXPECT_EQ(pick(rr, 1, {2, 0}), CoreId{0});
    EXPECT_EQ(pick(rr, 1, {2}), CoreId{2});
}

TEST(RoundRobin, WorkConservingSkipsIdleCores) {
    Arbiter rr = round_robin(4);
    rr.granted(0);  // priority head = 1
    EXPECT_EQ(pick(rr, 1, {3}), CoreId{3});
}

TEST(RoundRobin, NoReadyNoGrant) {
    EXPECT_EQ(pick(round_robin(4), 0, {}), kNoCore);
}

TEST(RoundRobin, FullRotationSequence) {
    // All saturated: grants must rotate 0,1,2,3,0,1,...
    Arbiter rr = round_robin(4);
    for (int round = 0; round < 3; ++round) {
        for (CoreId expected = 0; expected < 4; ++expected) {
            const CoreId winner = pick(rr, 0, {0, 1, 2, 3});
            EXPECT_EQ(winner, expected);
            rr.granted(winner);
        }
    }
}

TEST(RoundRobin, ResetRestoresHead) {
    Arbiter rr = round_robin(4);
    rr.granted(2);
    rr.reset();
    EXPECT_EQ(rr.head(), 0u);
}

TEST(RoundRobin, SingleCoreAlwaysWins) {
    Arbiter rr = round_robin(1);
    EXPECT_EQ(pick(rr, 0, {0}), CoreId{0});
    rr.granted(0);
    EXPECT_EQ(pick(rr, 1, {0}), CoreId{0});
}

TEST(RoundRobin, RejectsZeroCores) {
    EXPECT_THROW(round_robin(0), std::invalid_argument);
}

TEST(FixedPriority, LowestIdWins) {
    Arbiter fp = fixed_priority(4);
    EXPECT_EQ(pick(fp, 0, {3, 1, 2}), CoreId{1});
    fp.granted(1);
    EXPECT_EQ(pick(fp, 1, {3, 1, 2}), CoreId{1});  // no rotation
    EXPECT_EQ(fp.head(), 0u);
}

TEST(FixedPriority, StarvationPossible) {
    Arbiter fp = fixed_priority(2);
    for (Cycle i = 0; i < 10; ++i) {
        EXPECT_EQ(pick(fp, i, {0, 1}), CoreId{0});
        fp.granted(0);
    }
}

TEST(Tdma, OnlySlotOwnerWins) {
    const Arbiter bus = tdma(4, 10);
    const std::vector<CoreId> all = {0, 1, 2, 3};
    EXPECT_EQ(pick(bus, 0, all), CoreId{0});   // slot [0,10) -> core 0
    EXPECT_EQ(pick(bus, 10, all), CoreId{1});  // slot [10,20) -> core 1
    EXPECT_EQ(pick(bus, 35, all), CoreId{3});
    EXPECT_EQ(pick(bus, 40, all), CoreId{0});  // wraps
}

TEST(Tdma, NotWorkConserving) {
    // Slot owner 0 idle, others ready: bus stays idle.
    EXPECT_EQ(pick(tdma(4, 10), 5, {1, 2, 3}), kNoCore);
}

TEST(Tdma, TransactionMustFitSlot) {
    const Arbiter bus = tdma(2, 10);
    EXPECT_EQ(pick(bus, 0, {0}, 4), CoreId{0});
    EXPECT_EQ(pick(bus, 6, {0}, 4), CoreId{0});  // ends exactly at 10
    EXPECT_EQ(pick(bus, 7, {0}, 4), kNoCore);    // would overrun
}

TEST(Tdma, GrantsKeepNoState) {
    Arbiter bus = tdma(4, 10);
    bus.granted(0);
    EXPECT_EQ(pick(bus, 1, {0, 1}), CoreId{0});
    EXPECT_FALSE(bus.state_word().has_value());  // absolute time
}

TEST(Tdma, RejectsZeroSlot) {
    EXPECT_THROW(tdma(4, 0), std::invalid_argument);
}

TEST(Tdma, NextGrantCycleWaitsForOwnedSlot) {
    const Arbiter bus = tdma(4, 10);  // core c owns [10c, 10c+10) mod 40
    // Core 0 in its own slot with room: granted immediately.
    EXPECT_EQ(bus.next_grant_cycle(0, 4, 0), 0u);
    EXPECT_EQ(bus.next_grant_cycle(0, 4, 6), 6u);  // ends exactly at 10
    // Core 0 in its own slot but overrunning it: next owned slot.
    EXPECT_EQ(bus.next_grant_cycle(0, 5, 6), 40u);
    // Core 2 while core 0 owns the slot: start of core 2's slot.
    EXPECT_EQ(bus.next_grant_cycle(2, 4, 3), 20u);
    // Core 1 just past its own slot: a full rotation away.
    EXPECT_EQ(bus.next_grant_cycle(1, 4, 20), 50u);
}

TEST(Tdma, NextGrantCycleMatchesPickAtTheReturnedCycle) {
    // The bound must be exact: pick() grants at the returned cycle and
    // at no earlier one — the cycle skipper's correctness condition.
    const Arbiter bus = tdma(3, 7);
    for (CoreId core = 0; core < 3; ++core) {
        for (Cycle duration = 1; duration <= 7; ++duration) {
            for (Cycle earliest = 0; earliest < 45; ++earliest) {
                const Cycle g = bus.next_grant_cycle(core, duration, earliest);
                ASSERT_NE(g, kNoCycle);
                auto sole = [&](Cycle now) {
                    return pick(bus, now, {core}, duration) != kNoCore;
                };
                ASSERT_TRUE(sole(g))
                    << "core " << core << " dur " << duration
                    << " earliest " << earliest;
                for (Cycle t = earliest; t < g; ++t) {
                    ASSERT_FALSE(sole(t))
                        << "core " << core << " dur " << duration
                        << " earlier grant at " << t;
                }
            }
        }
    }
}

TEST(Tdma, NextGrantCycleNeverFitsOversizedTransaction) {
    EXPECT_EQ(tdma(2, 10).next_grant_cycle(0, 11, 0), kNoCycle);
}

TEST(WorkConserving, NextGrantCycleIsTheReadyCycle) {
    // Work-conserving policies grant any ready sole candidate at once:
    // the bound is the request's own earliest cycle.
    EXPECT_EQ(round_robin(4).next_grant_cycle(2, 9, 17), 17u);
    EXPECT_EQ(fixed_priority(4).next_grant_cycle(3, 1, 0), 0u);
    EXPECT_EQ(Arbiter(ArbiterKind::kWeightedRoundRobin, 4)
                  .next_grant_cycle(1, 9, 5),
              5u);
}

TEST(StateWord, IsTheRotationStateOfEachWorkConservingPolicy) {
    Arbiter rr = round_robin(4);
    rr.granted(1);
    EXPECT_EQ(rr.state_word(), std::uint64_t{2});  // the head
    Arbiter fp = fixed_priority(4);
    fp.granted(3);
    EXPECT_EQ(fp.state_word(), std::uint64_t{0});  // stateless
    Arbiter wrr(ArbiterKind::kWeightedRoundRobin, 3, 0, {3, 1, 1});
    wrr.granted(0);
    EXPECT_EQ(wrr.state_word(), std::uint64_t{0} << 32 | 2);  // head, credits
}

}  // namespace
}  // namespace rrb
