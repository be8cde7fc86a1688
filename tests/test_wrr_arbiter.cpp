#include "bus/arbiter.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace rrb {
namespace {

/// The arbiter's pick among the cores in `ready` (kNoCore: none ready).
CoreId pick(const Arbiter& arbiter, const std::vector<CoreId>& ready) {
    return arbiter.pick(
        0,
        [&](CoreId c) {
            return std::find(ready.begin(), ready.end(), c) != ready.end();
        },
        [](CoreId) { return Cycle{2}; });
}

Arbiter wrr(std::vector<std::uint32_t> weights) {
    const auto cores = static_cast<CoreId>(weights.size());
    return Arbiter(ArbiterKind::kWeightedRoundRobin, cores, 0,
                   std::move(weights));
}

/// Picks and grants once per ready set; returns the winners.
std::vector<CoreId> grant_sequence(
    Arbiter& arbiter, const std::vector<std::vector<CoreId>>& ready_sets) {
    std::vector<CoreId> winners;
    for (const std::vector<CoreId>& ready : ready_sets) {
        const CoreId winner = pick(arbiter, ready);
        winners.push_back(winner);
        if (winner != kNoCore) arbiter.granted(winner);
    }
    return winners;
}

TEST(WeightedRR, UnitWeightsMatchPlainRRWhileEveryCoreIsReady) {
    // With all weights 1 and every core ready at every arbitration, the
    // head always wins and advances by one: exactly plain round-robin.
    Arbiter weighted = wrr({1, 1, 1, 1});
    Arbiter plain(ArbiterKind::kRoundRobin, 4);
    const std::vector<std::vector<CoreId>> saturated(12, {0, 1, 2, 3});
    EXPECT_EQ(grant_sequence(weighted, saturated),
              grant_sequence(plain, saturated));
}

TEST(WeightedRR, UnitWeightsKeepTheHeadAfterASteal) {
    // Not plain RR once the head is idle: after core 0's grant both heads
    // are 1; core 3 steals while 1 is not ready, and then WRR keeps head 1
    // where RR rotates past the winner, to 0.
    Arbiter weighted = wrr({1, 1, 1, 1});
    Arbiter plain(ArbiterKind::kRoundRobin, 4);
    const std::vector<std::vector<CoreId>> ready_sets = {
        {0, 1, 2, 3}, {3}, {0, 1, 2, 3}};
    EXPECT_EQ(grant_sequence(weighted, ready_sets),
              (std::vector<CoreId>{0, 3, 1}));
    EXPECT_EQ(grant_sequence(plain, ready_sets),
              (std::vector<CoreId>{0, 3, 0}));
}

TEST(WeightedRR, HeadKeepsCreditsWorthOfGrants) {
    Arbiter arbiter = wrr({2, 1, 1});
    // Core 0 wins twice (weight 2), then 1, then 2, then 0 again.
    const std::vector<std::vector<CoreId>> saturated(7, {0, 1, 2});
    EXPECT_EQ(grant_sequence(arbiter, saturated),
              (std::vector<CoreId>{0, 0, 1, 2, 0, 0, 1}));
}

TEST(WeightedRR, WorkConservingStealDoesNotBurnCredits) {
    Arbiter arbiter = wrr({2, 1});
    // Head (0) idle; core 1 steals; head keeps both credits.
    EXPECT_EQ(pick(arbiter, {1}), CoreId{1});
    arbiter.granted(1);
    EXPECT_EQ(arbiter.credits_left(), 2u);
    EXPECT_EQ(arbiter.head(), 0u);
    EXPECT_EQ(pick(arbiter, {0, 1}), CoreId{0});
    arbiter.granted(0);
    EXPECT_EQ(pick(arbiter, {0, 1}), CoreId{0});  // second credit
}

TEST(WeightedRR, WorstCaseWindow) {
    const Arbiter arbiter = wrr({2, 1, 3, 1});
    EXPECT_EQ(arbiter.worst_case_window(0), 5u);  // 1+3+1
    EXPECT_EQ(arbiter.worst_case_window(2), 4u);  // 2+1+1
    EXPECT_THROW((void)arbiter.worst_case_window(4), std::invalid_argument);
}

TEST(WeightedRR, ResetRestoresInitialState) {
    Arbiter arbiter = wrr({2, 1});
    arbiter.granted(0);
    arbiter.reset();
    EXPECT_EQ(arbiter.head(), 0u);
    EXPECT_EQ(arbiter.credits_left(), 2u);
}

TEST(WeightedRR, RejectsZeroWeight) {
    EXPECT_THROW(wrr({1, 0, 1}), std::invalid_argument);
    EXPECT_THROW(wrr({}), std::invalid_argument);  // zero cores
}

TEST(WeightedRR, DefaultsToUnitWeights) {
    const Arbiter arbiter(ArbiterKind::kWeightedRoundRobin, 3);
    EXPECT_EQ(arbiter.credits_left(), 1u);
    EXPECT_EQ(arbiter.worst_case_window(0), 2u);
}

TEST(WeightedRR, ValidatesWeightCount) {
    EXPECT_THROW(Arbiter(ArbiterKind::kWeightedRoundRobin, 3, 0, {1, 2}),
                 std::invalid_argument);
}

TEST(WeightedRR, SaturatedWindowMatchesWorstCase) {
    // With every core always ready, core i waits exactly
    // worst_case_window(i) grants between two of its own turns.
    Arbiter arbiter = wrr({2, 1, 1, 2});
    const std::vector<CoreId> sequence = grant_sequence(
        arbiter, std::vector<std::vector<CoreId>>(60, {0, 1, 2, 3}));
    // Count the gap (in grants) between the LAST grant of core 1's burst
    // and its next grant: must equal worst_case_window(1) = 5.
    std::vector<std::size_t> positions;
    for (std::size_t i = 0; i < sequence.size(); ++i) {
        if (sequence[i] == 1) positions.push_back(i);
    }
    ASSERT_GE(positions.size(), 3u);
    for (std::size_t i = 1; i + 1 < positions.size(); ++i) {
        EXPECT_EQ(positions[i + 1] - positions[i], 6u);  // window + own grant
    }
}

}  // namespace
}  // namespace rrb
