// An independent arbitration oracle for the bus.
//
// Every differential suite compares the optimized machine with its own
// naive mode, and both modes share Bus and its Arbiter — an arbitration
// bug would show in neither. This file holds a textbook bus written from
// the protocols' definitions alone (the paper's Section 2, the timing
// contract in bus/bus.h and each policy's definition below), sharing no
// code with src/bus: whenever the bus is free, every request whose ready
// cycle has come is committed as one batch, and the policy picks the
// winner from the batch. Random traces drive both buses in lockstep; they
// must grant the same request at the same cycle, grant by grant, and no
// two transactions may overlap.
//
// The textbook policies:
//   * round-robin — a priority order of all cores; the first batch member
//     in that order wins, and after core ci is granted the order becomes
//     ci+1, ci+2, ..., ci (Section 2);
//   * fixed priority — the order 0, 1, ..., Nc-1, never rotated;
//   * weighted round-robin — the same priority order, whose front core may
//     take `weight` consecutive grants before the order rotates by one; a
//     grant to any other core (a steal: the front was not ready) leaves
//     the order and the front's remaining grants as they are;
//   * TDMA — time cut into slots owned by cores 0, 1, ..., Nc-1 in turn;
//     only the slot owner may win, and only when its transaction ends by
//     the end of the slot. Otherwise the bus stays idle.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "bus/bus.h"
#include "sim/rng.h"

namespace rrb {
namespace {

struct Grant {
    CoreId core = 0;
    Cycle at = 0;        ///< grant cycle
    Cycle duration = 0;  ///< bus occupancy
    std::uint64_t tag = 0;

    bool operator==(const Grant&) const = default;
};

/// One arbitration policy with its parameters.
struct Policy {
    ArbiterKind kind = ArbiterKind::kRoundRobin;
    Cycle tdma_slot = 0;                ///< TDMA only
    std::vector<std::uint32_t> weights;  ///< WRR only, one per core
};

class TextbookBus {
public:
    TextbookBus(CoreId cores, Policy policy)
        : policy_(std::move(policy)), waiting_(cores), order_(cores) {
        std::iota(order_.begin(), order_.end(), CoreId{0});
        if (policy_.kind == ArbiterKind::kWeightedRoundRobin) {
            front_grants_left_ = policy_.weights[order_.front()];
        }
    }

    void post(CoreId core, Cycle ready, Cycle duration, std::uint64_t tag) {
        ASSERT_FALSE(waiting_[core].has_value()) << "one request per core";
        waiting_[core] = Request{ready, duration, tag};
    }

    /// The transaction ending at `now`, if any: the bus is free again
    /// from this cycle on.
    std::optional<Grant> complete(Cycle now) {
        if (!active_ || active_->at + active_->duration != now) {
            return std::nullopt;
        }
        const Grant done = *active_;
        active_.reset();
        return done;
    }

    /// Commits the batch of requests ready at `now` when the bus is free.
    void arbitrate(Cycle now) {
        if (active_) return;
        std::vector<bool> batch(waiting_.size(), false);
        bool any = false;
        for (CoreId c = 0; c < waiting_.size(); ++c) {
            batch[c] = waiting_[c] && waiting_[c]->ready <= now;
            any = any || batch[c];
        }
        if (!any) return;
        const std::optional<CoreId> winner = choose(batch, now);
        if (!winner) return;
        const Request r = *waiting_[*winner];
        waiting_[*winner].reset();
        active_ = Grant{*winner, now, r.duration, r.tag};
        after_grant(*winner);
    }

private:
    struct Request {
        Cycle ready = 0;
        Cycle duration = 0;
        std::uint64_t tag = 0;
    };

    std::optional<CoreId> choose(const std::vector<bool>& batch,
                                 Cycle now) const {
        if (policy_.kind == ArbiterKind::kTdma) {
            const Cycle slot = now / policy_.tdma_slot;
            const auto owner =
                static_cast<CoreId>(slot % waiting_.size());
            const Cycle slot_end = (slot + 1) * policy_.tdma_slot;
            if (batch[owner] && now + waiting_[owner]->duration <= slot_end) {
                return owner;
            }
            return std::nullopt;
        }
        for (const CoreId c : order_) {
            if (batch[c]) return c;
        }
        return std::nullopt;
    }

    void after_grant(CoreId winner) {
        switch (policy_.kind) {
            case ArbiterKind::kRoundRobin: {
                // The winner moves to the back: ci+1, ..., ci.
                const auto at = std::find(order_.begin(), order_.end(), winner);
                std::rotate(order_.begin(), at + 1, order_.end());
                break;
            }
            case ArbiterKind::kWeightedRoundRobin:
                if (winner != order_.front()) break;  // a steal
                if (--front_grants_left_ == 0) {
                    std::rotate(order_.begin(), order_.begin() + 1,
                                order_.end());
                    front_grants_left_ = policy_.weights[order_.front()];
                }
                break;
            case ArbiterKind::kFixedPriority:
            case ArbiterKind::kTdma:
                break;
        }
    }

    Policy policy_;
    std::vector<std::optional<Request>> waiting_;
    std::optional<Grant> active_;
    std::vector<CoreId> order_;  ///< priority order, highest first
    std::uint32_t front_grants_left_ = 0;  ///< WRR: order_.front()'s
};

/// Every finished transaction of the production bus, as its grant.
struct Recorder final : BusClient {
    std::vector<Grant> grants;
    std::vector<bool> busy;
    void bus_complete(const BusRequest& r, Cycle completion) override {
        grants.push_back({r.core, completion - r.duration, r.duration, r.tag});
        busy[r.core] = false;
    }
};

struct Shape {
    CoreId cores;
    Cycle max_duration;
    double post_probability;
    std::uint64_t seed;
};

const Shape kShapes[] = {
    {2, 1, 0.5, 1}, {2, 9, 0.3, 2},  {3, 4, 0.6, 3}, {4, 9, 0.9, 4},
    {4, 2, 0.2, 5}, {5, 7, 0.5, 6},  {6, 3, 0.8, 7}, {7, 9, 0.4, 8},
    {8, 1, 1.0, 9}, {8, 9, 0.7, 10},
};

/// Drives the production bus and the textbook bus with one random trace
/// and asserts they grant alike, grant by grant.
void expect_textbook_grants(const Shape& shape, const Policy& policy) {
    Bus bus(Arbiter(policy.kind, shape.cores, policy.tdma_slot,
                    policy.weights));
    Recorder recorder;
    recorder.busy.assign(shape.cores, false);
    bus.attach_client(&recorder);
    TextbookBus oracle(shape.cores, policy);
    std::vector<Grant> expected;
    Pcg32 rng(shape.seed);

    const Cycle horizon = 12000;
    std::uint64_t tag = 0;
    for (Cycle now = 0; now < horizon; ++now) {
        bus.complete_phase(now);
        if (const std::optional<Grant> done = oracle.complete(now)) {
            expected.push_back(*done);
        }
        // A core posts again at its own completion cycle or later, with
        // a ready cycle at or after now — the machine's posting rules.
        for (CoreId c = 0; c < shape.cores; ++c) {
            if (recorder.busy[c] || now + 100 > horizon) continue;
            if (!rng.next_bool(shape.post_probability)) continue;
            const Cycle duration =
                1 + rng.next_below(
                        static_cast<std::uint32_t>(shape.max_duration));
            const Cycle ready = now + rng.next_below(4);
            recorder.busy[c] = true;
            bus.post({c, BusOp::kDataLoad, 0, ready, duration, tag});
            oracle.post(c, ready, duration, tag);
            ++tag;
        }
        bus.arbitrate_phase(now);
        oracle.arbitrate(now);
    }

    ASSERT_GT(expected.size(), 200u);
    ASSERT_EQ(recorder.grants.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
        ASSERT_EQ(recorder.grants[i], expected[i]) << "grant " << i;
    }
    for (std::size_t i = 1; i < expected.size(); ++i) {
        EXPECT_GE(expected[i].at, expected[i - 1].at + expected[i - 1].duration)
            << "transactions " << i - 1 << " and " << i << " overlap";
    }
}

class PolicyOracle : public ::testing::TestWithParam<Shape> {};

TEST_P(PolicyOracle, RoundRobinGrantsWhatTheTextbookBusGrants) {
    expect_textbook_grants(GetParam(), {ArbiterKind::kRoundRobin, 0, {}});
}

TEST_P(PolicyOracle, FixedPriorityGrantsWhatTheTextbookBusGrants) {
    expect_textbook_grants(GetParam(), {ArbiterKind::kFixedPriority, 0, {}});
}

TEST_P(PolicyOracle, WeightedRoundRobinGrantsWhatTheTextbookBusGrants) {
    // Unit weights (which still differ from RR: a steal keeps the head),
    // and two non-unit vectors drawn from the shape.
    const Shape shape = GetParam();
    std::vector<std::vector<std::uint32_t>> vectors(3);
    for (CoreId c = 0; c < shape.cores; ++c) {
        vectors[0].push_back(1);
        vectors[1].push_back(1 + (c + shape.seed) % 3);
        vectors[2].push_back(c == 0 ? 4 : 1 + c % 2);
    }
    for (std::size_t i = 0; i < vectors.size(); ++i) {
        SCOPED_TRACE("weight vector " + std::to_string(i));
        expect_textbook_grants(
            shape, {ArbiterKind::kWeightedRoundRobin, 0, vectors[i]});
    }
}

TEST_P(PolicyOracle, TdmaGrantsWhatTheTextbookBusGrants) {
    // Slots of one to three times the longest transaction: at 1x only a
    // slot's first cycle fits the longest one.
    const Shape shape = GetParam();
    for (Cycle times = 1; times <= 3; ++times) {
        SCOPED_TRACE("slot = " + std::to_string(times) + " x max duration");
        expect_textbook_grants(
            shape, {ArbiterKind::kTdma, times * shape.max_duration, {}});
    }
}

INSTANTIATE_TEST_SUITE_P(Traces, PolicyOracle, ::testing::ValuesIn(kShapes));

}  // namespace
}  // namespace rrb
