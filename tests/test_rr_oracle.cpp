// An independent round-robin oracle for the bus.
//
// Every differential suite compares the optimized machine with its own
// naive mode, and both modes share Bus and RoundRobinArbiter — an
// arbitration bug would show in neither. This file holds a textbook
// round-robin bus written from the protocol's definition alone (the
// paper's Section 2 and the timing contract in bus/bus.h), sharing no
// code with src/bus: whenever the bus is free, every request whose ready
// cycle has come is committed as one batch, and the grant goes to the
// first requester at or after a rotating pointer, which then moves past
// the winner (the commit-a-batch, rotating-tie-break idiom). Random
// traces drive both buses in lockstep; they must grant the same request
// at the same cycle, grant by grant, and no two transactions may
// overlap.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
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

class TextbookRoundRobinBus {
public:
    explicit TextbookRoundRobinBus(CoreId cores) : waiting_(cores) {}

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
        std::vector<CoreId> batch;
        for (CoreId c = 0; c < waiting_.size(); ++c) {
            if (waiting_[c] && waiting_[c]->ready <= now) batch.push_back(c);
        }
        if (batch.empty()) return;
        // Rotating tie-break: the first batch member at or after the
        // pointer, in cyclic order.
        CoreId winner = batch.front();
        for (const CoreId c : batch) {
            if (c >= pointer_) {
                winner = c;
                break;
            }
        }
        const Request r = *waiting_[winner];
        waiting_[winner].reset();
        active_ = Grant{winner, now, r.duration, r.tag};
        pointer_ = (winner + 1) % static_cast<CoreId>(waiting_.size());
    }

private:
    struct Request {
        Cycle ready = 0;
        Cycle duration = 0;
        std::uint64_t tag = 0;
    };
    std::vector<std::optional<Request>> waiting_;
    std::optional<Grant> active_;
    CoreId pointer_ = 0;  ///< highest priority for the next batch
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

class RoundRobinOracle : public ::testing::TestWithParam<Shape> {};

TEST_P(RoundRobinOracle, BusGrantsWhatTheTextbookBusGrants) {
    const Shape shape = GetParam();
    Bus bus(shape.cores, std::make_unique<RoundRobinArbiter>(shape.cores));
    Recorder recorder;
    recorder.busy.assign(shape.cores, false);
    bus.attach_client(&recorder);
    TextbookRoundRobinBus oracle(shape.cores);
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

INSTANTIATE_TEST_SUITE_P(
    Traces, RoundRobinOracle,
    ::testing::Values(Shape{2, 1, 0.5, 1}, Shape{2, 9, 0.3, 2},
                      Shape{3, 4, 0.6, 3}, Shape{4, 9, 0.9, 4},
                      Shape{4, 2, 0.2, 5}, Shape{5, 7, 0.5, 6},
                      Shape{6, 3, 0.8, 7}, Shape{7, 9, 0.4, 8},
                      Shape{8, 1, 1.0, 9}, Shape{8, 9, 0.7, 10}));

}  // namespace
}  // namespace rrb
