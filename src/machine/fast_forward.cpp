// Steady-state fast-forward: Machine::run_core skips the periodic part of
// a campaign run instead of stepping it (docs/replay.md, "Steady-state
// fast-forward").
//
// Boundary: each retirement of the scua's last loop-body instruction,
// flat or looping scua alike. At each one the machine's timing state
// relative to now_ overwrites the previous boundary's and is compared
// with it in the same pass: one walk over a few dozen words per core,
// with no cheaper filter in front of it (any filter that skips the
// capture leaves a stale state, and the first match comes a period
// later). Two equal states a period P apart, with every
// counter and histogram observation of that period recorded, mean that
// the next k periods replay the recorded one exactly — as long as no
// core's ops in them differ from the ops a period earlier (a cursor in
// a loop region counts modulo the region, and stops before the tail),
// no dormant core is released and the run limit is not passed. The machine then moves every absolute cycle k·P
// later and adds k times the period's change to every counter,
// histogram and attribution cell: the state and statistics naive
// stepping would reach, without the steps. When one body cannot repeat
// because a contender's loop wraps at a different op every body, the
// period compared becomes a super-period of m bodies after which every
// loop has walked whole passes (Machine::super_period). A run where no
// skip can come stops the bookkeeping (at_scua_boundary).
#include <algorithm>
#include <numeric>

#include "machine/machine.h"

namespace rrb {

namespace {

/// Compare-and-overwrite sink over the boundary snapshot: one pass both
/// compares the new state with the stored one and stores it.
class StateSink {
public:
    explicit StateSink(std::vector<std::uint64_t>& words) noexcept
        : begin_(words.data()), at_(begin_), end_(begin_ + words.size()) {}

    void operator()(std::uint64_t word) noexcept {
        if (at_ == end_) {
            overflowed_ = true;  // outgrew the snapshot: never a match
            return;
        }
        differs_ |= *at_ ^ word;
        *at_++ = word;
    }

    [[nodiscard]] bool same() const noexcept {
        return differs_ == 0 && !overflowed_;
    }
    [[nodiscard]] std::size_t size() const noexcept {
        return static_cast<std::size_t>(at_ - begin_);
    }

private:
    std::uint64_t* begin_;
    std::uint64_t* at_;
    std::uint64_t* end_;
    std::uint64_t differs_ = 0;
    bool overflowed_ = false;
};

}  // namespace

void Machine::begin_fast_forward(CoreId scua) {
    ff_.boundary_above = 0;
    // Eligibility is read off the run itself: naive stepping and traced
    // runs step every cycle, an arbiter with time-dependent state (TDMA)
    // cannot be compared between periods, and every core must replay
    // with baked L2 outcomes so that its ops — not a live cache — decide
    // what it does.
    if (!cycle_skipping_ || tracer_.enabled() ||
        !bus_->arbiter().state_word().has_value()) {
        return;
    }
    for (CoreId c = 0; c < cores_.size(); ++c) {
        if (has_program_[c] && !cores_[c]->replay_l2_baked()) return;
    }
    const InOrderCore& target = *cores_[scua];
    ff_.body = target.program().body.size();
    ff_.total = target.program().total_instructions();
    ff_.boundary_above = next_scua_boundary(target.remaining_instructions());
    ff_.state_size = 0;
    ff_.stride = 1;
    ff_.uncaptured = 0;
    ff_.recorded = false;
}

void Machine::end_fast_forward() noexcept { attach_observation_log(nullptr); }

void Machine::attach_observation_log(ObservationLog* log) noexcept {
    bus_->attach_observation_log(log);
    dram_.attach_observation_log(log);
    for (std::unique_ptr<InOrderCore>& core : cores_) {
        core->attach_observation_log(log);
    }
}

std::uint64_t Machine::next_scua_boundary(std::uint64_t remaining) const
    noexcept {
    // Body m ends when the remaining count falls to total - m·body. The
    // last body's end is the run's end, not a boundary.
    const std::uint64_t bodies = (ff_.total - remaining) / ff_.body + 1;
    return bodies * ff_.body < ff_.total
               ? ff_.total - bodies * ff_.body + 1
               : 0;
}

void Machine::at_scua_boundary(CoreId scua, Cycle& next_hint, Cycle limit) {
    const InOrderCore& target = *cores_[scua];
    // Stops paying for boundaries and logging for the rest of the run.
    const auto give_up = [this] {
        end_fast_forward();
        ff_.boundary_above = 0;
    };
    if (ff_.recorded && ff_.log.overflowed()) {
        // A period with more distinct observations than the log holds
        // can never be skipped, and its neighbours are as large.
        give_up();
        return;
    }
    ff_.boundary_above = next_scua_boundary(target.remaining_instructions());
    if (ff_.uncaptured > 0) {
        // Inside a super-period: only its end is compared.
        --ff_.uncaptured;
        return;
    }
    const Cycle period = now_ - ff_.boundary_at;
    const bool same = capture_state();
    std::uint64_t stride = 1;
    if (same && ff_.recorded) {
        const std::uint64_t periods = skippable_periods(period, limit);
        if (periods > 0) {
            skip_periods(periods, period);
            // The skip lands on a boundary whose state equals the one
            // just captured; the next iteration steps (next event and
            // quiet horizon "unknown").
            next_hint = now_;
            ff_.boundary_above =
                next_scua_boundary(target.remaining_instructions());
        } else if (ff_.stride == 1 && !periods_may_repeat()) {
            // The state repeats, but some core's ops never can over one
            // body — a loop whose phase moves every body. They can over
            // m bodies that walk whole passes of every loop: record this
            // boundary and compare m bodies later.
            stride = super_period(scua);
            if (stride == 0) {
                give_up();
                return;
            }
        }
    } else if (ff_.stride > 1) {
        // A super-period that did not repeat: its neighbours move too.
        give_up();
        return;
    }
    ff_.stride = stride;
    ff_.uncaptured = stride - 1;
    record_boundary();
}

bool Machine::periods_may_repeat() const noexcept {
    for (CoreId c = 0; c < cores_.size(); ++c) {
        if (!has_program_[c]) continue;
        const InOrderCore& core = *cores_[c];
        if (core.phase(now_) == InOrderCore::Phase::kActive &&
            !core.may_repeat(core.ops_done() - ff_.marks[c].ops_done)) {
            return false;
        }
    }
    return true;
}

std::uint64_t Machine::super_period(CoreId scua) const noexcept {
    const InOrderCore& target = *cores_[scua];
    // No super-period outlasts the scua's remaining bodies.
    const std::uint64_t cap = target.remaining_instructions() / ff_.body;
    std::uint64_t m = 1;
    for (CoreId c = 0; c < cores_.size(); ++c) {
        if (!has_program_[c]) continue;
        const InOrderCore& core = *cores_[c];
        if (core.phase(now_) != InOrderCore::Phase::kActive) continue;
        const std::uint64_t periods =
            core.whole_pass_periods(core.ops_done() - ff_.marks[c].ops_done);
        if (periods == 0) return 0;
        const std::uint64_t factor = periods / std::gcd(m, periods);
        if (factor > cap / m) return 0;
        m *= factor;
    }
    // The super-period recorded from here and one skipped one must end
    // before the scua's tail, with the lookahead op
    // InOrderCore::repeatable_periods asks for.
    const std::uint64_t body_ops =
        target.ops_done() - ff_.marks[scua].ops_done;
    return target.loop_ops_ahead() >= 2 * m * body_ops + 2 ? m : 0;
}

bool Machine::capture_state() {
    StateSink sink(ff_.state);
    for (CoreId c = 0; c < cores_.size(); ++c) {
        if (!has_program_[c]) continue;
        const InOrderCore& core = *cores_[c];
        const InOrderCore::Phase phase = core.phase(now_);
        sink(static_cast<std::uint64_t>(phase));
        // A dormant core's fields do not move until its release, and a
        // finished core's never again: neither is compared or shifted.
        if (phase != InOrderCore::Phase::kActive) continue;
        core.timing_state(now_, sink);
        const Cycle next = core_next_[c];
        sink(next == 0 ? kNoCycle - 1 : next == kNoCycle ? next : next - now_);
        const Port& port = *ports_[c];
        sink(port.queue_.size() << 1 | std::uint64_t{port.busy_});
        for (std::size_t i = 0; i < port.queue_.size(); ++i) {
            const Port::Queued& q = port.queue_.at(i);
            sink(std::uint64_t(q.op) | std::uint64_t(q.slot) << 8 |
                 std::uint64_t(q.l2) << 16);
            sink(q.ready - now_);
            sink(q.addr);
        }
        if (attr_ != nullptr) {
            attribution_.timing_state(c, now_, bus_->has_pending(c), sink);
        }
    }
    bus_->timing_state(now_, sink, [this](Addr addr) {
        return config_.dram.row_at(addr);
    });
    dram_.timing_state(now_, sink);
    if (attr_ != nullptr) {
        sink(bus_->in_service() ? attribution_.active_grant() - now_
                                : kNoCycle);
    }
    const bool same = sink.same() && sink.size() == ff_.state_size;
    ff_.state_size = sink.size();
    return same;
}

std::uint64_t Machine::skippable_periods(Cycle period, Cycle limit) const {
    // The run limit: land on it at the latest.
    std::uint64_t periods = (limit - now_) / period;

    // The memory controller was idle at both boundaries (compared). A
    // period with DRAM traffic must hold one read that finds every bank
    // ready with the same row open, on both ends: then which bank the
    // read goes to cannot matter, and the ops' repeat bounds pin its
    // row. Anything busier is not skipped.
    if (!dram_.idle()) return 0;
    const std::uint64_t reads = dram_.stats().reads - ff_.dram_reads;
    const std::uint64_t writes = dram_.stats().writes - ff_.dram_writes;
    if (writes != 0 || reads > 1) return 0;
    if (reads == 1 && (!dram_.at_rest(now_) || !dram_.rows_aligned())) {
        return 0;
    }

    for (CoreId c = 0; c < cores_.size(); ++c) {
        if (!has_program_[c]) continue;
        const InOrderCore& core = *cores_[c];
        switch (core.phase(now_)) {
            case InOrderCore::Phase::kDone:
                break;
            case InOrderCore::Phase::kDormant:
                // Its release must not fall inside a skipped period.
                periods = std::min(periods,
                                   (core.release_cycle() - now_) / period);
                break;
            case InOrderCore::Phase::kActive: {
                const std::uint64_t ops =
                    core.ops_done() - ff_.marks[c].ops_done;
                if (ops > 0) {
                    periods = std::min(periods, core.repeatable_periods(ops));
                }
                break;
            }
        }
    }
    return periods;
}

void Machine::skip_periods(std::uint64_t periods, Cycle period) {
    const Cycle delta = periods * period;
    // Every counter gains `periods` times its change over the recorded
    // period, and every histogram gets its observations again.
    std::size_t i = 0;
    visit_counters([&](std::uint64_t& counter) {
        counter += periods * (counter - ff_.counters[i++]);
    });
    ff_.log.replay(periods);
    for (CoreId c = 0; c < cores_.size(); ++c) {
        if (!has_program_[c]) continue;
        InOrderCore& core = *cores_[c];
        if (core.phase(now_) != InOrderCore::Phase::kActive) continue;
        const FastForward::Mark& mark = ff_.marks[c];
        core.fast_forward(
            periods * (core.ops_done() - mark.ops_done),
            periods * (mark.remaining - core.remaining_instructions()),
            delta);
        Cycle& next = core_next_[c];
        if (next != 0 && next != kNoCycle) next += delta;
        Port& port = *ports_[c];
        for (std::size_t q = 0; q < port.queue_.size(); ++q) {
            port.queue_.at(q).ready += delta;
        }
        if (attr_ != nullptr) attribution_.shift_core(c, delta);
    }
    bus_->shift_time(delta);
    dram_.shift_time(delta);
    if (attr_ != nullptr) attribution_.active_grant() += delta;
    now_ += delta;
    quiet_until_ = now_;  // unknown: the next step recomputes it
    periods_fast_forwarded_ += periods * ff_.stride;  // scua bodies
    cycles_fast_forwarded_ += delta;
}

void Machine::record_boundary() {
    // Only periods between two boundaries are ever replayed: the
    // observations before the first one need no log.
    if (!ff_.recorded) attach_observation_log(&ff_.log);
    std::size_t i = 0;
    visit_counters([&](std::uint64_t& counter) { ff_.counters[i++] = counter; });
    for (CoreId c = 0; c < cores_.size(); ++c) {
        const InOrderCore& core = *cores_[c];
        ff_.marks[c] = {core.ops_done(), core.remaining_instructions()};
    }
    ff_.dram_reads = dram_.stats().reads;
    ff_.dram_writes = dram_.stats().writes;
    ff_.boundary_at = now_;
    ff_.log.clear();
    ff_.recorded = true;
}

}  // namespace rrb
