#include "cpu/core.h"

#include <algorithm>
#include <numeric>

#include "sim/contract.h"

namespace rrb {

void CoreConfig::validate() const {
    il1_geometry.validate();
    dl1_geometry.validate();
    RRB_REQUIRE(dl1_latency >= 1, "DL1 latency must be >= 1");
    RRB_REQUIRE(il1_latency >= 1, "IL1 latency must be >= 1");
    RRB_REQUIRE(store_buffer_entries >= 1, "store buffer needs an entry");
}

InOrderCore::InOrderCore(CoreId id, const CoreConfig& config,
                         CoreBusPort& port)
    : id_(id),
      config_(config),
      port_(port),
      functional_(id, config, program_),
      store_buffer_(config.store_buffer_entries) {
    config_.validate();
}

void InOrderCore::set_program(Program program, Cycle start_delay) {
    RRB_REQUIRE(!program.body.empty(), "program body must not be empty");
    program_ = std::move(program);
    script_ = nullptr;  // a script decodes one exact program
    l2_baked_ = false;
    restart(start_delay);
}

void InOrderCore::attach_script(const replay::MicroOpScript* script) {
    script_ = script;
    l2_baked_ = script_ != nullptr && script_->l2_baked;
    rp_ = 0;
    ops_done_ = 0;
    remaining_instrs_ =
        script_ != nullptr ? script_->total_instructions : 0;
}

void InOrderCore::restart(Cycle start_delay) {
    functional_.restart();
    next_free_ = start_delay;
    fetched_ = false;
    waiting_ifetch_ = false;
    waiting_load_ = false;
    retired_all_ = false;
    done_ = false;
    finish_cycle_ = kNoCycle;
    store_buffer_.clear();
    drain_in_flight_ = false;
    prev_load_completion_ = kNoCycle;
    attr_cause_dirty_ = true;  // pending resets to kIdle when (re)armed
    rp_ = 0;
    ops_done_ = 0;
    remaining_instrs_ =
        script_ != nullptr ? script_->total_instructions : 0;
    stats_.reset();
}

void InOrderCore::reset() {
    restart(0);
    il1().reset();
    dl1().reset();
}

Cycle InOrderCore::finish_cycle() const {
    RRB_REQUIRE(done_, "core has not finished");
    return finish_cycle_;
}

void InOrderCore::retire_instruction() {
    fetched_ = false;
    ++stats_.instructions;
    if (functional_.retire()) {
        // Loop decrement + branch overhead at every body boundary. The
        // paper unrolls rsk bodies precisely to keep this below 2%.
        next_free_ += program_.loop_control_cycles;
        retired_all_ = functional_.finished();
    }
}

void InOrderCore::start_drain_if_needed(Cycle now) {
    if (drain_in_flight_ || store_buffer_.empty()) return;
    drain_in_flight_ = true;
    const Addr addr = store_buffer_.front();
    // ready = now: the head entry is eligible the same cycle the previous
    // drain completed — injection time 0, the delta = 0 case of Eq. 2.
    port_.request(BusOp::kDataStore, addr, now, BusSlot::kStoreDrain,
                  L2Outcome::kLive);
}

void InOrderCore::on_bus_complete(BusSlot slot, Cycle completion) {
    switch (slot) {
        case BusSlot::kIfetch:
            waiting_ifetch_ = false;
            fetched_ = true;
            next_free_ = completion;
            return;
        case BusSlot::kLoad:
            complete_load(completion);
            return;
        case BusSlot::kStoreDrain:
            RRB_ENSURE(drain_in_flight_ && !store_buffer_.empty());
            store_buffer_.pop_front();
            drain_in_flight_ = false;
            ++stats_.store_drains;
            return;
    }
    RRB_ENSURE(false);
}

void InOrderCore::complete_load(Cycle completion) {
    waiting_load_ = false;
    next_free_ = completion;
    prev_load_completion_ = completion;
    if (script_ == nullptr) {
        // pc advances here so loop-control overhead at a body
        // boundary is charged after the data returns.
        retire_instruction();
        return;
    }
    // Replay counterpart of retire_instruction: the kLoadMiss op stayed
    // current while its fill was in flight; retire it now, charging a
    // body-boundary's loop control after the data returns, exactly like
    // the interpreter.
    fetched_ = false;
    ++stats_.instructions;
    if ((script_->ops[rp_].flags & replay::MicroOp::kWrap) != 0) {
        next_free_ += program_.loop_control_cycles;
    }
    advance_rp(1, 1);
}

bool InOrderCore::reissues_next_miss() const noexcept {
    // l2_baked_ implies a script. Without a wrap the completion leaves
    // next_free_ at the completion cycle, so the tick executes the next
    // op at once; kLoadMiss ops never head a span, so it takes the
    // primitive path.
    if (!l2_baked_ || drain_in_flight_ || !store_buffer_.empty() ||
        remaining_instrs_ == 1) {
        return false;
    }
    const replay::MicroOp* ops = script_->ops.data();
    if ((ops[rp_].flags & replay::MicroOp::kWrap) != 0) return false;
    return ops[wrap_rp(rp_ + 1, remaining_instrs_ - 1)].kind ==
           replay::MicroOp::Kind::kLoadMiss;
}

const replay::MicroOp& InOrderCore::reissue_load(Cycle now) {
    complete_load(now);
    enter_execution(now);
    const replay::MicroOp& op = script_->ops[rp_];
    replay_fetch(op);
    replay_load_miss(op, now);
    return op;
}

Cycle InOrderCore::stall(Cycle now, std::uint64_t& pmc,
                         StallCause cause) noexcept {
    ++pmc;
    if (attr_ != nullptr) {
        // Settle the lazy tail (compute since the last charge) before
        // the cause changes; the retry's entry charge settles this one.
        attr_->charge(id_, attr_->pending(id_), now);
        attr_->set_pending(id_, cause);
        attr_cause_dirty_ = true;
    }
    return now + 1;  // retry next cycle
}

Cycle InOrderCore::execute_instruction(Cycle now) {
    // Instruction fetch through IL1 (free when it hits; stalls on miss).
    if (!fetched_) {
        const FunctionalCore::Lookup fetch = functional_.fetch();
        if (!fetch.hit) {
            ++stats_.ifetch_requests;
            waiting_ifetch_ = true;
            port_.request(BusOp::kInstrFetch, fetch.line, now,
                          BusSlot::kIfetch, L2Outcome::kLive);
            return kNoCycle;  // the fill completion wakes us
        }
        fetched_ = true;
    }

    switch (functional_.instruction().kind) {
        case OpKind::kNop:
        case OpKind::kAlu: {
            // The batch executes the rest of a straight run "early" with
            // next_free_ at the exact naive-stepping value, so the
            // machine skips the whole run in one jump.
            const FunctionalCore::Batch batch = functional_.compute_batch();
            stats_.nops += batch.nops;
            stats_.instructions += batch.instrs;
            fetched_ = false;
            next_free_ = now + batch.cycles;
            retired_all_ = functional_.finished();
            return next_free_;
        }
        case OpKind::kLoad: {
            // Single AHB master port: a load miss may not overtake queued
            // stores.
            if (drain_in_flight_ || !store_buffer_.empty()) {
                return stall(now, stats_.load_gate_stall_cycles,
                             StallCause::kStoreGate);
            }
            ++stats_.loads;
            const FunctionalCore::Lookup access = functional_.load();
            if (access.hit) {
                next_free_ = now + config_.dl1_latency;
                retire_instruction();
                return next_free_;
            }
            ++stats_.load_miss_requests;
            const Cycle ready = now + config_.dl1_latency;
            if (prev_load_completion_ != kNoCycle) {
                observe(stats_.load_injection_delta,
                        ready - prev_load_completion_, log_);
            }
            waiting_load_ = true;
            port_.request(BusOp::kDataLoad, access.line, ready,
                          BusSlot::kLoad, L2Outcome::kLive);
            return kNoCycle;  // the fill completion wakes us
        }
        case OpKind::kStore: {
            // The head entry stays in the buffer while its drain is in
            // flight, so the buffer size alone is the occupancy.
            if (store_buffer_.size() >= config_.store_buffer_entries) {
                return stall(now, stats_.store_full_stall_cycles,
                             StallCause::kStoreBufferFull);
            }
            ++stats_.stores;
            store_buffer_.push_back(functional_.store().line);
            next_free_ = now + 1;  // retires as soon as buffered
            retire_instruction();
            return next_free_;
        }
    }
    RRB_ENSURE(false);
}

void InOrderCore::advance_rp(std::uint32_t ops, std::uint64_t instrs)
    noexcept {
    remaining_instrs_ -= instrs;
    ops_done_ += ops;
    if (remaining_instrs_ == 0) {
        rp_ += ops;
        retired_all_ = true;
        return;
    }
    rp_ = wrap_rp(rp_ + ops, remaining_instrs_);
}

std::uint32_t InOrderCore::wrap_rp(std::uint32_t rp,
                                   std::uint64_t remaining) const noexcept {
    // End of a steady-state pass: re-enter the loop region unless
    // exactly the tail remains — then fall through into the tail ops,
    // whose last op retires the program.
    if (script_->looping && rp == script_->tail_start &&
        remaining > script_->tail_instrs) {
        return script_->loop_start;
    }
    return rp;
}

void InOrderCore::replay_fetch(const replay::MicroOp& op) noexcept {
    if (fetched_) return;
    if ((op.flags & replay::MicroOp::kIl1FetchHit) != 0) {
        il1().replay_read_hits(1);
    }
    fetched_ = true;
}

Cycle InOrderCore::replay_load_miss(const replay::MicroOp& op, Cycle now) {
    ++stats_.loads;
    dl1().replay_read_miss((op.flags & replay::MicroOp::kDl1Evict) != 0);
    ++stats_.load_miss_requests;
    const Cycle ready = now + op.cycles;  // cycles = dl1_latency
    if (prev_load_completion_ != kNoCycle) {
        observe(stats_.load_injection_delta, ready - prev_load_completion_,
                log_);
    }
    waiting_load_ = true;
    return ready;
}

Cycle InOrderCore::replay_execute(Cycle now) {
    const replay::MicroOp& op = script_->ops[rp_];

    // Span fast path: ops [rp_, rp_ + span_ops) are compute / DL1-hit
    // loads (plus at most one terminal store) that provably execute
    // back-to-back. With a clean store buffer no op in the range can
    // stall (no gate, no full-buffer, no drain posting mid-span), so
    // executing them in one tick with next_free_ = now + sum(cycles)
    // is cycle-exact. `!fetched_` excludes re-entry after a partial
    // stall attempt, which would double-charge the head op's fetch.
    if (op.span_ops >= 2 && !fetched_ &&
        ((op.flags & replay::MicroOp::kSpanNeedsClean) == 0 ||
         (store_buffer_.empty() && !drain_in_flight_))) {
        il1().replay_read_hits(op.span_il1_hits);
        stats_.instructions += op.span_instrs;
        stats_.nops += op.span_nops;
        if (op.span_loads != 0) {
            stats_.loads += op.span_loads;
            dl1().replay_read_hits(op.span_loads);
        }
        if ((op.flags & replay::MicroOp::kSpanStore) != 0) {
            const replay::MicroOp& last =
                script_->ops[rp_ + op.span_ops - 1];
            ++stats_.stores;
            dl1().replay_write((last.flags &
                               replay::MicroOp::kDl1WriteHit) != 0);
            store_buffer_.push_back(last.line);
        }
        next_free_ = now + op.span_cycles;
        advance_rp(op.span_ops, op.span_instrs);
        return next_free_;
    }

    // Primitive path: one op per tick — the interpreter's cycle-level
    // behavior, minus the functional work it pre-computed.
    switch (op.kind) {
        case replay::MicroOp::Kind::kCompute: {
            if (!fetched_) {
                if ((op.flags & replay::MicroOp::kIl1FetchHit) != 0) {
                    il1().replay_read_hits(1);
                }
            }
            il1().replay_read_hits(op.il1_chain_hits);
            stats_.instructions += op.instrs;
            stats_.nops += op.nops;
            fetched_ = false;
            next_free_ = now + op.cycles;
            advance_rp(1, op.instrs);
            return next_free_;
        }
        case replay::MicroOp::Kind::kLoadHit:
        case replay::MicroOp::Kind::kLoadMiss: {
            // The fetch hit is charged once, before the gate check, and
            // survives stall retries through fetched_ — the interpreter
            // fetches before gating in exactly this order.
            replay_fetch(op);
            if (drain_in_flight_ || !store_buffer_.empty()) {
                return stall(now, stats_.load_gate_stall_cycles,
                             StallCause::kStoreGate);
            }
            if (op.kind == replay::MicroOp::Kind::kLoadHit) {
                ++stats_.loads;
                dl1().replay_read_hits(1);
                stats_.instructions += 1;
                fetched_ = false;
                next_free_ = now + op.cycles;
                advance_rp(1, 1);
                return next_free_;
            }
            const Cycle ready = replay_load_miss(op, now);
            port_.request(BusOp::kDataLoad, op.line, ready, BusSlot::kLoad,
                          l2_outcome(op, l2_baked_));
            return kNoCycle;  // the fill completion wakes us
        }
        case replay::MicroOp::Kind::kStore: {
            replay_fetch(op);
            if (store_buffer_.size() >= config_.store_buffer_entries) {
                return stall(now, stats_.store_full_stall_cycles,
                             StallCause::kStoreBufferFull);
            }
            ++stats_.stores;
            dl1().replay_write(
                (op.flags & replay::MicroOp::kDl1WriteHit) != 0);
            store_buffer_.push_back(op.line);
            stats_.instructions += 1;
            fetched_ = false;
            next_free_ = now + op.cycles;
            advance_rp(1, 1);
            return next_free_;
        }
        case replay::MicroOp::Kind::kIfetchMiss: {
            il1().replay_read_miss(
                (op.flags & replay::MicroOp::kIl1Evict) != 0);
            ++stats_.ifetch_requests;
            waiting_ifetch_ = true;
            // The op is consumed now; the next op is this same
            // instruction re-executed with fetched_ set by the fill.
            advance_rp(1, 0);
            port_.request(BusOp::kInstrFetch, op.line, now, BusSlot::kIfetch,
                          l2_outcome(op, l2_baked_));
            return kNoCycle;  // the fill completion wakes us
        }
    }
    RRB_ENSURE(false);
}

Cycle InOrderCore::tick(Cycle now) {
    if (done_) return kNoCycle;

    start_drain_if_needed(now);

    if (retired_all_) {
        if (attr_ != nullptr) {
            // The loop-control tail [*, next_free_) is still compute (or
            // whatever was pending); only past next_free_ is the core
            // purely waiting on its store buffer.
            const Cycle tail = now < next_free_ ? now : next_free_;
            attr_->charge(id_, attr_->pending(id_), tail);
            if (now >= next_free_) {
                attr_->charge(id_, StallCause::kDrainWait, now);
                attr_->set_pending(id_, StallCause::kDrainWait);
                attr_cause_dirty_ = true;
            }
        }
        // The program ends when the trailing loop-control cycles have
        // elapsed and every buffered store has been performed.
        if (store_buffer_.empty() && !drain_in_flight_ &&
            now >= next_free_) {
            done_ = true;
            finish_cycle_ = now;
            if (attr_ != nullptr) {
                attr_->set_pending(id_, StallCause::kIdle);
                attr_cause_dirty_ = true;
            }
            return kNoCycle;
        }
        if (!store_buffer_.empty() || drain_in_flight_) {
            return kNoCycle;  // the drain's bus completion wakes us
        }
        return next_free_;  // the done transition fires then
    }

    if (waiting_ifetch_ || waiting_load_) return kNoCycle;
    if (now < next_free_) return next_free_;
    enter_execution(now);
    return script_ != nullptr ? replay_execute(now)
                              : execute_instruction(now);
}

InOrderCore::Phase InOrderCore::phase(Cycle now) const noexcept {
    if (done_) return Phase::kDone;
    if (ops_done_ == 0 && !waiting_on_bus() && now < next_free_) {
        return Phase::kDormant;
    }
    return Phase::kActive;
}

bool InOrderCore::in_loop_region() const noexcept {
    return script_->looping && rp_ >= script_->loop_start &&
           rp_ < script_->tail_start;
}

std::uint64_t InOrderCore::repeatable_periods(std::uint64_t period_ops) const
    noexcept {
    // Every op of the next k periods, and the one under the cursor
    // after them (plus one lookahead op, the bus-only step's), must
    // equal the op a period earlier: stream positions [p, p + k·d + 1]
    // against d back, p the cursor's. Ops equal at lag L chain into
    // equality at lag d when L divides d, so positions
    // [p - d + L, p + k·d + 1] must lie in one repeat run of lag L.
    // The stream is the cursor's walk: the prologue and the tail once,
    // straight through, and the loop region modulo its size until the
    // tail — so the period must lie in the cursor's current region, and
    // in the loop region k stops before the tail.
    const replay::MicroOpScript& script = *script_;
    const std::uint64_t d = period_ops;
    const bool cyclic = in_loop_region();
    const std::uint64_t loop_ops = script.tail_start - script.loop_start;
    std::uint64_t best = 0;
    const auto at_lag = [&](std::uint64_t lag,
                            const std::vector<std::uint16_t>& repeat) {
        if (lag == 0 || d % lag != 0) return;
        std::uint64_t from = 0;
        if (cyclic) {
            // The cursor has walked the prologue once, then the loop
            // region: the period began in it when ops_done_ - d reaches
            // loop_start.
            if (ops_done_ < script.loop_start + d) return;
            from = rp_ + loop_ops - (d - lag) % loop_ops;
            if (from >= script.tail_start) from -= loop_ops;
        } else {
            const std::uint64_t first =
                rp_ < script.loop_start ? 0 : script.tail_start;
            if (rp_ + lag < first + d) return;
            from = rp_ + lag - d;
            if (from >= repeat.size()) return;
        }
        const std::uint64_t run = repeat[from];
        if (run + lag < d + 2) return;
        best = std::max(best, (run + lag - d - 2) / d);
    };
    at_lag(1, script.repeat_prev);
    at_lag(script.pass_ops, script.repeat_pass);
    if (cyclic && best > 0) {
        const std::uint64_t ahead = loop_ops_ahead();
        best = std::min(best, ahead < 2 ? 0 : (ahead - 2) / d);
    }
    return best;
}

std::uint64_t InOrderCore::loop_ops_ahead() const noexcept {
    // Loop passes the cursor still begins, this one included: the tail
    // holds the last tail_instrs instructions, and every pass retires at
    // least one before the cursor reaches its end.
    const replay::MicroOpScript& script = *script_;
    const std::uint64_t passes =
        (remaining_instrs_ - script.tail_instrs + script.loop_instrs - 1) /
        script.loop_instrs;
    return script.tail_start - rp_ +
           (passes - 1) * (script.tail_start - script.loop_start);
}

bool InOrderCore::may_repeat(std::uint64_t period_ops) const noexcept {
    if (period_ops == 0 || !in_loop_region()) return true;
    // A lag serves when the whole region repeats at it (its runs
    // saturate) or when a run could still span the two periods and the
    // lookahead repeatable_periods asks for.
    const replay::MicroOpScript& script = *script_;
    const std::uint64_t d = period_ops;
    const std::uint64_t loop_ops = script.tail_start - script.loop_start;
    const auto serves = [&](std::uint64_t lag,
                            const std::vector<std::uint16_t>& repeat) {
        return lag != 0 && d % lag == 0 &&
               (repeat[script.loop_start] == UINT16_MAX ||
                loop_ops - 1 + lag >= 2 * d + 2);
    };
    return serves(1, script.repeat_prev) ||
           serves(script.pass_ops, script.repeat_pass);
}

std::uint64_t InOrderCore::whole_pass_periods(std::uint64_t period_ops) const
    noexcept {
    if (period_ops == 0) return 1;
    if (!in_loop_region()) return 0;
    // At a lag whose bound saturates, every op of the region repeats the
    // op that lag earlier, so m periods repeat wherever the cursor
    // stands once the lag divides m·period_ops.
    const replay::MicroOpScript& script = *script_;
    std::uint64_t best = 0;
    const auto at_lag = [&](std::uint64_t lag,
                            const std::vector<std::uint16_t>& repeat) {
        if (lag == 0 || repeat[script.loop_start] != UINT16_MAX) return;
        const std::uint64_t m = lag / std::gcd(lag, period_ops);
        if (best == 0 || m < best) best = m;
    };
    at_lag(1, script.repeat_prev);
    at_lag(script.pass_ops, script.repeat_pass);
    return best;
}

void InOrderCore::fast_forward(std::uint64_t ops, std::uint64_t instrs,
                               Cycle delta) noexcept {
    if (in_loop_region()) {
        // repeatable_periods kept the landing before the tail.
        const std::uint64_t loop_ops =
            script_->tail_start - script_->loop_start;
        rp_ = static_cast<std::uint32_t>(
            script_->loop_start +
            (rp_ - script_->loop_start + ops) % loop_ops);
    } else {
        rp_ += static_cast<std::uint32_t>(ops);
    }
    ops_done_ += ops;
    remaining_instrs_ -= instrs;
    next_free_ += delta;
    if (prev_load_completion_ != kNoCycle) prev_load_completion_ += delta;
}

void InOrderCore::enter_execution(Cycle now) noexcept {
    if (attr_ != nullptr && attr_cause_dirty_) {
        // The interval since the last charge belongs to whatever was
        // pending — idle before release or a stall retry; from this
        // cycle on the core is executing again. When compute is already
        // pending the charge is deferred: every consumer of pending
        // (the next cause change, the holder hooks, finalize) settles
        // the lazy tail, and the dirty mirror keeps the armed
        // per-instruction cost to one predictable member-flag compare.
        // Both execution paths enter here, so a replayed span needs no
        // charge of its own: its cycles accrue under pending compute.
        attr_->charge(id_, attr_->pending(id_), now);
        attr_->set_pending(id_, StallCause::kCompute);
        attr_cause_dirty_ = false;
    }
}


}  // namespace rrb
