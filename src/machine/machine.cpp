#include "machine/machine.h"

#include <algorithm>
#include <bit>

#include "replay/microop.h"
#include "sim/contract.h"

namespace rrb {

namespace {

std::uint64_t slot_tag(BusSlot slot) noexcept {
    return static_cast<std::uint64_t>(slot);
}

BusSlot tag_slot(std::uint64_t tag) noexcept {
    return static_cast<BusSlot>(tag);
}

}  // namespace

Machine::Machine(MachineConfig config)
    : config_(config),
      l2_(config.l2_geometry, config.num_cores),
      dram_(config.dram),
      attribution_(config.num_cores),
      // Snapshot room for every core's execution state, port queue and
      // cursors, the bus's requests and the controller's queue and
      // banks; a state that outgrows it only never matches.
      ff_(64 + std::size_t{config.num_cores} *
                   (40 + config.core.store_buffer_entries) +
              std::size_t{config.dram.num_banks} * 2,
          config.num_cores) {
    config_.validate();
    bus_ = std::make_unique<Bus>(
        Arbiter(config_.arbiter, config_.num_cores, config_.tdma_slot_cycles,
                config_.wrr_weights));
    bus_->attach_tracer(&tracer_);
    bus_->attach_client(this);
    dram_.attach_tracer(&tracer_);
    dram_.attach_client(this);

    ports_.reserve(config_.num_cores);
    cores_.reserve(config_.num_cores);
    has_program_.reserve(config_.num_cores);
    for (CoreId c = 0; c < config_.num_cores; ++c) {
        ports_.push_back(std::make_unique<Port>(*this, c));
        cores_.push_back(
            std::make_unique<InOrderCore>(c, config_.core, *ports_[c]));
    }
    has_program_.assign(config_.num_cores, false);
    core_next_.assign(config_.num_cores, kNoCycle);
    // One slot per additive counter, attribution's included.
    std::size_t counters = 0;
    const auto count = [&counters](std::uint64_t&) { ++counters; };
    visit_counters(count);  // unarmed
    attribution_.visit_counters(count);
    ff_.counters.assign(counters, 0);
}

InOrderCore& Machine::core(CoreId id) {
    RRB_REQUIRE(id < cores_.size(), "core id out of range");
    return *cores_[id];
}

const InOrderCore& Machine::core(CoreId id) const {
    RRB_REQUIRE(id < cores_.size(), "core id out of range");
    return *cores_[id];
}

bool Machine::has_program(CoreId id) const {
    RRB_REQUIRE(id < cores_.size(), "core id out of range");
    return has_program_[id];
}

void Machine::load_program(CoreId core, Program program,
                           Cycle start_delay) {
    RRB_REQUIRE(core < cores_.size(), "core id out of range");
    cores_[core]->set_program(std::move(program), start_delay);
    has_program_[core] = true;
    core_next_[core] = 0;
}

void Machine::restart_program(CoreId core, Cycle start_delay) {
    RRB_REQUIRE(core < cores_.size(), "core id out of range");
    RRB_REQUIRE(has_program_[core], "core has no program");
    cores_[core]->restart(start_delay);
    core_next_[core] = 0;
}

void Machine::attach_replay(CoreId core, const replay::MicroOpScript* script) {
    RRB_REQUIRE(core < cores_.size(), "core id out of range");
    cores_[core]->attach_script(script);
}

void Machine::warm_static_footprint(CoreId core_id) {
    RRB_REQUIRE(core_id < cores_.size(), "core id out of range");
    RRB_REQUIRE(has_program_[core_id], "core has no program");
    InOrderCore& core = *cores_[core_id];
    // A replaying core never consults its IL1 state (outcomes are baked
    // into the script, whose decoder ran this warm on its replica), so
    // the per-run IL1 warm is pure overhead for it. Same for its L2
    // partition when the script carries baked L2 outcomes; otherwise
    // the partition is live and the warm stays.
    if (!core.has_script()) core.warm_code();
    if (!core.replay_l2_baked()) {
        FunctionalCore::warm_data(core.program(), l2_.partition(core_id));
    }
}

void Machine::reset_keep_programs() {
    now_ = 0;
    events_skipped_ = 0;
    cycles_skipped_ = 0;
    bus_only_steps_ = 0;
    periods_fast_forwarded_ = 0;
    cycles_fast_forwarded_ = 0;
    step_kinds_.fill(0);
    if (attr_ != nullptr) attribution_.reset();
    bus_->reset();
    dram_.reset();
    l2_.reset();
    tracer_.clear();
    for (std::unique_ptr<Port>& port : ports_) {
        port->busy_ = false;
        port->queue_.clear();
    }
    for (std::unique_ptr<InOrderCore>& core : cores_) core->reset();
    for (CoreId c = 0; c < cores_.size(); ++c) {
        core_next_[c] = has_program_[c] ? 0 : kNoCycle;
    }
}

void Machine::reset() {
    reset_keep_programs();
    std::fill(has_program_.begin(), has_program_.end(), false);
    std::fill(core_next_.begin(), core_next_.end(), kNoCycle);
}

void Machine::Port::request(BusOp op, Addr addr, Cycle ready, BusSlot slot,
                            L2Outcome l2) {
    if (!busy_ && queue_.empty()) {
        // Idle port: issue directly, skipping the queue round-trip (the
        // ready re-base below is a no-op for a fresh request, whose
        // ready is always >= now).
        busy_ = true;
        machine_.issue(core_, op, addr, std::max(ready, machine_.now_), slot,
                       l2);
        return;
    }
    queue_.push_back({op, addr, ready, slot, l2});
}

void Machine::Port::try_issue(Cycle now) {
    if (busy_ || queue_.empty()) return;
    const Queued next = queue_.front();
    queue_.pop_front();
    busy_ = true;
    // Waiting behind our own earlier transaction is core-local, not bus
    // contention: re-base the ready cycle to when the port became free.
    const Cycle ready = std::max(next.ready, now);
    if (machine_.attr_ != nullptr && next.slot != BusSlot::kStoreDrain) {
        // A demand request spent [ready, rebased) behind this core's own
        // earlier transaction — self-inflicted, not bus contention.
        machine_.attr_->charge(core_, StallCause::kCompute, next.ready);
        machine_.attr_->charge(core_, StallCause::kPortQueue, ready);
    }
    machine_.issue(core_, next.op, next.addr, ready, next.slot, next.l2);
}

void Machine::issue(CoreId core, BusOp op, Addr addr, Cycle ready,
                    BusSlot slot, L2Outcome l2) {
    switch (op) {
        case BusOp::kDataStore: {
            bus_->post({core, op, addr, ready, config_.store_service_cycles,
                        slot_tag(slot)});
            return;
        }
        case BusOp::kDataLoad:
        case BusOp::kInstrFetch: {
            // The L2 outcome is deterministic; decide it now to size the
            // transaction (hit: bus held until the L2 answers; miss: split).
            // Replayed storeless programs, the common case, carry it baked.
            if (l2 == L2Outcome::kLive) [[unlikely]] {
                const CacheAccess access = l2_.read(core, addr);
                l2 = access.hit ? L2Outcome::kHit : L2Outcome::kMiss;
                if (access.dirty_eviction && access.victim_line) {
                    const Addr victim_addr =
                        *access.victim_line * config_.l2_geometry.line_bytes;
                    dram_.enqueue({core, config_.dram.wrap(victim_addr),
                                   /*is_write=*/true, now_, 0});
                }
            } else {
                l2_.replay_read(core, l2 == L2Outcome::kHit,
                                l2 == L2Outcome::kMissEvict);
            }
            if (l2 == L2Outcome::kHit) {
                bus_->post({core, op, addr, ready,
                            config_.load_hit_service(), slot_tag(slot)});
                return;
            }
            // Split transaction: address phase, DRAM access, fill response.
            bus_->post({core, BusOp::kMissRequest, addr, ready,
                        config_.miss_request_cycles, slot_tag(slot)});
            return;
        }
        case BusOp::kMissRequest:
        case BusOp::kFillResponse:
            break;  // internal ops are never issued through ports
    }
    RRB_ENSURE(false);
}

void Machine::finish_transaction(CoreId core, BusSlot slot,
                                 Cycle completion) {
    Port& port = *ports_[core];
    port.busy_ = false;
    cores_[core]->on_bus_complete(slot, completion);
    port.try_issue(completion);
    core_next_[core] = 0;  // completion may unblock the core: re-tick
}

void Machine::bus_complete(const BusRequest& request, Cycle completion) {
    switch (request.op) {
        case BusOp::kDataStore:
            l2_.write(request.core, request.addr);  // write-through into L2
            finish_transaction(request.core, tag_slot(request.tag),
                               completion);
            return;
        case BusOp::kDataLoad:
        case BusOp::kInstrFetch:
            // An L2-hit transaction: data arrives with the bus release.
            finish_transaction(request.core, tag_slot(request.tag),
                               completion);
            return;
        case BusOp::kMissRequest:
            // Address phase done; the line is fetched from DRAM and comes
            // back as a fill response carrying the same continuation tag.
            dram_.enqueue({request.core, config_.dram.wrap(request.addr),
                           /*is_write=*/false, completion, request.tag});
            return;
        case BusOp::kFillResponse:
            finish_transaction(request.core, tag_slot(request.tag),
                               completion);
            return;
    }
    RRB_ENSURE(false);
}

void Machine::dram_complete(const DramRequest& request, Cycle completion) {
    if (request.is_write) return;  // victim writeback: nobody waits
    bus_->post({request.core, BusOp::kFillResponse, request.addr, completion,
                config_.fill_response_cycles, request.tag});
}

Cycle Machine::step() {
    // May rewind core_next_ entries to 0.
    const CoreId completed = bus_->complete_phase(now_);
    // The memory controller only acts when it holds work; requests
    // enqueued during the completion phase above are visible to this
    // check, so the gate is exact.
    const bool dram_acted = !dram_.idle() && dram_.tick(now_);
    const Cycle after = now_ + 1;
    Cycle next = kNoCycle;
    unsigned ticked = 0;  // bit 0: the scua ticked, bit 1: a contender
    for (CoreId c = 0; c < cores_.size(); ++c) {
        // Programless cores hold kNoCycle permanently, so this one gate
        // covers both "no program" and "provably inert this cycle".
        if (core_next_[c] > now_) {
            next = std::min(next, core_next_[c]);
            continue;
        }
        // A core's state is final for this cycle once it ticked (bus
        // completions land in the next stepped cycle's phase 1), so
        // tick hands back the next event it just computed in-branch.
        Cycle core_next = cores_[c]->tick(now_);
        if (core_next < after) core_next = after;
        core_next_[c] = core_next;
        next = std::min(next, core_next);
        ticked |= c == scua_ ? 1u : 2u;
    }
    bus_->arbitrate_phase(now_);
    // The step's kind is its first event in StepKind order: one bit per
    // kind, arbitration always set, the lowest set bit wins.
    const bool completion = completed != kNoCore;
    const unsigned events =
        (completion && completed == scua_ ? 1u : 0u) | (ticked & 1u) << 1 |
        (dram_acted ? 4u : 0u) | (completion || ticked != 0 ? 8u : 0u) | 16u;
    ++step_kinds_[static_cast<std::size_t>(std::countr_zero(events))];
    ++now_;
    // Core ticks may have enqueued victim writebacks: re-check activity.
    if (!dram_.idle()) next = std::min(next, dram_.next_event_cycle(now_));
    quiet_until_ = next;
    return std::min(next, bus_->next_event_cycle(now_));
}

Cycle Machine::step_or_skip(Cycle next_hint, Cycle limit) {
    if (!cycle_skipping_) return step();
    if (next_hint > now_) {
        // No component does observable work before the hint (kNoCycle =
        // never, i.e. only the deadline stops the run): fast-forward.
        const Cycle target = std::min(next_hint, limit);
        ++events_skipped_;
        cycles_skipped_ += target - now_;
        now_ = target;
        if (now_ >= limit) return now_;  // deadline hit mid-skip
    }
    // Only the bus acts before quiet_until_, and the loop runs while
    // now_ < limit, so the cycle is a bus-only step when its completion
    // is a replayed load whose owner just reissues. A traced run keeps
    // step(): its release and issue order is part of the trace.
    if (now_ < quiet_until_ && !tracer_.enabled()) {
        const BusRequest* done = bus_->completing(now_);
        if (done != nullptr && tag_slot(done->tag) == BusSlot::kLoad &&
            done->op != BusOp::kMissRequest &&
            ports_[done->core]->queue_.empty() &&
            cores_[done->core]->reissues_next_miss()) {
            return bus_only_step(done->core);
        }
    }
    return step();
}

Cycle Machine::bus_only_step(CoreId owner) {
    // step()'s four phases for this cycle, minus everything inert: the
    // completion lands without the client dispatch (finish_transaction's
    // port release and re-acquire cancel out, and the empty queue has
    // nothing to issue), the memory controller and every other core
    // have no event before quiet_until_, and the owner's tick is exactly
    // the retire-and-reissue below.
    bus_->release(now_);
    const replay::MicroOp& miss = cores_[owner]->reissue_load(now_);
    issue(owner, BusOp::kDataLoad, miss.line, now_ + miss.cycles,
          BusSlot::kLoad, l2_outcome(miss, /*baked=*/true));
    bus_->arbitrate_phase(now_);
    ++now_;
    ++bus_only_steps_;
    // The owner's core_next_ stays kNoCycle — it has waited on this load
    // since its last tick, and waits on the new one now — and nothing
    // else moved, so quiet_until_ still holds: the hint is step()'s.
    return std::min(quiet_until_, bus_->next_event_cycle(now_));
}

RunResult Machine::run(Cycle max_cycles) {
    const Cycle start = now_;
    const Cycle limit = start + max_cycles;
    auto all_done = [&] {
        for (CoreId c = 0; c < cores_.size(); ++c) {
            if (has_program_[c] && !cores_[c]->done()) return false;
        }
        return true;
    };
    Cycle next_hint = now_;
    quiet_until_ = now_;  // unknown until the first step
    while (!all_done() && now_ < limit) {
        next_hint = step_or_skip(next_hint, limit);
    }

    RunResult result;
    result.cycles = now_ - start;
    result.deadline_reached = !all_done();
    result.finish_cycle.resize(cores_.size(), kNoCycle);
    for (CoreId c = 0; c < cores_.size(); ++c) {
        if (has_program_[c] && cores_[c]->done()) {
            result.finish_cycle[c] = cores_[c]->finish_cycle();
        }
    }
    return result;
}

Cycle Machine::run_core(CoreId core_id, Cycle max_cycles) {
    RRB_REQUIRE(core_id < cores_.size(), "core id out of range");
    RRB_REQUIRE(has_program_[core_id], "core has no program");
    const Cycle start = now_;
    const Cycle limit = start + max_cycles;
    const InOrderCore& target = *cores_[core_id];
    Cycle next_hint = now_;
    quiet_until_ = now_;  // unknown until the first step
    scua_ = core_id;
    struct Finish {
        Machine& machine;
        ~Finish() {
            machine.end_fast_forward();
            machine.scua_ = kNoCore;
        }
    } finish{*this};
    begin_fast_forward(core_id);
    while (!target.done() && now_ < limit) {
        next_hint = step_or_skip(next_hint, limit);
        // The scua's remaining-instruction count falls below the bound
        // exactly when it retires a loop body's last instruction (the
        // bound is 0 when the run does not fast-forward).
        if (target.remaining_instructions() < ff_.boundary_above)
            [[unlikely]] {
            at_scua_boundary(core_id, next_hint, limit);
        }
    }
    return target.done() ? target.finish_cycle() : kNoCycle;
}

void Machine::arm_attribution() noexcept {
    attribution_.reset();
    attr_ = &attribution_;
    bus_->attach_attribution(attr_);
    dram_.attach_attribution(attr_);
    for (std::unique_ptr<InOrderCore>& core : cores_) {
        core->attach_attribution(attr_);
    }
}

void Machine::disarm_attribution() noexcept {
    attr_ = nullptr;
    bus_->attach_attribution(nullptr);
    dram_.attach_attribution(nullptr);
    for (std::unique_ptr<InOrderCore>& core : cores_) {
        core->attach_attribution(nullptr);
    }
}

void Machine::finalize_attribution() {
    RRB_REQUIRE(attr_ != nullptr, "attribution is not armed");
    const Cycle horizon = now_;
    // Every demand request lives in exactly one holder — bus, memory
    // controller, or its core's port queue — and transitions between
    // holders settle attribution inside the same event dispatch, so the
    // flushes below cover [cursor, horizon) exactly once per core.
    bus_->flush_attribution(horizon);
    dram_.flush_attribution(horizon);
    for (CoreId c = 0; c < ports_.size(); ++c) {
        const Port& port = *ports_[c];
        for (std::size_t i = 0; i < port.queue_.size(); ++i) {
            const Port::Queued& queued = port.queue_.at(i);
            if (queued.slot == BusSlot::kStoreDrain) continue;
            const Cycle ready = std::min(queued.ready, horizon);
            attr_->charge(c, StallCause::kCompute, ready);
            attr_->charge(c, StallCause::kPortQueue, horizon);
        }
    }
    for (CoreId c = 0; c < cores_.size(); ++c) {
        if (!has_program_[c]) {
            attr_->charge(c, StallCause::kIdle, horizon);
            continue;
        }
        // Cores with a demand request in flight were settled by the
        // holder flushes above; the rest own their tail interval.
        if (!cores_[c]->waiting_on_bus()) {
            attr_->charge(c, attr_->pending(c), horizon);
        }
    }
}

RunResult Machine::run_until_core(CoreId core_id, Cycle max_cycles) {
    const Cycle start = now_;
    const Cycle finish = run_core(core_id, max_cycles);

    RunResult result;
    result.cycles = now_ - start;
    result.deadline_reached = finish == kNoCycle;
    result.finish_cycle.resize(cores_.size(), kNoCycle);
    for (CoreId c = 0; c < cores_.size(); ++c) {
        if (has_program_[c] && cores_[c]->done()) {
            result.finish_cycle[c] = cores_[c]->finish_cycle();
        }
    }
    return result;
}

}  // namespace rrb
