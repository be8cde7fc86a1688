#include "bus/bus.h"

#include <algorithm>

#include "sim/contract.h"

namespace rrb {

const char* to_string(BusOp op) noexcept {
    switch (op) {
        case BusOp::kInstrFetch: return "ifetch";
        case BusOp::kDataLoad: return "load";
        case BusOp::kDataStore: return "store";
        case BusOp::kMissRequest: return "miss-req";
        case BusOp::kFillResponse: return "fill";
    }
    return "?";
}

Bus::Bus(Arbiter arbiter)
    : arbiter_(std::move(arbiter)),
      ports_(arbiter_.num_cores()),
      counters_(arbiter_.num_cores()) {}

void Bus::post(const BusRequest& request) {
    RRB_REQUIRE(request.core < ports_.size(), "core id out of range");
    RRB_REQUIRE(request.duration >= 1, "zero-length transaction");
    Port& port = ports_[request.core];
    RRB_ENSURE(!port.has_pending);  // one outstanding per requester
    RRB_ENSURE(!(has_active_ && active_.core == request.core));

    // Confidence metric for Figure 6(a): how many *other* requesters have
    // a transaction pending or in flight the moment this request is born.
    // The poster itself can be neither (one outstanding per requester),
    // so the maintained pending count plus the in-service transaction is
    // exactly the old every-port scan.
    const std::uint64_t others = pending_count_ + (has_active_ ? 1 : 0);
    BusCoreCounters& ctr = counters_[request.core];
    observe(ctr.ready_contenders, others, log_);
    ++ctr.requests;

    port.pending = request;
    port.has_pending = true;
    ++pending_count_;
    if (attr_ != nullptr) {
        // The wait clock for this request starts at its ready cycle;
        // completions/grants advance the cursor as the wait is blamed.
        attr_->bus_cursor(request.core) = request.ready;
    }
    if (tracer_ && tracer_->enabled()) {
        tracer_->record(request.ready, TraceKind::kRequestReady, request.core,
                        request.addr);
    }
}

bool Bus::busy(CoreId core) const {
    RRB_REQUIRE(core < ports_.size(), "core id out of range");
    return ports_[core].has_pending ||
           (has_active_ && active_.core == core);
}

void Bus::complete_now(Cycle now) {
    const BusRequest finished = active_;
    // Settle attribution before the client dispatch: the completion can
    // post new requests / issue queued ones, mutating the ports.
    release(now);
    if (client_ != nullptr) client_->bus_complete(finished, now);
}

void Bus::release(Cycle now) {
    has_active_ = false;
    if (tracer_ && tracer_->enabled()) {
        tracer_->record(now - 1, TraceKind::kBusRelease, active_.core,
                        active_.addr);
    }
    if (attr_ != nullptr) account_completion(active_, now);
}

void Bus::account_completion(const BusRequest& finished, Cycle now) {
    CycleAttribution& attr = *attr_;
    const Cycle granted_at = attr.active_grant();
    // Owner: the service interval [grant, now). Store drains are
    // background traffic — nobody's timeline carries their service.
    if (finished.op != BusOp::kDataStore) {
        attr.charge(finished.core, StallCause::kBusService, now);
    }
    // Waiters: [cursor, now) decomposes into the pre-grant gap (nobody
    // held the bus — TDMA slot timing; zero under work-conserving
    // arbiters) and the in-service window blamed on the owner. The
    // victim's own timeline gets the same split via the deferred
    // mirror, settled in one go at its grant.
    for (CoreId v = 0; v < ports_.size(); ++v) {
        const Port& port = ports_[v];
        if (!port.has_pending) continue;
        std::uint64_t* slot = attr.wait_slot(v);
        const Cycle cursor = slot[CycleAttribution::kSlotCursor];
        if (cursor >= now) continue;
        // Branchless body on the victim's packed slot — one cache line
        // per waiter (dead is zero under work-conserving arbiters and the
        // demand mask folds the store-drain case, so adding the masked
        // zeros beats four data-dependent branches).
        const Cycle blame_start = cursor > granted_at ? cursor : granted_at;
        const std::uint64_t dead = blame_start - cursor;
        const std::uint64_t blamed = now - blame_start;
        const std::uint64_t demand_mask =
            port.pending.op != BusOp::kDataStore ? ~std::uint64_t{0} : 0;
        slot[CycleAttribution::kSlotCursor] = now;
        slot[CycleAttribution::kSlotDead] += dead;
        slot[CycleAttribution::kSlotWaitAcc] += blamed & demand_mask;
        slot[CycleAttribution::kSlotDeadAcc] += dead & demand_mask;
        slot[CycleAttribution::kSlotBlame + finished.core] += blamed;
    }
}

void Bus::arbitrate_pending(Cycle now) {
    const CoreId winner = arbiter_.pick(
        now,
        [this, now](CoreId c) {
            const Port& port = ports_[c];
            return port.has_pending && port.pending.ready <= now;
        },
        [this](CoreId c) { return ports_[c].pending.duration; });
    if (winner != kNoCore) grant(winner, now);  // else e.g. TDMA slot idle
}

void Bus::grant(CoreId winner, Cycle now) {
    Port& port = ports_[winner];
    RRB_ENSURE(port.has_pending);
    active_ = port.pending;
    has_active_ = true;
    port.has_pending = false;
    --pending_count_;

    arbiter_.granted(winner);
    busy_until_ = now + active_.duration;
    total_busy_cycles_ += active_.duration;

    BusCoreCounters& ctr = counters_[winner];
    const std::uint64_t gamma = now - active_.ready;
    ctr.busy_cycles += active_.duration;
    ctr.wait_cycles += gamma;
    ctr.max_wait = std::max(ctr.max_wait, gamma);
    observe(ctr.gamma, gamma, log_);

    if (tracer_ && tracer_->enabled()) {
        tracer_->record(now, TraceKind::kBusGrant, winner, gamma);
    }

    if (attr_ != nullptr) {
        CycleAttribution& attr = *attr_;
        Cycle& cursor = attr.bus_cursor(winner);
        const bool demand = active_.op != BusOp::kDataStore;
        if (cursor < now) {
            // Wait left unaccounted at grant time happened while nobody
            // held the bus — a dead slot (TDMA; zero for RR/WRR/fixed).
            const std::uint64_t dead = now - cursor;
            attr.dead_slot(winner, dead);
            if (demand) attr.defer_dead(winner, dead);
            cursor = now;
        }
        if (demand) {
            // The winner's lookup tail up to its ready cycle is compute;
            // then one settle folds the whole deferred wait mirror and
            // pins the service start.
            attr.charge(winner, StallCause::kCompute, active_.ready);
            attr.settle_wait(winner, now);
        }
        attr.active_grant() = now;
    }
}

void Bus::flush_attribution(Cycle limit) {
    if (attr_ == nullptr) return;
    CycleAttribution& attr = *attr_;
    if (has_active_ && active_.op != BusOp::kDataStore) {
        // In-service at the cut-off: the owner has held the bus since the
        // grant; clamp the service interval to the horizon.
        attr.charge(active_.core, StallCause::kBusService, limit);
    }
    const Cycle granted_at = attr.active_grant();
    for (CoreId v = 0; v < ports_.size(); ++v) {
        const Port& port = ports_[v];
        if (!port.has_pending) continue;
        const bool demand = port.pending.op != BusOp::kDataStore;
        Cycle& cursor = attr.bus_cursor(v);
        if (cursor < limit) {
            const Cycle blame_start =
                has_active_ ? std::max(cursor, granted_at) : limit;
            const std::uint64_t dead = blame_start - cursor;
            const std::uint64_t blamed = limit - blame_start;
            if (dead > 0) attr.dead_slot(v, dead);
            if (blamed > 0) attr.blame(v, active_.core, blamed);
            if (demand) {
                attr.defer_wait(v, blamed);
                if (dead > 0) attr.defer_dead(v, dead);
            }
            cursor = limit;
        }
        if (demand) {
            // Lookup tail up to the wait start (or the horizon, for a
            // request whose ready cycle lies beyond it), then settle the
            // deferred wait mirror at the horizon.
            attr.charge(v, StallCause::kCompute,
                        std::min(port.pending.ready, limit));
            attr.settle_wait(v, limit);
        }
    }
}

Cycle Bus::next_pending_cycle(Cycle now) const {
    Cycle next = kNoCycle;
    for (CoreId c = 0; c < ports_.size(); ++c) {
        const Port& port = ports_[c];
        if (!port.has_pending) continue;
        // Earliest cycle this request could win arbitration. For every
        // work-conserving policy that is simply its ready cycle (or now,
        // when already ready); TDMA adds the slot wait, so the skipper
        // can fast-forward straight to the owned slot instead of
        // stepping cycle by cycle until the arbiter grants. Exactness:
        // the per-core bound is the minimum winnable cycle, so no pick()
        // between now and the minimum could grant anyone.
        const Cycle earliest = std::max(port.pending.ready, now);
        next = std::min(next, arbiter_.next_grant_cycle(
                                  c, port.pending.duration, earliest));
    }
    return next;
}

void Bus::shift_time(Cycle delta) noexcept {
    if (has_active_) {
        active_.ready += delta;
        busy_until_ += delta;
    }
    for (Port& port : ports_) {
        if (port.has_pending) port.pending.ready += delta;
    }
}

void Bus::reset() {
    for (Port& port : ports_) port.has_pending = false;
    pending_count_ = 0;
    has_active_ = false;
    busy_until_ = 0;
    arbiter_.reset();
    reset_counters();
}

const BusCoreCounters& Bus::counters(CoreId core) const {
    RRB_REQUIRE(core < counters_.size(), "core id out of range");
    return counters_[core];
}

double Bus::utilization(Cycle elapsed) const {
    RRB_REQUIRE(elapsed > 0, "elapsed must be positive");
    return static_cast<double>(total_busy_cycles_) /
           static_cast<double>(elapsed);
}

void Bus::reset_counters() {
    for (BusCoreCounters& c : counters_) c.reset();
    total_busy_cycles_ = 0;
}

}  // namespace rrb
