#include "dram/dram.h"

#include <algorithm>

#include "sim/contract.h"

namespace rrb {

namespace {

bool is_pow2(std::uint64_t x) { return x != 0 && (x & (x - 1)) == 0; }

}  // namespace

void DramConfig::validate() const {
    RRB_REQUIRE(num_banks >= 1 && is_pow2(num_banks),
                "banks must be a power of two");
    RRB_REQUIRE(is_pow2(row_bytes) && row_bytes >= access_bytes,
                "row must be a power of two covering one access");
    RRB_REQUIRE(is_pow2(access_bytes) && access_bytes >= 4,
                "access granule must be a power of two >= 4");
    RRB_REQUIRE(capacity_bytes >= row_bytes * num_banks,
                "capacity must cover one row per bank");
    RRB_REQUIRE(timing.t_burst >= 1, "burst must take at least one cycle");
}

MemoryController::MemoryController(DramConfig config)
    : config_(config), banks_(config.num_banks) {
    config_.validate();
}

void MemoryController::enqueue(const DramRequest& request) {
    RRB_REQUIRE(request.addr < config_.capacity_bytes,
                "address beyond DRAM capacity");
    queue_.push_back(request);
}

std::optional<std::size_t> MemoryController::pick(Cycle now) const {
    if (queue_.empty()) return std::nullopt;

    auto issuable = [&](const DramRequest& q) {
        const std::uint32_t bank = config_.bank_of(q.addr);
        return banks_[bank].ready_at <= now && data_bus_free_at_ <= now &&
               q.arrival <= now;
    };

    // First: oldest row hit.
    for (std::size_t i = 0; i < queue_.size(); ++i) {
        const DramRequest& q = queue_[i];
        if (!issuable(q)) continue;
        const Bank& bank = banks_[config_.bank_of(q.addr)];
        if (bank.open_row && *bank.open_row == config_.row_of(q.addr)) {
            return i;
        }
    }
    // Then: oldest issuable request.
    for (std::size_t i = 0; i < queue_.size(); ++i) {
        if (issuable(queue_[i])) return i;
    }
    return std::nullopt;
}

bool MemoryController::tick(Cycle now) {
    bool acted = false;
    // Completions first so a dependent requester sees data this cycle.
    for (auto it = in_flight_.begin(); it != in_flight_.end();) {
        if (it->completion == now) {
            acted = true;
            const InFlight done = *it;
            it = in_flight_.erase(it);
            stats_.total_latency += done.completion - done.request.arrival;
            observe(stats_.latency, done.completion - done.request.arrival,
                    log_);
            // Charge the service interval before the client posts the
            // fill response (whose wait clock starts at `now`).
            if (attr_ != nullptr && !done.request.is_write) {
                attr_->charge(done.request.core, done.service_class, now);
            }
            if (client_ != nullptr) client_->dram_complete(done.request, now);
        } else {
            ++it;
        }
    }

    const std::optional<std::size_t> index = pick(now);
    if (!index) return acted;

    const DramRequest chosen = queue_[*index];
    queue_.erase(queue_.begin() +
                 static_cast<std::vector<DramRequest>::difference_type>(
                     *index));

    const std::uint32_t bank_id = config_.bank_of(chosen.addr);
    const std::uint64_t row = config_.row_of(chosen.addr);
    Bank& bank = banks_[bank_id];
    const DramTiming& t = config_.timing;

    Cycle latency = t.t_overhead;
    StallCause service_class = StallCause::kDramRowHit;
    if (bank.open_row && *bank.open_row == row) {
        ++stats_.row_hits;
    } else if (!bank.open_row) {
        ++stats_.row_misses;
        service_class = StallCause::kDramRowMiss;
        latency += t.t_rcd;  // ACT then column command
        if (tracer_ && tracer_->enabled()) {
            tracer_->record(now, TraceKind::kDramActivate, chosen.core, row);
        }
    } else {
        ++stats_.row_conflicts;
        service_class = StallCause::kDramRowConflict;
        latency += t.t_rp + t.t_rcd;  // PRE, ACT, column command
        if (tracer_ && tracer_->enabled()) {
            tracer_->record(now, TraceKind::kDramPrecharge, chosen.core,
                            *bank.open_row);
        }
    }
    latency += t.t_cl + t.t_burst;

    // Queue wait [charged-so-far, now).
    if (attr_ != nullptr && !chosen.is_write) {
        attr_->charge(chosen.core, StallCause::kDramQueue, now);
    }

    bank.open_row = row;
    bank.ready_at = now + latency;
    data_bus_free_at_ = now + latency;  // burst tail occupies the data bus

    if (chosen.is_write) {
        ++stats_.writes;
    } else {
        ++stats_.reads;
    }
    if (tracer_ && tracer_->enabled()) {
        tracer_->record(now, TraceKind::kDramAccess, chosen.core,
                        chosen.addr);
    }

    in_flight_.push_back({chosen, now + latency, service_class});
    return true;
}

void MemoryController::flush_attribution(Cycle limit) {
    if (attr_ == nullptr) return;
    for (const InFlight& f : in_flight_) {
        if (f.request.is_write) continue;
        attr_->charge(f.request.core, f.service_class, limit);
    }
    for (const DramRequest& q : queue_) {
        if (!q.is_write) attr_->charge(q.core, StallCause::kDramQueue, limit);
    }
}

Cycle MemoryController::next_event_cycle(Cycle now) const {
    Cycle next = kNoCycle;
    for (const InFlight& f : in_flight_) next = std::min(next, f.completion);
    for (const DramRequest& q : queue_) {
        // Earliest cycle this request passes pick()'s issuable() check.
        const Bank& bank = banks_[config_.bank_of(q.addr)];
        Cycle at = q.arrival;
        at = std::max(at, bank.ready_at);
        at = std::max(at, data_bus_free_at_);
        next = std::min(next, std::max(at, now));
    }
    return next;
}

bool MemoryController::at_rest(Cycle now) const noexcept {
    if (!idle() || data_bus_free_at_ > now) return false;
    return std::all_of(banks_.begin(), banks_.end(),
                       [now](const Bank& bank) { return bank.ready_at <= now; });
}

bool MemoryController::rows_aligned() const noexcept {
    return std::all_of(banks_.begin(), banks_.end(), [&](const Bank& bank) {
        return bank.open_row == banks_.front().open_row;
    });
}

void MemoryController::shift_time(Cycle delta) noexcept {
    for (Bank& bank : banks_) bank.ready_at += delta;
    data_bus_free_at_ += delta;
    for (DramRequest& q : queue_) q.arrival += delta;
    for (InFlight& f : in_flight_) {
        f.request.arrival += delta;
        f.completion += delta;
    }
}

void MemoryController::reset() {
    for (Bank& bank : banks_) {
        bank.open_row.reset();
        bank.ready_at = 0;
    }
    queue_.clear();
    in_flight_.clear();
    data_bus_free_at_ = 0;
    stats_.reset();
}

}  // namespace rrb
