// Cycle attribution: every machine cycle of every core gets a cause.
//
// The paper's contention bounds argue about *where* WCET inflation comes
// from, but PMCs only expose aggregates (wait cycles, busy cycles). This
// module closes the gap: when armed, the machine classifies every cycle
// of every core's timeline into one of the StallCause buckets — compute,
// arbitration wait, bus service, DRAM queue/row-class latency,
// TDMA dead slots, store-buffer stalls, idle — under a *closed
// accounting invariant*: per core, the buckets sum exactly to the
// machine's elapsed cycles (asserted by tests/test_attribution.cpp).
//
// On top of the per-core timeline sits the per-contender blame matrix:
// each cycle a request waits for the bus while some other core holds the
// grant is blamed on that *specific* contender, so a campaign can report
// "34% of the victim's stall cycles were paid to contender 2" instead of
// just "the victim waited". Bus wait decomposes as
//
//   wait_cycles(V) == sum_W blame[V][W] + dead_slot[V]
//
// (dead slots are waiting cycles nobody held the grant for — TDMA slot
// gaps; provably zero under work-conserving arbiters), cross-checked
// against the BusCoreCounters PMCs by test.
//
// Mechanics: a single per-core *demand-timeline cursor* (charged_until_)
// sweeps forward through time, and every component a demand request
// passes through — core, port queue, bus, DRAM — charges the interval it
// was responsible for up to the current event time. Intervals whose
// cause is only known in hindsight (compute until the next event, stall
// retries) ride `pending_`: the cause of the not-yet-charged interval,
// charged by the next event or by finalize. Store drains and victim
// writebacks are background traffic the core never waits on; they
// appear in the blame matrix (they hold the bus) but never on the
// demand timeline.
//
// Attribution is strictly observational: armed or not, it never feeds a
// value back into timing, so finish cycles are bit-identical either way
// (bench_hotpath asserts this, plus zero steady-state allocations — all
// storage is sized at Machine construction).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/types.h"

namespace rrb {

/// Where a core's cycle went. Order is part of the telemetry v2 schema;
/// append only.
enum class StallCause : std::uint8_t {
    kIdle = 0,          ///< before release (start delay) or after finish
    kCompute,           ///< issue/execute, cache hits, loop control
    kStoreGate,         ///< load gated behind the draining store buffer
    kStoreBufferFull,   ///< store stalled on a full store buffer
    kPortQueue,         ///< queued behind this core's own earlier request
    kBusWait,           ///< waiting for grant (blamed per contender)
    kBusDeadSlot,       ///< waiting while nobody held the bus (TDMA gaps)
    kBusService,        ///< holding the bus (request + fill transfers)
    kDramQueue,         ///< queued in the memory controller
    kDramRefresh,       ///< always 0: the controller has no refresh; the
                        ///< bucket keeps its place in the cause order
    kDramRowHit,        ///< DRAM service, open-row hit class
    kDramRowMiss,       ///< DRAM service, closed-row miss class
    kDramRowConflict,   ///< DRAM service, row-conflict class
    kDrainWait,         ///< retired, waiting for the store buffer to drain
    kCauseCount
};

inline constexpr std::size_t kStallCauseCount =
    static_cast<std::size_t>(StallCause::kCauseCount);

[[nodiscard]] const char* to_string(StallCause cause) noexcept;

/// Per-core cause timelines + the per-contender blame matrix for one
/// machine. Owned by Machine, armed on demand; all storage is sized at
/// construction so arming, charging and resetting never allocate.
class CycleAttribution {
public:
    explicit CycleAttribution(std::size_t num_cores);

    /// Back to the all-zero post-construction state (no reallocation).
    void reset() noexcept;

    // --------------------------------------------- demand timeline
    /// Charges [charged_until(core), until) to `cause` and advances the
    /// cursor. `until` values at or before the cursor charge nothing —
    /// callers may re-charge conservatively at every event.
    void charge(CoreId core, StallCause cause, Cycle until) noexcept {
        const Cycle cursor = charged_until_[core];
        if (until > cursor) {
            timeline_[core * kStallCauseCount +
                      static_cast<std::size_t>(cause)] += until - cursor;
            charged_until_[core] = until;
        }
    }

    /// Adds `cycles` to a bucket without touching the cursor (used with
    /// advance() when one interval splits into several causes).
    void add(CoreId core, StallCause cause, std::uint64_t cycles) noexcept {
        timeline_[core * kStallCauseCount + static_cast<std::size_t>(cause)] +=
            cycles;
    }

    /// Moves the cursor without charging (the caller added the split).
    void advance(CoreId core, Cycle until) noexcept {
        if (until > charged_until_[core]) charged_until_[core] = until;
    }

    [[nodiscard]] Cycle charged_until(CoreId core) const noexcept {
        return charged_until_[core];
    }

    /// Cause of the in-progress (not yet charged) interval; the next
    /// event — or finalize — charges it.
    void set_pending(CoreId core, StallCause cause) noexcept {
        pending_[core] = cause;
    }
    [[nodiscard]] StallCause pending(CoreId core) const noexcept {
        return pending_[core];
    }

    // ----------------------------------------------- blame matrix
    //
    // All per-victim bus-wait state — the wait cursor, the deferred
    // demand-wait mirror, the dead-slot PMC and the blame row — lives in
    // one packed slot of `kSlotBlame + num_cores` words. At four cores
    // that is exactly 64 bytes, so the per-completion waiter loop (the
    // hottest armed code) touches a single cache line per victim instead
    // of five parallel arrays.
    enum : std::size_t {
        kSlotCursor = 0,   ///< wait clock: blamed/dead up to here
        kSlotWaitAcc,      ///< deferred kBusWait (demand waits only)
        kSlotDeadAcc,      ///< deferred kBusDeadSlot
        kSlotDead,         ///< dead-slot PMC mirror (drains included)
        kSlotBlame         ///< blame row, one entry per contender
    };

    /// Raw packed slot for victim `v` (bus hot path).
    [[nodiscard]] std::uint64_t* wait_slot(CoreId victim) noexcept {
        return wait_slots_.data() + victim * slot_stride_;
    }

    void blame(CoreId victim, CoreId contender,
               std::uint64_t cycles) noexcept {
        wait_slot(victim)[kSlotBlame + contender] += cycles;
    }
    void dead_slot(CoreId victim, std::uint64_t cycles) noexcept {
        wait_slot(victim)[kSlotDead] += cycles;
    }

    /// Per-victim cursor over bus waiting time (covers background store
    /// drains too, which the demand timeline ignores).
    [[nodiscard]] Cycle& bus_cursor(CoreId core) noexcept {
        return wait_slot(core)[kSlotCursor];
    }
    /// Grant cycle of the transaction currently holding the bus.
    [[nodiscard]] Cycle& active_grant() noexcept { return active_grant_; }

    /// Deferred demand-wait mirror: while a demand request waits for the
    /// bus nothing else touches its core's demand timeline, so instead
    /// of charging kBusWait/kBusDeadSlot at every completion the blamed
    /// and dead cycles pile up here and fold into the timeline in one
    /// settle_wait() at the victim's own grant (or at flush). This
    /// halves the armed per-completion cost on the bench hot path.
    void defer_wait(CoreId victim, std::uint64_t blamed) noexcept {
        wait_slot(victim)[kSlotWaitAcc] += blamed;
    }
    void defer_dead(CoreId victim, std::uint64_t dead) noexcept {
        wait_slot(victim)[kSlotDeadAcc] += dead;
    }
    void settle_wait(CoreId victim, Cycle until) noexcept {
        std::uint64_t* slot = wait_slot(victim);
        if (slot[kSlotWaitAcc] > 0) {
            add(victim, StallCause::kBusWait, slot[kSlotWaitAcc]);
            slot[kSlotWaitAcc] = 0;
        }
        if (slot[kSlotDeadAcc] > 0) {
            add(victim, StallCause::kBusDeadSlot, slot[kSlotDeadAcc]);
            slot[kSlotDeadAcc] = 0;
        }
        advance(victim, until);
    }

    // ------------------------- steady-state fast-forward (docs/replay.md)
    /// Emits core `core`'s cursors relative to `now`, its pending cause
    /// and its deferred wait accumulators. The bus-wait cursor is only
    /// read while the core has a bus request pending, so it is emitted
    /// only then.
    template <class Sink>
    void timing_state(CoreId core, Cycle now, bool bus_pending,
                      Sink& sink) const {
        const std::uint64_t* slot =
            wait_slots_.data() + core * slot_stride_;
        sink(charged_until_[core] - now);  // modular offset
        sink(static_cast<std::uint64_t>(pending_[core]));
        sink(bus_pending ? slot[kSlotCursor] - now : kNoCycle);
        sink(slot[kSlotWaitAcc]);
        sink(slot[kSlotDeadAcc]);
    }

    /// Calls f(counter) on every timeline bucket, dead-slot PMC and
    /// blame cell.
    template <class F>
    void visit_counters(F&& f) {
        for (std::uint64_t& bucket : timeline_) f(bucket);
        for (std::size_t v = 0; v < num_cores_; ++v) {
            std::uint64_t* slot = wait_slots_.data() + v * slot_stride_;
            f(slot[kSlotDead]);
            for (std::size_t w = 0; w < num_cores_; ++w) {
                f(slot[kSlotBlame + w]);
            }
        }
    }

    /// Moves core `core`'s demand and bus-wait cursors `delta` cycles
    /// later.
    void shift_core(CoreId core, Cycle delta) noexcept {
        charged_until_[core] += delta;
        wait_slot(core)[kSlotCursor] += delta;
    }

    // ------------------------------------------------------ views
    [[nodiscard]] std::size_t num_cores() const noexcept {
        return num_cores_;
    }
    [[nodiscard]] std::uint64_t timeline(CoreId core,
                                         StallCause cause) const noexcept {
        return timeline_[core * kStallCauseCount +
                         static_cast<std::size_t>(cause)];
    }
    [[nodiscard]] std::uint64_t blamed(CoreId victim,
                                       CoreId contender) const noexcept {
        return wait_slots_[victim * slot_stride_ + kSlotBlame + contender];
    }
    [[nodiscard]] std::uint64_t dead_slot_cycles(
        CoreId victim) const noexcept {
        return wait_slots_[victim * slot_stride_ + kSlotDead];
    }
    /// Sum of every timeline bucket of `core` — the closed-accounting
    /// invariant says this equals the machine's elapsed cycles after
    /// finalize_attribution().
    [[nodiscard]] std::uint64_t total(CoreId core) const noexcept;
    /// Sum of blame row `victim` (excluding dead slots).
    [[nodiscard]] std::uint64_t blamed_total(CoreId victim) const noexcept;

private:
    std::size_t num_cores_;
    std::size_t slot_stride_;              ///< kSlotBlame + num_cores
    std::vector<std::uint64_t> timeline_;  ///< num_cores x kStallCauseCount
    std::vector<std::uint64_t> wait_slots_;  ///< num_cores x slot_stride_
    std::vector<Cycle> charged_until_;
    std::vector<StallCause> pending_;
    Cycle active_grant_ = 0;
};

}  // namespace rrb
