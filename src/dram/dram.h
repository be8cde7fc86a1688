// DRAMsim-style memory controller + DDR2 bank model.
//
// The paper's setup models "a 2-GB one-rank DDR2-667 with 4 banks, burst
// of 4 transfers and a 64-bit bus, which provides 32 bytes per access,
// i.e., a cache line" behind the on-chip memory controller (DRAMsim2).
// The headline experiments never leave the L2, but the EEMBC-like
// workloads of Figure 6(a) do, and a downstream user pointing the
// methodology at the memory controller needs this path to exist.
//
// Model: an FR-FCFS controller over per-bank row-buffer state machines
// with an open-page policy, no refresh and a shared data bus; timing
// parameters are expressed in *core* cycles with a preset derived from
// DDR2-667 at a 200MHz core clock. tRAS/tWR are folded into the precharge
// path (documented approximation: the arbitration experiments are
// insensitive to DRAM microtiming, only to the fact that misses are split
// transactions with a bank-dependent latency).
#pragma once

#include <bit>
#include <cstdint>
#include <optional>
#include <vector>

#include "machine/attribution.h"
#include "sim/trace.h"
#include "sim/types.h"
#include "stats/histogram.h"

namespace rrb {

/// DRAM timing parameters in core clock cycles: DDR2-667 (Kingston
/// KVR667D2S5/2G-like) scaled to a 200MHz core, 15ns tRCD/tCL/tRP => 3
/// cycles, 6ns burst => 2 cycles.
struct DramTiming {
    Cycle t_rcd = 3;      ///< ACT -> column command
    Cycle t_cl = 3;       ///< column read -> first data
    Cycle t_rp = 3;       ///< precharge
    Cycle t_burst = 2;    ///< 4-transfer burst on the 64-bit DDR bus
    Cycle t_overhead = 2; ///< controller decode / command bus

    bool operator==(const DramTiming&) const = default;
};

struct DramConfig {
    std::uint64_t capacity_bytes = 2ULL * 1024 * 1024 * 1024;
    std::uint32_t num_banks = 4;
    std::uint64_t row_bytes = 8 * 1024;
    std::uint32_t access_bytes = 32;  ///< one burst = one cache line
    DramTiming timing;

    bool operator==(const DramConfig&) const = default;
    void validate() const;

    /// Address mapping of a DRAM address: line-interleaved across banks
    /// (row | bank | column | offset). The granules are validated powers
    /// of two, so both are a shift and a mask.
    [[nodiscard]] std::uint32_t bank_of(Addr addr) const noexcept {
        return static_cast<std::uint32_t>(
            (addr >> std::countr_zero(std::uint64_t{access_bytes})) &
            (num_banks - 1));
    }
    [[nodiscard]] std::uint64_t row_of(Addr addr) const noexcept {
        return addr >> std::countr_zero(row_bytes * num_banks);
    }

    /// Where a bus address lands in DRAM: addresses wrap at the capacity.
    [[nodiscard]] Addr wrap(Addr bus_addr) const noexcept {
        return bus_addr % capacity_bytes;
    }
    /// The row a bus address opens. The machine's fast-forward state and
    /// the decoder's repeat bounds both decide rows here.
    [[nodiscard]] std::uint64_t row_at(Addr bus_addr) const noexcept {
        return row_of(wrap(bus_addr));
    }
};

struct DramRequest {
    CoreId core = 0;
    Addr addr = 0;
    bool is_write = false;
    Cycle arrival = 0;
    std::uint64_t tag = 0;
};

/// Fixed completion sink, one per controller (see BusClient for the
/// rationale): every finished request is reported with its original
/// DramRequest — including the caller-defined `tag` — so per-request
/// state is a POD token and enqueueing never allocates.
class DramClient {
public:
    virtual ~DramClient() = default;
    virtual void dram_complete(const DramRequest& request,
                               Cycle completion) = 0;
};

struct DramStats {
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t row_hits = 0;
    std::uint64_t row_misses = 0;    ///< bank idle / row closed
    std::uint64_t row_conflicts = 0; ///< different row open (needs PRE)
    std::uint64_t total_latency = 0; ///< sum of (completion - arrival)
    Histogram latency;

    [[nodiscard]] std::uint64_t accesses() const noexcept {
        return reads + writes;
    }
    [[nodiscard]] double row_hit_ratio() const noexcept {
        return accesses() == 0 ? 0.0
                               : static_cast<double>(row_hits) /
                                     static_cast<double>(accesses());
    }
    [[nodiscard]] double mean_latency() const noexcept {
        return accesses() == 0 ? 0.0
                               : static_cast<double>(total_latency) /
                                     static_cast<double>(accesses());
    }

    /// Zeroes the counters in place, keeping histogram storage.
    void reset() noexcept {
        reads = 0;
        writes = 0;
        row_hits = 0;
        row_misses = 0;
        row_conflicts = 0;
        total_latency = 0;
        latency.clear();
    }
};

class MemoryController {
public:
    explicit MemoryController(DramConfig config);

    /// Attaches the completion sink all requests report to.
    void attach_client(DramClient* client) noexcept { client_ = client; }

    /// Queues a request; the client is notified during the tick in which
    /// the burst finishes.
    void enqueue(const DramRequest& request);

    /// Advances the controller to cycle `now` (call once per cycle,
    /// monotonically). Returns whether anything happened: a completion
    /// or an issue (the machine's step-kind counters).
    bool tick(Cycle now);

    /// Earliest future cycle at which tick() would change state: the
    /// next in-flight completion or the first cycle a queued request
    /// becomes issuable (bank ready, data bus free, request arrived).
    /// kNoCycle when the controller is idle: it acts only when a
    /// request arrives.
    [[nodiscard]] Cycle next_event_cycle(Cycle now) const;

    /// Power-on restore without reallocation: queue and in-flight
    /// requests dropped, banks closed and ready, statistics zeroed.
    /// The attached client and tracer are kept.
    void reset();

    [[nodiscard]] bool idle() const noexcept {
        return queue_.empty() && in_flight_.empty();
    }
    [[nodiscard]] const DramStats& stats() const noexcept { return stats_; }
    [[nodiscard]] const DramConfig& config() const noexcept { return config_; }

    void attach_tracer(Tracer* tracer) noexcept { tracer_ = tracer; }

    /// Arms (non-null) or disarms (null) cycle attribution. While armed,
    /// every *read* charges its queue wait at issue and its service
    /// interval by row class at completion; writes are background
    /// traffic nobody waits on.
    void attach_attribution(CycleAttribution* attribution) noexcept {
        attr_ = attribution;
    }

    /// Settles attribution up to `limit` for queued and in-flight reads —
    /// the cut-off path of the closed accounting invariant.
    void flush_attribution(Cycle limit);

    // ------------------------- steady-state fast-forward (docs/replay.md)
    /// While non-null, every latency observation is also noted here.
    void attach_observation_log(ObservationLog* log) noexcept { log_ = log; }

    /// True when nothing is queued or in flight, every bank accepts a
    /// command at `now` and the data bus is free: the controller then
    /// acts only when a request arrives.
    [[nodiscard]] bool at_rest(Cycle now) const noexcept;
    /// True when every bank has the same row open (or every bank is
    /// closed). A controller at rest with aligned rows treats all banks
    /// alike, so which bank a lone access goes to cannot matter.
    [[nodiscard]] bool rows_aligned() const noexcept;

    /// Emits the queue, the in-flight requests and the banks relative to
    /// `now`: cycles as offsets, with a bank's or the data bus's
    /// readiness clamped at `now` (earlier readiness acts alike).
    template <class Sink>
    void timing_state(Cycle now, Sink& sink) const {
        const auto request = [&](const DramRequest& r) {
            sink(std::uint64_t{r.core} | std::uint64_t{r.is_write} << 32);
            sink(now - r.arrival);
            sink(r.tag);
            sink(r.addr);
        };
        const auto clamped = [now](Cycle at) { return at > now ? at - now : 0; };
        sink(queue_.size());
        for (const DramRequest& q : queue_) request(q);
        sink(in_flight_.size());
        for (const InFlight& f : in_flight_) {
            request(f.request);
            sink(f.completion - now);
            sink(static_cast<std::uint64_t>(f.service_class));
        }
        for (const Bank& bank : banks_) {
            sink(bank.open_row.value_or(kNoCycle));
            sink(clamped(bank.ready_at));
        }
        sink(clamped(data_bus_free_at_));
    }

    /// Calls f(counter) on every additive statistic (the latency
    /// histogram repeats through the observation log).
    template <class F>
    void visit_counters(F&& f) {
        f(stats_.reads);
        f(stats_.writes);
        f(stats_.row_hits);
        f(stats_.row_misses);
        f(stats_.row_conflicts);
        f(stats_.total_latency);
    }

    /// Moves every absolute cycle — bank and data-bus readiness, queued
    /// arrivals, in-flight completions — `delta` cycles later.
    void shift_time(Cycle delta) noexcept;

private:
    struct Bank {
        std::optional<std::uint64_t> open_row;
        Cycle ready_at = 0;  ///< bank can accept a new command at this cycle
    };
    struct InFlight {
        DramRequest request;
        Cycle completion = 0;
        /// Row class the access paid (attribution; kDramRowHit/Miss/Conflict).
        StallCause service_class = StallCause::kDramRowHit;
    };

    /// Picks the queue index to issue next, FR-FCFS: the oldest issuable
    /// row hit, else the oldest issuable request.
    [[nodiscard]] std::optional<std::size_t> pick(Cycle now) const;

    DramConfig config_;
    std::vector<Bank> banks_;
    // Arrival-ordered queue. A vector, not a deque: erases shift (the
    // queue is at most a few entries — one outstanding miss per core
    // plus victim writebacks) and the capacity is retained across
    // reset(), so the steady-state request path never allocates.
    std::vector<DramRequest> queue_;
    std::vector<InFlight> in_flight_;
    Cycle data_bus_free_at_ = 0;
    DramStats stats_;
    DramClient* client_ = nullptr;
    Tracer* tracer_ = nullptr;
    CycleAttribution* attr_ = nullptr;
    ObservationLog* log_ = nullptr;
};

}  // namespace rrb
