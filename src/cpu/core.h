// In-order core model (LEON4-like for the purposes of the paper).
//
// Timing rules — these are the rules that make the injection time delta
// of Section 3 come out exactly as the paper describes:
//   * an instruction occupying n cycles that starts at cycle s finishes at
//     s+n-1; the next instruction starts at s+n;
//   * a load performs its DL1 lookup for dl1_latency cycles; on a miss the
//     bus request becomes ready at (start + dl1_latency). When the bus/L2
//     deliver the data at cycle C, the next instruction starts at C.
//     Hence two back-to-back loads have injection time delta = dl1_latency
//     (1 in the `ref` architecture, 4 in `var`), and k interposed nops give
//     delta = k * nop_latency + dl1_latency;
//   * a store retires into the store buffer in 1 cycle unless the buffer
//     is full (write-through, no-allocate). The buffer drains in FIFO
//     order; the next drain is posted the same cycle the previous one
//     completes, i.e. drains have injection time delta = 0 — the one case
//     where a request can suffer the full ubd (Section 5.3);
//   * instruction fetch is pipelined and free on IL1 hits; an IL1 miss
//     stalls the core until the line returns over the bus.
#pragma once

#include <cstdint>

#include "bus/bus.h"
#include "cache/cache.h"
#include "cpu/functional_core.h"
#include "isa/program.h"
#include "machine/attribution.h"
#include "replay/microop.h"
#include "sim/ring_buffer.h"
#include "sim/types.h"
#include "stats/histogram.h"

namespace rrb {

/// Which continuation a completed bus transaction resumes on its core —
/// the POD completion token that replaced per-request std::function
/// callbacks on the hot path. The token travels as BusRequest::tag /
/// DramRequest::tag through the whole split-transaction chain and is
/// dispatched through InOrderCore::on_bus_complete's fixed switch.
enum class BusSlot : std::uint8_t {
    kIfetch,      ///< IL1 miss fill: resume fetch
    kLoad,        ///< DL1 miss fill: retire the load, advance the pc
    kStoreDrain,  ///< store-buffer head drained into the L2
};

/// How a bus-going read meets the core's L2 partition: looked up live
/// at issue, or pre-decoded into a replay script with baked L2 outcomes
/// (MicroOpScript::l2_baked) as a hit, a miss, or a miss whose install
/// evicts a (clean) line.
enum class L2Outcome : std::uint8_t { kLive, kHit, kMiss, kMissEvict };

/// The outcome a replayed miss op carries: its baked one when the script
/// bakes L2 outcomes, else a live lookup.
[[nodiscard]] inline L2Outcome l2_outcome(const replay::MicroOp& op,
                                          bool baked) noexcept {
    if (!baked) return L2Outcome::kLive;
    if (op.l2_hit()) return L2Outcome::kHit;
    return op.l2_evict() ? L2Outcome::kMissEvict : L2Outcome::kMiss;
}

/// Interface the machine gives each core for memory traffic that leaves
/// the L1s. The implementation decides L2 hit/miss (or takes the baked
/// `l2` outcome), bus occupancy and split transactions; when the
/// transaction finishes — data available (loads / fetches) or write
/// performed (stores) — the implementation calls
/// InOrderCore::on_bus_complete(slot, completion_cycle). Test ports,
/// which model no L2, ignore `l2`.
class CoreBusPort {
public:
    virtual ~CoreBusPort() = default;
    virtual void request(BusOp op, Addr addr, Cycle ready, BusSlot slot,
                         L2Outcome l2) = 0;
};

struct CoreConfig {
    CacheGeometry il1_geometry{16 * 1024, 4, 32};
    CacheGeometry dl1_geometry{16 * 1024, 4, 32};
    ReplacementPolicy l1_replacement = ReplacementPolicy::kLru;

    /// DL1 lookup latency: 1 in the paper's `ref` NGMP model, 4 in `var`.
    std::uint32_t dl1_latency = 1;
    /// IL1 hit cost is hidden by pipelining; kept for completeness.
    std::uint32_t il1_latency = 1;

    /// Store buffer depth. A load waits until the buffer has fully
    /// drained before it issues (single AHB master port).
    std::uint32_t store_buffer_entries = 8;

    bool operator==(const CoreConfig&) const = default;
    void validate() const;
};

struct CoreStats {
    std::uint64_t instructions = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t nops = 0;
    std::uint64_t load_miss_requests = 0;  ///< DL1 misses sent to the bus
    std::uint64_t ifetch_requests = 0;     ///< IL1 misses sent to the bus
    std::uint64_t store_drains = 0;
    std::uint64_t store_full_stall_cycles = 0;
    std::uint64_t load_gate_stall_cycles = 0;  ///< waiting for SB drain
    /// Injection time between consecutive data-load bus requests:
    /// ready(r_i) - completion(r_{i-1}). This is the delta of Section 3.
    Histogram load_injection_delta;

    /// Zeroes the counters in place, keeping histogram storage.
    void reset() noexcept {
        instructions = 0;
        loads = 0;
        stores = 0;
        nops = 0;
        load_miss_requests = 0;
        ifetch_requests = 0;
        store_drains = 0;
        store_full_stall_cycles = 0;
        load_gate_stall_cycles = 0;
        load_injection_delta.clear();
    }
};

class InOrderCore {
public:
    InOrderCore(CoreId id, const CoreConfig& config, CoreBusPort& port);
    // The functional core refers to program_.
    InOrderCore(const InOrderCore&) = delete;
    InOrderCore& operator=(const InOrderCore&) = delete;

    /// Installs the program and resets execution state (not cache
    /// contents; use warm_code()/flush as needed).
    /// `start_delay` holds the core idle until that cycle — used by the
    /// measurement campaigns to randomize the alignment between the scua
    /// and its contenders.
    void set_program(Program program, Cycle start_delay = 0);

    /// Resets execution state for a fresh run of the already-installed
    /// program — set_program without the program copy. The machine-reuse
    /// hot path restarts cores between campaign runs with this.
    void restart(Cycle start_delay = 0);

    /// Full power-on restore without reallocation: restart(0) plus L1
    /// caches reset (Cache::reset) and statistics zeroed. After reset()
    /// the core is bit-identical to a freshly constructed one with the
    /// same program installed.
    void reset();

    /// Advances one cycle. Call exactly once per cycle, after bus
    /// completions have been delivered for this cycle. Returns the
    /// earliest future cycle at which this core can do observable work
    /// again, given no bus completion arrives first: a concrete cycle
    /// when it is idle until next_free_ (start delays, multi-cycle
    /// nops, retired tail) or retrying a stall next cycle (stall PMCs
    /// charge per cycle, so stalls are never skippable), and kNoCycle
    /// when only a bus completion can unblock it (in-flight miss or
    /// fetch, drains pending, done). The machine's cycle skipper
    /// consumes this without a second state scan; other callers may
    /// ignore it.
    Cycle tick(Cycle now);

    /// Completion dispatch: the bus transaction for `slot` finished at
    /// `completion`. Called by the machine (or a test port) exactly once
    /// per issued request, during the completing cycle's phase 1.
    void on_bus_complete(BusSlot slot, Cycle completion);

    /// True when this core's whole reaction to its in-flight load
    /// completing now is "retire the load, issue the next miss": a
    /// replay script with baked L2 outcomes, an empty store buffer with
    /// no drain in flight (no drain to post, no load gate), no
    /// loop-control charge on the retiring op, and a kLoadMiss next.
    /// The machine's bus-only step (Machine::step_or_skip) then runs
    /// the completion and this cycle's tick as reissue_load().
    [[nodiscard]] bool reissues_next_miss() const noexcept;

    /// on_bus_complete(kLoad, now) followed by tick(now), for a core
    /// that reissues_next_miss(): retires the load and issues the next
    /// miss through the same bookkeeping. Returns that miss op; the
    /// caller posts its request, ready at now + op.cycles.
    const replay::MicroOp& reissue_load(Cycle now);

    [[nodiscard]] bool done() const noexcept { return done_; }
    /// Cycle at which the program retired and the store buffer drained.
    /// Precondition: done().
    [[nodiscard]] Cycle finish_cycle() const;

    [[nodiscard]] const CoreStats& stats() const noexcept { return stats_; }
    [[nodiscard]] Cache& il1() noexcept { return functional_.il1(); }
    [[nodiscard]] Cache& dl1() noexcept { return functional_.dl1(); }
    [[nodiscard]] const Cache& il1() const noexcept {
        return functional_.il1();
    }
    [[nodiscard]] const Cache& dl1() const noexcept {
        return functional_.dl1();
    }
    [[nodiscard]] CoreId id() const noexcept { return id_; }
    [[nodiscard]] const Program& program() const noexcept { return program_; }
    /// Warms every code line of the program into the IL1 (the code half
    /// of Machine::warm_static_footprint).
    void warm_code() { functional_.warm_code(); }

    /// Store buffer occupancy (tests / introspection). The entry being
    /// drained remains in the buffer until its transaction completes.
    [[nodiscard]] std::size_t store_buffer_depth() const noexcept {
        return store_buffer_.size();
    }

    /// Attaches (non-null) or detaches (null) a pre-decoded micro-op
    /// script (src/replay): the core then replays the pre-computed
    /// functional outcomes — which instructions retire, which L1
    /// lookups hit, which lines go to the bus — while all timing
    /// (stalls, drains, bus/DRAM waits) stays live. The script must
    /// have been decoded from exactly this core's installed program and
    /// configuration; results are then bit-identical to interpreting.
    /// Resets the replay cursor for a fresh run. Armed attribution
    /// charges a replaying core exactly as it charges an interpreting
    /// one — tick() settles the pending cause before either path
    /// executes, and both route their stall retries through stall() —
    /// so every bucket and blame cell is bit-identical too.
    void attach_script(const replay::MicroOpScript* script);
    [[nodiscard]] bool has_script() const noexcept {
        return script_ != nullptr;
    }
    [[nodiscard]] const replay::MicroOpScript* script() const noexcept {
        return script_;
    }
    /// True when the attached script carries baked L2 outcomes — the
    /// machine then skips this core's live L2 partition entirely
    /// (lookups at issue time and the per-run partition warm).
    [[nodiscard]] bool replay_l2_baked() const noexcept {
        return l2_baked_;
    }

    /// Arms (non-null) or disarms (null) cycle attribution. The sink is
    /// machine-owned; the core only charges through it when armed.
    void attach_attribution(CycleAttribution* attribution) noexcept {
        attr_ = attribution;
        attr_cause_dirty_ = true;
    }

    /// True while a demand request (ifetch or load fill) is in flight —
    /// the interval up to the machine's current cycle is then covered by
    /// the bus/DRAM attribution flushes, not by the core.
    [[nodiscard]] bool waiting_on_bus() const noexcept {
        return waiting_ifetch_ || waiting_load_;
    }

    // ------------------------- steady-state fast-forward (docs/replay.md)
    // Replay mode only: the machine skips whole periods of a run only
    // when every core with a program replays.

    /// kDormant: still inside its start delay, nothing executed yet —
    /// it starts at release_cycle(). kDone: finished. kActive otherwise.
    enum class Phase : std::uint8_t { kDormant, kActive, kDone };
    [[nodiscard]] Phase phase(Cycle now) const noexcept;
    [[nodiscard]] Cycle release_cycle() const noexcept { return next_free_; }
    [[nodiscard]] std::uint64_t remaining_instructions() const noexcept {
        return remaining_instrs_;
    }
    /// Script ops consumed since the last restart.
    [[nodiscard]] std::uint64_t ops_done() const noexcept { return ops_done_; }

    /// Emits an active core's execution state relative to `now`: flags,
    /// next_free_ clamped at `now`, the injection-delta reference as an
    /// offset, the store buffer and the op under the cursor.
    template <class Sink>
    void timing_state(Cycle now, Sink& sink) const {
        sink(std::uint64_t{fetched_} | std::uint64_t{waiting_ifetch_} << 1 |
             std::uint64_t{waiting_load_} << 2 |
             std::uint64_t{retired_all_} << 3 |
             std::uint64_t{drain_in_flight_} << 4 |
             std::uint64_t{attr_cause_dirty_} << 5);
        sink(next_free_ > now ? next_free_ - now : 0);
        sink(prev_load_completion_ == kNoCycle ? kNoCycle
                                               : now - prev_load_completion_);
        sink(store_buffer_.size());
        for (std::size_t i = 0; i < store_buffer_.size(); ++i) {
            sink(store_buffer_.at(i));
        }
        if (rp_ < script_->ops.size()) {
            const replay::TimingKey key = replay::timing_key(script_->ops[rp_]);
            sink(key.shape);
            sink(key.cycles);
            sink(key.span);
        } else {
            sink(kNoCycle);
        }
    }

    /// Calls f(counter) on every additive statistic of the core and its
    /// L1s (the injection-delta histogram repeats through the
    /// observation log).
    template <class F>
    void visit_counters(F&& f) {
        f(stats_.instructions);
        f(stats_.loads);
        f(stats_.stores);
        f(stats_.nops);
        f(stats_.load_miss_requests);
        f(stats_.ifetch_requests);
        f(stats_.store_drains);
        f(stats_.store_full_stall_cycles);
        f(stats_.load_gate_stall_cycles);
        il1().replay_stats().for_each(f);
        dl1().replay_stats().for_each(f);
    }

    /// Whole periods of `period_ops` script ops, past the period that
    /// just ended at the cursor, over which every op the core touches is
    /// timing-equal to the op `period_ops` before it (the script's
    /// repeat bounds, MicroOpScript::repeat_prev / repeat_pass). In the
    /// loop region the cursor's walk wraps, and the periods end before
    /// the tail. 0 when the last period began in an earlier region of
    /// the script.
    [[nodiscard]] std::uint64_t repeatable_periods(
        std::uint64_t period_ops) const noexcept;

    /// False when no cursor position could repeat a period of
    /// `period_ops` ops: the cursor walks a loop region whose ops do
    /// not all repeat at any lag dividing the period, and no run of
    /// repeating ops — always shorter than the region — spans two
    /// periods.
    [[nodiscard]] bool may_repeat(std::uint64_t period_ops) const noexcept;

    /// The fewest periods of `period_ops` ops after which the cursor has
    /// walked whole passes of its loop region: the smallest m for which
    /// a lag whose repeat bound saturates over the region divides
    /// m·period_ops — every op then repeats the op m periods earlier,
    /// wherever the cursor stands. 1 for a period without ops; 0 when
    /// the cursor is outside its loop region or no lag saturates.
    [[nodiscard]] std::uint64_t whole_pass_periods(
        std::uint64_t period_ops) const noexcept;

    /// Script ops the cursor still walks before the tail. Precondition:
    /// the cursor is in its loop region.
    [[nodiscard]] std::uint64_t loop_ops_ahead() const noexcept;

    /// Skips `ops` script ops that retire `instrs` instructions (modulo
    /// the loop region while the cursor is in it) and moves every
    /// absolute cycle of the core `delta` cycles later — the state naive
    /// stepping reaches after the skipped periods.
    void fast_forward(std::uint64_t ops, std::uint64_t instrs,
                      Cycle delta) noexcept;

    /// While non-null, every histogram observation is also noted here.
    void attach_observation_log(ObservationLog* log) noexcept { log_ = log; }

private:
    void start_drain_if_needed(Cycle now);
    /// Executes at cycle `now`, returning the core's next event cycle
    /// (each terminal branch knows it outright).
    Cycle execute_instruction(Cycle now);
    /// execute_instruction's replay counterpart: drives the attached
    /// script through the same port/store-buffer/stall machinery.
    Cycle replay_execute(Cycle now);
    /// The kLoad case of on_bus_complete: the data arrived at
    /// `completion`; retire the load and advance the pc (or cursor).
    void complete_load(Cycle completion);
    /// tick()'s attribution entry charge: from `now` on the core
    /// executes again.
    void enter_execution(Cycle now) noexcept;
    /// Charges a replayed op's IL1 fetch hit, once across stall retries.
    void replay_fetch(const replay::MicroOp& op) noexcept;
    /// The issue half of a replayed kLoadMiss, past the store gate: the
    /// load's DL1 miss, PMCs and injection delta. Returns the bus-ready
    /// cycle; the caller posts the request.
    Cycle replay_load_miss(const replay::MicroOp& op, Cycle now);
    /// A store-gate or store-buffer-full stall at `now`, shared by both
    /// execution paths: bumps the stall PMC `pmc`, makes `cause` the
    /// pending attribution cause when armed, and returns the retry
    /// cycle.
    Cycle stall(Cycle now, std::uint64_t& pmc, StallCause cause) noexcept;
    /// Consumes `ops` script ops retiring `instrs` instructions:
    /// advances the cursor, handles loop-region wrap and retirement.
    void advance_rp(std::uint32_t ops, std::uint64_t instrs) noexcept;
    /// Where the cursor lands when it reaches `rp` with `remaining`
    /// instructions left: back at the loop start at the end of a
    /// steady-state pass, unless exactly the tail remains.
    [[nodiscard]] std::uint32_t wrap_rp(std::uint32_t rp,
                                        std::uint64_t remaining) const
        noexcept;
    /// Whether the cursor is in a looping script's loop region.
    [[nodiscard]] bool in_loop_region() const noexcept;
    /// The interpreter's retirement of the instruction at the pc:
    /// PMC, pc advance, loop control at a body wrap, retirement.
    void retire_instruction();

    CoreId id_;
    CoreConfig config_;
    CoreBusPort& port_;
    Program program_;
    FunctionalCore functional_;  ///< runs program_ when interpreting

    // Execution state.
    Cycle next_free_ = 0;       ///< core can start an instruction here
    bool fetched_ = false;      ///< current instruction passed ifetch
    bool waiting_ifetch_ = false;
    bool waiting_load_ = false;
    bool retired_all_ = false;
    bool done_ = false;
    Cycle finish_cycle_ = kNoCycle;

    // Store buffer: queued line addresses not yet drained. Sized to the
    // configured entry count once; never reallocates.
    RingBuffer<Addr> store_buffer_;
    bool drain_in_flight_ = false;

    // Injection-time bookkeeping.
    Cycle prev_load_completion_ = kNoCycle;

    // Replay state: the attached script (null = interpret), the cursor
    // into its ops, and the instructions left to retire — the retirement
    // authority in replay mode (the functional core stays untouched).
    const replay::MicroOpScript* script_ = nullptr;
    std::uint32_t rp_ = 0;
    std::uint64_t ops_done_ = 0;  ///< ops consumed (the fast-forward's
                                  ///< period length in ops)
    std::uint64_t remaining_instrs_ = 0;
    bool l2_baked_ = false;  ///< mirror of script_->l2_baked (hot path)

    /// Armed cycle-attribution sink (null when disarmed — the default).
    CycleAttribution* attr_ = nullptr;
    /// Mirror of `attr_->pending(id_) != kCompute`, kept on the core's
    /// own hot cache line. Only this core ever sets its pending cause,
    /// so the mirror cannot go stale; it spares the per-instruction
    /// deref into the attribution arrays (~6k instructions/run on the
    /// bench workload).
    bool attr_cause_dirty_ = true;
    ObservationLog* log_ = nullptr;

    CoreStats stats_;
};

}  // namespace rrb
