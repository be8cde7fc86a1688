// The multicore system: Nc in-order cores with private L1s, a shared
// arbitrated bus, a way-partitioned L2 and a DDR2 memory controller —
// the NGMP-like platform of the paper's evaluation (Section 5.1).
//
// Per-cycle phase order (this ordering is what makes injection time 0
// achievable, e.g. for store-buffer drains):
//   1. bus completions for this cycle fire (data delivered to cores);
//   2. the memory controller advances (may ready fill responses);
//   3. every core executes its cycle (may post requests ready this cycle);
//   4. bus arbitration grants among requests with ready <= now.
//
// Bus-only steps: a cycle in which only the bus acts — its in-service
// transaction completes strictly before every core's and the memory
// controller's next event — and whose completion is a replayed load
// whose owner just retires it and issues its next miss runs as
// complete -> retire + reissue -> arbitrate, without the completion
// dispatch, the DRAM gate or the core scan (docs/replay.md). Naive
// stepping and traced runs always take the four phases.
//
// Steady-state fast-forward: a campaign run's schedule turns exactly
// periodic early. At each retirement of the scua's last loop-body
// instruction run_core compares the whole timing state, relative to
// now, with the previous such boundary's; when they match and every
// core's next ops repeat the last period's, it skips k whole periods in
// one step — shifting every absolute cycle by k periods and adding k
// times the period's change to every counter, histogram and
// attribution cell (docs/replay.md). Only replayed runs with cycle
// skipping on and the tracer off ever skip.
//
// Hot-path design (PR 5): the machine is the single BusClient/DramClient
// — completions dispatch through a fixed switch on (op, tag) instead of
// per-request closures; per-port queues are reusable rings; reset() /
// reset_keep_programs() restore power-on state without reallocating, so
// one machine serves a whole campaign (engine::MachineLease); and run()
// fast-forwards over provably idle cycles via the components'
// next_event_cycle() — all while staying bit-identical to naive
// stepping on a fresh machine (tests/test_hotpath.cpp is the proof).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "bus/bus.h"
#include "cache/partitioned_cache.h"
#include "cpu/core.h"
#include "dram/dram.h"
#include "isa/program.h"
#include "machine/attribution.h"
#include "machine/config.h"
#include "sim/ring_buffer.h"
#include "sim/trace.h"
#include "sim/types.h"
#include "stats/histogram.h"

namespace rrb {

struct RunResult {
    Cycle cycles = 0;              ///< cycles simulated in this run call
    bool deadline_reached = false; ///< stopped at max_cycles
    std::vector<Cycle> finish_cycle;  ///< per core; kNoCycle if unfinished
};

class Machine final : private BusClient, private DramClient {
public:
    explicit Machine(MachineConfig config);

    Machine(const Machine&) = delete;
    Machine& operator=(const Machine&) = delete;

    /// Installs a program on a core. Must be called before run().
    /// `start_delay` keeps the core idle until that cycle (alignment
    /// randomization for measurement campaigns).
    void load_program(CoreId core, Program program, Cycle start_delay = 0);

    /// Resets the core's execution state for a fresh run of its
    /// already-installed program, with a new start delay — the per-run
    /// path of a reused machine, skipping the Program copy that
    /// load_program performs. Precondition: the core has a program.
    void restart_program(CoreId core, Cycle start_delay = 0);

    /// Attaches (non-null) or detaches (null) a pre-decoded micro-op
    /// script on a core (replay execution mode, src/replay). The script
    /// must outlive its attachment and match the core's installed
    /// program; the caller (core/campaign.cpp) keys scripts by campaign
    /// fingerprint to guarantee it. Allowed armed or not: a replaying
    /// core charges attribution exactly as an interpreting one does.
    void attach_replay(CoreId core, const replay::MicroOpScript* script);

    /// Pre-warms the core's caches with the program's *static* footprint:
    /// every code line into the IL1 and every fixed-address data line into
    /// the core's L2 partition. Models the standard measurement practice
    /// of discarding a warm-up run, so that cold misses — whose count
    /// grows with the rsk-nop body size — do not pollute the k sweep's
    /// periodicity. Data/strided/random footprints are left cold.
    void warm_static_footprint(CoreId core);

    /// Restores construction state without reallocation: caches
    /// invalidated (replacement state re-seeded), bus/DRAM queues and
    /// counters cleared, tracer emptied, now() back to 0, programs
    /// forgotten. A reset machine is bit-identical to a freshly
    /// constructed Machine(config()).
    void reset();

    /// reset() except the cores keep their installed programs (and the
    /// machine keeps knowing which cores have one): the campaign hot
    /// path restarts runs with restart_program + warm_static_footprint
    /// instead of re-copying program bodies every run.
    void reset_keep_programs();

    /// Runs until every core with a program finishes, or max_cycles.
    RunResult run(Cycle max_cycles = 1'000'000'000);

    /// Runs until `core` finishes (contenders keep running meanwhile —
    /// the paper's measurement discipline: "rsk must not complete
    /// execution before the scua"), or max_cycles.
    RunResult run_until_core(CoreId core, Cycle max_cycles = 1'000'000'000);

    /// Allocation-free form of run_until_core for the campaign hot
    /// path: returns the core's finish cycle, or kNoCycle when the run
    /// hit max_cycles first.
    Cycle run_core(CoreId core, Cycle max_cycles = 1'000'000'000);

    /// Event-driven cycle skipping (default on): run() advances now()
    /// directly to the next component event when no component has work
    /// this cycle. Disabling forces naive cycle-by-cycle stepping — the
    /// reference the differential tests compare against; results are
    /// bit-identical either way.
    void set_cycle_skipping(bool enabled) noexcept {
        cycle_skipping_ = enabled;
    }
    [[nodiscard]] bool cycle_skipping() const noexcept {
        return cycle_skipping_;
    }

    /// Skip statistics since the last reset: fast-forwards taken and
    /// cycles jumped over. Pure observability — deterministic for a
    /// given run, never fed back into timing — surfaced per run by the
    /// campaign hot path through obs::TelemetryRegistry.
    [[nodiscard]] std::uint64_t events_skipped() const noexcept {
        return events_skipped_;
    }
    [[nodiscard]] std::uint64_t cycles_skipped() const noexcept {
        return cycles_skipped_;
    }
    /// Cycles run as bus-only steps since the last reset (see the
    /// header comment) — observability like the skip statistics.
    [[nodiscard]] std::uint64_t bus_only_steps() const noexcept {
        return bus_only_steps_;
    }
    /// Scua loop-body periods the steady-state fast-forward skipped
    /// since the last reset, and the cycles they spanned.
    [[nodiscard]] std::uint64_t periods_fast_forwarded() const noexcept {
        return periods_fast_forwarded_;
    }
    [[nodiscard]] std::uint64_t cycles_fast_forwarded() const noexcept {
        return cycles_fast_forwarded_;
    }

    /// What a full four-phase step did, by precedence: a completion
    /// owned by the scua (run_core's core), a scua tick, a memory
    /// controller event, a contender's completion or tick, else only
    /// bus arbitration. Every cycle since the last reset is one of a
    /// step of some kind, a bus-only step, a skipped cycle or a
    /// fast-forwarded cycle.
    enum class StepKind : std::uint8_t {
        kScuaCompletion,
        kScuaTick,
        kDramEvent,
        kContender,
        kArbitration,
        kCount
    };
    [[nodiscard]] std::uint64_t steps(StepKind kind) const noexcept {
        return step_kinds_[static_cast<std::size_t>(kind)];
    }

    [[nodiscard]] const MachineConfig& config() const noexcept {
        return config_;
    }
    [[nodiscard]] Cycle now() const noexcept { return now_; }
    [[nodiscard]] Bus& bus() noexcept { return *bus_; }
    [[nodiscard]] const Bus& bus() const noexcept { return *bus_; }
    [[nodiscard]] InOrderCore& core(CoreId id);
    [[nodiscard]] const InOrderCore& core(CoreId id) const;
    /// Whether `id` hosts a program since the last reset(). A reset core
    /// still holds its old Program object, so core(id).program() alone
    /// cannot tell.
    [[nodiscard]] bool has_program(CoreId id) const;
    [[nodiscard]] WayPartitionedCache& l2() noexcept { return l2_; }
    [[nodiscard]] MemoryController& dram() noexcept { return dram_; }
    [[nodiscard]] Tracer& tracer() noexcept { return tracer_; }

    /// Arms the cycle-attribution profiler: from the next cycle on, every
    /// core cycle is classified into a StallCause bucket and bus waits
    /// are blamed per contender (see machine/attribution.h). Clears any
    /// previous attribution state; strictly observational — timing is
    /// bit-identical armed or not. Attached replay scripts stay attached:
    /// armed runs replay, with buckets and blame bit-identical to an
    /// armed interpreter run. Storage was sized at construction, so
    /// arming never allocates.
    void arm_attribution() noexcept;
    /// Detaches the profiler from every component (charging stops).
    void disarm_attribution() noexcept;
    [[nodiscard]] bool attribution_armed() const noexcept {
        return attr_ != nullptr;
    }

    /// Settles every in-progress interval up to now() so the closed
    /// accounting invariant holds: per core, the timeline buckets sum
    /// exactly to now(). Call once when a run ends (idempotent at a
    /// fixed now()); the result is then readable via attribution().
    void finalize_attribution();
    [[nodiscard]] const CycleAttribution& attribution() const noexcept {
        return attribution_;
    }

private:
    /// Per-core serializing port: one bus transaction in flight per core;
    /// excess requests queue locally (queue wait is not bus contention, so
    /// a queued request's ready cycle is re-based when it is issued).
    class Port final : public CoreBusPort {
    public:
        Port(Machine& machine, CoreId core)
            : machine_(machine), core_(core), queue_(4) {}
        void request(BusOp op, Addr addr, Cycle ready, BusSlot slot,
                     L2Outcome l2) override;
        void try_issue(Cycle now);

    private:
        /// POD queue entry — the whole continuation is the BusSlot tag.
        struct Queued {
            BusOp op = BusOp::kDataLoad;
            Addr addr = 0;
            Cycle ready = 0;
            BusSlot slot = BusSlot::kLoad;
            L2Outcome l2 = L2Outcome::kLive;
        };
        friend class Machine;
        Machine& machine_;
        CoreId core_;
        bool busy_ = false;
        RingBuffer<Queued> queue_;
    };

    /// Posts a core's request to the bus. A load or fetch is sized by its
    /// L2 outcome — looked up in the live partition, or baked into the
    /// replay script, which then only injects the partition statistics
    /// (storeless programs only: the partition never holds a dirty line,
    /// so no victim writeback can be owed).
    void issue(CoreId core, BusOp op, Addr addr, Cycle ready, BusSlot slot,
               L2Outcome l2);
    /// Completion fan-in from the bus / memory controller: the fixed
    /// dispatch table that replaced the per-request closures. `tag`
    /// carries the BusSlot through the whole split-transaction chain.
    void bus_complete(const BusRequest& request, Cycle completion) override;
    void dram_complete(const DramRequest& request,
                       Cycle completion) override;
    /// Frees the port, resumes the core's continuation, issues the next
    /// queued request — the shared tail of every transaction.
    void finish_transaction(CoreId core, BusSlot slot, Cycle completion);

    /// Simulates cycle now_, then ++now_. Returns the earliest cycle at
    /// which any component does work again — computed in the same pass
    /// as the ticks, so the skipper costs one fused scan, not two.
    Cycle step();
    /// One loop iteration of run(): either fast-forwards now_ to the
    /// earliest component event (never beyond `limit`) or simulates one
    /// cycle. `next_hint` is the previous step's return value (pass
    /// now() initially). Stall PMCs of skipped cycles are charged in
    /// bulk so both modes report identical statistics. A qualifying
    /// cycle runs as bus_only_step() instead of step().
    Cycle step_or_skip(Cycle next_hint, Cycle limit);
    /// Simulates cycle now_ — a replayed load of `owner` completes, the
    /// owner issues its next miss, the bus arbitrates — then ++now_.
    /// Returns what step() would.
    Cycle bus_only_step(CoreId owner);

    // Steady-state fast-forward (machine/fast_forward.cpp). The boundary
    // hook stays out of line, so the run loop stays small enough for its
    // per-cycle callees to inline.
    /// Decides whether this run may skip periods and, when it may, arms
    /// the boundary tracking for scua `scua` (the observation log
    /// follows at its first boundary).
    void begin_fast_forward(CoreId scua);
    void end_fast_forward() noexcept;
    /// Points every component's histogram observations at `log` (null:
    /// none).
    void attach_observation_log(ObservationLog* log) noexcept;
    /// The scua retired a loop body's last instruction: compare, maybe
    /// skip, and start recording the next period. A skip lands at a
    /// boundary with `next_hint` reset to "unknown" (now_).
    [[gnu::noinline]] void at_scua_boundary(CoreId scua, Cycle& next_hint,
                                            Cycle limit);
    /// The bound the scua's remaining-instruction count falls below when
    /// its next loop body ends; 0 when no boundary lies ahead.
    [[nodiscard]] std::uint64_t next_scua_boundary(
        std::uint64_t remaining) const noexcept;
    /// Writes the relative timing state over the last boundary's and
    /// returns whether the two are equal.
    bool capture_state();
    [[nodiscard]] std::uint64_t skippable_periods(Cycle period,
                                                  Cycle limit) const;
    /// False when some active core's script rules out repeating the
    /// period just recorded from any cursor position
    /// (InOrderCore::may_repeat).
    [[nodiscard]] bool periods_may_repeat() const noexcept;
    /// The fewest scua bodies after which every active core has walked
    /// whole passes of its loop region (InOrderCore::whole_pass_periods)
    /// — the super-period compared when single bodies cannot repeat; 0
    /// when there is none, or no room before the scua's tail for the
    /// recorded one and one skipped.
    [[nodiscard]] std::uint64_t super_period(CoreId scua) const noexcept;
    /// Skips `periods` recorded periods of `period` cycles, each
    /// ff_.stride scua bodies.
    void skip_periods(std::uint64_t periods, Cycle period);
    void record_boundary();
    /// Calls f(counter) on every additive counter of the machine —
    /// cores, L1s, L2 partitions, bus, DRAM and, armed, attribution.
    template <class F>
    void visit_counters(F&& f);

    MachineConfig config_;
    std::unique_ptr<Bus> bus_;
    WayPartitionedCache l2_;
    MemoryController dram_;
    Tracer tracer_;
    // Ports must not relocate: cores hold references.
    std::vector<std::unique_ptr<Port>> ports_;
    std::vector<std::unique_ptr<InOrderCore>> cores_;
    std::vector<bool> has_program_;
    /// Per-core next-event cache: a core whose entry is beyond now_
    /// provably cannot act this cycle (cores are pure reactors to time
    /// and to bus completions, and finish_transaction rewinds the entry
    /// on completion), so step() skips its tick entirely. Entry 0 =
    /// unknown, always tick; programless cores hold kNoCycle.
    std::vector<Cycle> core_next_;
    Cycle now_ = 0;
    std::uint64_t events_skipped_ = 0;  ///< fast-forwards since reset
    std::uint64_t cycles_skipped_ = 0;  ///< cycles jumped since reset
    std::uint64_t bus_only_steps_ = 0;  ///< bus-only steps since reset
    std::array<std::uint64_t, static_cast<std::size_t>(StepKind::kCount)>
        step_kinds_{};
    /// The core run_core runs to completion (kNoCore in run()): the
    /// step-kind counters tell its events from the contenders'.
    CoreId scua_ = kNoCore;

    /// Earliest next event of every core and the memory controller as of
    /// the last step — before it only the bus can act. Set by step(),
    /// kept by bus_only_step() (which moves neither), and reset to now_
    /// ("unknown") when a run loop starts.
    Cycle quiet_until_ = 0;
    bool cycle_skipping_ = true;
    /// Attribution storage (sized at construction) and the armed flag:
    /// attr_ points at attribution_ while armed, else nullptr.
    CycleAttribution attribution_;
    CycleAttribution* attr_ = nullptr;
    // Cold: touched only at scua loop-body boundaries, so kept off the
    // cache lines the per-cycle loop reads.
    std::uint64_t periods_fast_forwarded_ = 0;
    std::uint64_t cycles_fast_forwarded_ = 0;
    /// Steady-state fast-forward storage, sized at construction.
    struct FastForward {
        /// Per core, where its script stood at the last boundary.
        struct Mark {
            std::uint64_t ops_done = 0;
            std::uint64_t remaining = 0;
        };
        FastForward(std::size_t state_words, std::size_t num_cores)
            : state(state_words), marks(num_cores) {}

        std::vector<std::uint64_t> state;  ///< relative timing state
        std::size_t state_size = 0;        ///< words used at the last one
        std::vector<std::uint64_t> counters;  ///< additive counters
        std::vector<Mark> marks;
        /// Histogram observations since then: at most 26 distinct
        /// pairs per period on the default pwcet scenario, 62 in the
        /// estimator's. A run whose period outgrows the log stops
        /// fast-forwarding (at_scua_boundary).
        ObservationLog log;
        std::uint64_t dram_reads = 0;
        std::uint64_t dram_writes = 0;
        Cycle boundary_at = 0;     ///< now_ at the recorded boundary
        std::uint64_t body = 0;    ///< scua instructions per loop body
        std::uint64_t total = 0;   ///< scua instructions per run
        std::uint64_t boundary_above = 0;  ///< see next_scua_boundary
        std::uint64_t stride = 1;  ///< scua bodies per compared period
        std::uint64_t uncaptured = 0;  ///< boundaries to pass before the
                                       ///< super-period's compare
        bool recorded = false;     ///< counters/marks/log are valid
    };
    FastForward ff_;
};

template <class F>
void Machine::visit_counters(F&& f) {
    for (CoreId c = 0; c < cores_.size(); ++c) {
        cores_[c]->visit_counters(f);
        l2_.replay_stats(c).for_each(f);
    }
    bus_->visit_counters(f);
    dram_.visit_counters(f);
    if (attr_ != nullptr) attribution_.visit_counters(f);
}

}  // namespace rrb
