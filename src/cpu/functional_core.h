// The functional half of the in-order core: what an instruction does,
// never when. The private L1s (seeded per core), the IL1 fetch and its
// memo, the nop/alu batch, the DL1 load and store lookups, the pc and
// iteration with their wrap, and the static code and data warm.
//
// Two callers share it. InOrderCore's interpreter adds the timing half
// around each call (store gate, full-buffer stall, drains, port
// requests, PMCs, injection delta); replay::decode_program records the
// outcomes as micro-ops once per program. Stall retries and bus waits
// only change *when* a call is made, never which calls are made, so
// both callers see the same outcome stream by construction.
#pragma once

#include <cstdint>

#include "cache/cache.h"
#include "isa/program.h"
#include "sim/types.h"

namespace rrb {

struct CoreConfig;

class FunctionalCore {
public:
    /// Instructions a nop/alu batch chains after its first one. Pure
    /// compute touches neither memory nor the bus, so the interpreter
    /// may execute a straight run "early" while setting next_free_ to
    /// the exact naive-stepping value; the cap bounds the lookahead a
    /// core that never finishes (an infinite-iteration contender) can
    /// have accumulated when the scua's finish cuts its run off.
    static constexpr std::uint32_t kMaxComputeBatch = 64;

    /// An L1 lookup: its outcome and the line it touched.
    struct Lookup {
        bool hit = false;
        bool evicted = false;  ///< a miss install evicted a valid line
        Addr line = 0;
    };
    /// A nop/alu batch: the first instruction plus the chained ones.
    struct Batch {
        std::uint64_t cycles = 0;  ///< latencies plus loop control per wrap
        std::uint32_t instrs = 0;
        std::uint32_t nops = 0;
    };

    /// Core `id`'s L1s under `config`, running `program` — which must
    /// outlive the core; whatever it holds at restart() runs.
    FunctionalCore(CoreId id, const CoreConfig& config,
                   const Program& program);

    /// Back to the program's first instruction, to retire all of it;
    /// the caches keep their contents.
    void restart() noexcept {
        pc_ = 0;
        iteration_ = 0;
        retired_ = 0;
        budget_ = program_.total_instructions();
        memo_line_ = kNoCycle;
        memo_tick_ = 0;
    }

    /// The code half of the static warm: every code line into the IL1,
    /// in address order.
    void warm_code();
    /// The data half: every fixed-address load or store line of
    /// `program` into `l2` (the core's L2 partition), in body order.
    static void warm_data(const Program& program, Cache& l2);

    [[nodiscard]] const Program& program() const noexcept {
        return program_;
    }
    [[nodiscard]] const Instruction& instruction() const noexcept {
        return program_.body[pc_];
    }
    [[nodiscard]] std::size_t pc() const noexcept { return pc_; }
    [[nodiscard]] std::uint64_t iteration() const noexcept {
        return iteration_;
    }
    /// Instructions retired since restart().
    [[nodiscard]] std::uint64_t retired() const noexcept { return retired_; }
    /// Whether the retirement budget is spent.
    [[nodiscard]] bool finished() const noexcept {
        return retired_ == budget_;
    }
    /// Finishes once `instrs` instructions have retired instead of at the
    /// program's end.
    void finish_at(std::uint64_t instrs) noexcept { budget_ = instrs; }

    /// Fetches the instruction at the pc through the IL1. The memo turns
    /// a re-fetch of the line of the last hit into one compare while the
    /// IL1's access tick is unchanged; a miss installs the line and
    /// clears the memo.
    Lookup fetch() {
        const Addr addr = program_.code_base + pc_ * Program::kInstrBytes;
        const Addr line = addr & il1_line_mask_;
        if (line == memo_line_ && il1_.access_tick() == memo_tick_) {
            il1_.read_repeat_hit();
            return {true, false, line};
        }
        const CacheAccess access = il1_.read(addr);
        if (!access.hit) {
            memo_line_ = kNoCycle;
            return {false, access.victim_line.has_value(), line};
        }
        memo_line_ = line;
        memo_tick_ = il1_.access_tick();
        return {true, false, line};
    }

    /// Retires the fetched nop/alu at the pc and chains the straight
    /// nop/alu run after it whose fetches are memo hits — the same warm
    /// IL1 line, no IL1 state change — up to kMaxComputeBatch
    /// instructions or the end of the budget.
    Batch compute_batch() noexcept {
        const Instruction& first = instruction();
        Batch batch{first.latency, 1, first.kind == OpKind::kNop ? 1u : 0u};
        if (retire()) batch.cycles += program_.loop_control_cycles;
        while (!finished() && batch.instrs <= kMaxComputeBatch) {
            const Instruction& chained = instruction();
            if (chained.kind != OpKind::kNop && chained.kind != OpKind::kAlu) {
                break;
            }
            const Addr line =
                (program_.code_base + pc_ * Program::kInstrBytes) &
                il1_line_mask_;
            if (line != memo_line_ || il1_.access_tick() != memo_tick_) break;
            if (chained.kind == OpKind::kNop) ++batch.nops;
            batch.cycles += chained.latency;
            ++batch.instrs;
            if (retire()) batch.cycles += program_.loop_control_cycles;
        }
        il1_.replay_read_hits(batch.instrs - 1);  // the chained memo hits
        return batch;
    }

    /// The DL1 read of the load at the pc (a miss allocates).
    Lookup load() {
        const Addr addr = instruction().addr.address(iteration_);
        const CacheAccess access = dl1_.read(addr);
        return {access.hit, access.victim_line.has_value(),
                addr & dl1_line_mask_};
    }
    /// The DL1 write of the store at the pc (write-through, no-allocate).
    Lookup store() {
        const Addr addr = instruction().addr.address(iteration_);
        return {dl1_.write(addr).hit, false, addr & dl1_line_mask_};
    }

    /// Retires the instruction at the pc: the pc moves on, wrapping to
    /// the body's start — the next iteration — after its last
    /// instruction. Returns whether it wrapped; the retirement then owes
    /// the program's loop-control cycles.
    bool retire() noexcept {
        ++retired_;
        if (++pc_ < program_.body.size()) return false;
        pc_ = 0;
        ++iteration_;
        return true;
    }

    /// The memoized IL1 line while the memo is valid, else kNoCycle.
    [[nodiscard]] Addr memo_line() const noexcept {
        return il1_.access_tick() == memo_tick_ ? memo_line_ : kNoCycle;
    }

    [[nodiscard]] Cache& il1() noexcept { return il1_; }
    [[nodiscard]] Cache& dl1() noexcept { return dl1_; }
    [[nodiscard]] const Cache& il1() const noexcept { return il1_; }
    [[nodiscard]] const Cache& dl1() const noexcept { return dl1_; }

private:
    const Program& program_;
    Cache il1_;
    Cache dl1_;
    Addr il1_line_mask_;  ///< ~(line_bytes - 1), line rounding sans divide
    Addr dl1_line_mask_;

    std::size_t pc_ = 0;
    std::uint64_t iteration_ = 0;
    std::uint64_t retired_ = 0;
    std::uint64_t budget_ = 0;
    // Fetch memo: the IL1 line of the last fetch that hit, valid while
    // the IL1's access tick is unchanged (no other touch or install
    // happened). Straight-line code re-fetches one 32-byte line for ~8
    // instructions; the memo turns those lookups into one compare and a
    // hit-counter bump with bit-identical cache behavior.
    Addr memo_line_ = kNoCycle;
    std::uint64_t memo_tick_ = 0;
};

}  // namespace rrb
