// Pre-decoded micro-op scripts: the functional/temporal split behind the
// replay execution mode (docs/replay.md).
//
// Within a campaign the programs never change, yet the interpreting core
// re-fetches and re-decodes every instruction of every run through the
// IL1 path. The functional outcome of that work — which instructions
// retire, which L1 lookups hit, which line addresses leave the core —
// is a pure function of (program, core config): L1 caches are private,
// address patterns are pure functions of the iteration index, and stall
// cycles never change *which* accesses happen, only when. Everything
// timing-dependent (bus arbitration, DRAM state, start-delay alignment,
// store-buffer drains, stall retries) is left out of the script and
// stays live at replay time.
//
// A MicroOp is one interpreter tick's worth of forward progress: one
// instruction, or one nop/alu batch exactly as InOrderCore batches it.
// Replaying the ops through the live Bus/L2/DRAM reproduces the
// interpreter bit-for-bit: the same bus requests at the same ready
// cycles, the same PMC values, the same finish cycle
// (tests/test_hotpath.cpp and tests/test_replay.cpp are the proof).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/types.h"

namespace rrb::replay {

struct MicroOp {
    enum class Kind : std::uint8_t {
        kCompute,     ///< nop/alu batch: bump next_free_, no memory
        kLoadHit,     ///< DL1 hit load: dl1_latency cycles, no bus
        kLoadMiss,    ///< DL1 miss: bus request, completion advances pc
        kStore,       ///< retire into the store buffer (drain stays live)
        kIfetchMiss,  ///< IL1 miss: bus request, pc does not advance
    };

    // Flag bits (`flags`).
    static constexpr std::uint8_t kWrap = 1u << 0;  ///< pc wrapped: charge
                                                    ///< loop_control after
    static constexpr std::uint8_t kIl1FetchHit = 1u << 1;  ///< this op's
        ///< instruction fetch hit IL1 (charged once across stall retries)
    static constexpr std::uint8_t kDl1Evict = 1u << 2;     ///< kLoadMiss
        ///< install evicted a valid line
    static constexpr std::uint8_t kDl1WriteHit = 1u << 3;  ///< kStore hit
    static constexpr std::uint8_t kIl1Evict = 1u << 4;     ///< kIfetchMiss
        ///< install evicted a valid line
    static constexpr std::uint8_t kSpanNeedsClean = 1u << 5;  ///< merge
        ///< only with an empty, drain-free store buffer
    static constexpr std::uint8_t kSpanStore = 1u << 6;  ///< span ends in
        ///< a store (line/write-hit taken from the span's last op)

    // Baked-L2 bits, meaningful on kLoadMiss / kIfetchMiss ops of a
    // script with l2_baked set. kL2Evict reuses the kSpanNeedsClean bit:
    // span flags live only on span-head ops (kCompute/kLoadHit), never
    // on the bus-going miss kinds, so the two uses cannot collide.
    static constexpr std::uint8_t kL2Hit = 1u << 7;    ///< partition hit
    static constexpr std::uint8_t kL2Evict = 1u << 5;  ///< partition miss
        ///< install evicted a valid (always clean) line

    [[nodiscard]] bool l2_hit() const noexcept {
        return (flags & kL2Hit) != 0;
    }
    [[nodiscard]] bool l2_evict() const noexcept {
        return (flags & kL2Evict) != 0;
    }

    Kind kind = Kind::kCompute;
    std::uint8_t flags = 0;
    /// IL1 read hits charged by batched chain fetches beyond the primary
    /// fetch (kCompute only; the primary fetch is the kIl1FetchHit flag).
    std::uint8_t il1_chain_hits = 0;
    std::uint8_t nops = 0;     ///< nops retired by this op (batch <= 65)
    std::uint16_t instrs = 0;  ///< instructions retired by this op
    /// Head of a mergeable span: ops [i, i + span_ops) execute in one
    /// tick when the merge precondition holds (0 or 1 = no span).
    std::uint16_t span_ops = 0;
    /// kCompute/kLoadHit/kStore: next_free_ = now + cycles (wrap-time
    /// loop_control folded in). kLoadMiss: bus ready = now + cycles
    /// (the DL1 lookup latency); the kWrap loop_control is charged at
    /// completion instead.
    std::uint32_t cycles = 0;
    Addr line = 0;  ///< bus line address (kLoadMiss/kStore/kIfetchMiss)

    // Span aggregates, valid on the head op when span_ops >= 2.
    std::uint32_t span_cycles = 0;
    std::uint16_t span_instrs = 0;
    std::uint16_t span_nops = 0;
    std::uint16_t span_il1_hits = 0;  ///< fetch + chain hits of the span
    std::uint16_t span_loads = 0;     ///< kLoadHit count (= DL1 read hits)
};

/// Everything about an op that decides its timing and statistics: every
/// field but the line address. Two ops with equal keys advance a core
/// identically wherever their lines lead.
struct TimingKey {
    std::uint64_t shape = 0;   ///< kind, flags (baked cache outcomes
                               ///< included), chain hits, nops, instrs,
                               ///< span_ops
    std::uint64_t cycles = 0;  ///< cycles, span_cycles
    std::uint64_t span = 0;    ///< the other span aggregates
    bool operator==(const TimingKey&) const = default;
};

[[nodiscard]] inline TimingKey timing_key(const MicroOp& op) noexcept {
    return {std::uint64_t(op.kind) | std::uint64_t{op.flags} << 8 |
                std::uint64_t{op.il1_chain_hits} << 16 |
                std::uint64_t{op.nops} << 24 |
                std::uint64_t{op.instrs} << 32 |
                std::uint64_t{op.span_ops} << 48,
            std::uint64_t{op.cycles} | std::uint64_t{op.span_cycles} << 32,
            std::uint64_t{op.span_instrs} | std::uint64_t{op.span_nops} << 16 |
                std::uint64_t{op.span_il1_hits} << 32 |
                std::uint64_t{op.span_loads} << 48};
}

/// The decoded script for one (program, core config) pair.
///
/// Layout: ops = [prologue][loop][tail]. Finite programs decode fully
/// (looping = false, the ops cover every instruction). Periodic programs
/// — every load/store address iteration-independent, and the functional
/// state at some body-wrap boundary recurring — store one steady-state
/// pass as the loop region, re-entered until exactly `tail_instrs`
/// instructions remain; the tail region is that final (possibly partial)
/// pass with the retirement baked at its true position.
struct MicroOpScript {
    std::vector<MicroOp> ops;
    bool looping = false;
    /// Partition-local L2 outcomes are baked into the miss ops (kL2Hit /
    /// kL2Evict): the replaying core's bus requests carry the pre-decoded
    /// outcome and the live L2 partition is never consulted (nor warmed).
    /// Only set for storeless programs — with no store drains, the
    /// partition sees exactly this core's loads and fetches in program
    /// order, so its outcome sequence is a pure function of the program.
    bool l2_baked = false;
    std::uint32_t loop_start = 0;  ///< first op of the loop region
    std::uint32_t tail_start = 0;  ///< first op of the tail region
                                   ///< (== ops.size() when !looping)
    std::uint64_t tail_instrs = 0;    ///< instructions in the tail region
    std::uint64_t loop_instrs = 0;    ///< instructions per loop pass
    std::uint64_t total_instructions = 0;  ///< of the decoded program

    /// Repeat bounds for the steady-state fast-forward (docs/replay.md).
    /// repeat_prev[i] counts the ops from i on, within i's region, that
    /// each repeat the op before them; repeat_pass[i] the same against
    /// the op `pass_ops` earlier, pass_ops being the op count of the
    /// program's first body pass. "Repeat" means an equal timing_key
    /// and, for an op whose baked L2 miss goes to DRAM, the same DRAM
    /// row. In the loop region both count as the cursor walks it:
    /// modulo the region, the op before loop_start being the region's
    /// last (the body's end, which charges loop control). Both
    /// saturate at UINT16_MAX.
    std::uint32_t pass_ops = 0;
    std::vector<std::uint16_t> repeat_prev;
    std::vector<std::uint16_t> repeat_pass;
};

}  // namespace rrb::replay
