// One-shot decode pass: program + core config -> micro-op script.
//
// The decoder drives the interpreter's own functional half
// (cpu/functional_core.h) on replica L1s warmed by the same static warm
// as Machine::warm_static_footprint: instruction fetch with the memo,
// nop/alu batching, DL1 lookups with real replacement state, address
// patterns per iteration — and records each step as one op. Timing never
// enters: stall retries resolve to the same next access, so the emitted
// op stream is exact for every run of the campaign regardless of seeds,
// start delays or contention.
#pragma once

#include <cstdint>
#include <memory>

#include "cpu/core.h"
#include "isa/program.h"
#include "replay/microop.h"
#include "sim/types.h"

namespace rrb {
struct DramConfig;
}  // namespace rrb

namespace rrb::replay {

struct DecodeLimits {
    /// Hard cap on emitted ops; exceeding it without retiring the
    /// program (and without finding a steady-state loop) fails the
    /// decode — the core then stays on the interpreter.
    std::uint32_t max_ops = 1u << 20;
    /// Body-wrap state snapshots examined for loop detection. Each one
    /// fingerprints both L1 replicas and the L2 partition replica, so
    /// the budget is small: LRU, FIFO and PLRU rsk programs fold within
    /// their first two wraps. Once it is spent the decoder stops looking
    /// for a loop. It declines (Decline::kBoundaryCap) when the rest of
    /// the program provably cannot fit under max_ops, and otherwise
    /// decodes the rest straight through to retirement.
    std::uint32_t max_boundaries = 64;
};

/// Why decode_program returned nullptr.
enum class Decline : std::uint8_t {
    kNone,          ///< the decode succeeded
    kOpCap,         ///< the ops outgrew DecodeLimits::max_ops (or one
                    ///< op's cycle field) before the program retired —
                    ///< or provably would, for a program that can
                    ///< never fold (checked before decoding)
    kBoundaryCap,   ///< no loop within DecodeLimits::max_boundaries
                    ///< wraps, and the rest cannot fit under max_ops
    kDirtyReplica,  ///< the L2 partition replica evicted a dirty line
    kInjected,      ///< the decode-overflow fault fired
};

/// The replica blueprint of one core's private L2 partition, for baking
/// partition-local L2 outcomes into the script (MicroOpScript::l2_baked).
/// The decoder builds the replica with WayPartitionedCache::make_partition
/// — exactly as Machine's L2 builds the core's partition — from the
/// partition (not full) geometry.
struct L2PartitionSpec {
    CacheGeometry geometry;
    /// Where the partition's misses land in DRAM: two misses repeat each
    /// other in the script's repeat bounds only when they open the same
    /// row (DramConfig::row_at). Null (the default) compares their line
    /// addresses instead.
    const DramConfig* dram = nullptr;
};

/// Decodes `program` as core `core_id` (the id fixes the L1 victim-RNG
/// seeds) would execute it under `config`. Returns nullptr when the
/// program cannot be scripted within the limits — callers fall back to
/// the interpreter, never fail — and stores the reason in `*decline`
/// when given (Decline::kNone on success).
///
/// With a non-null `l2` and a storeless program, the per-access outcomes
/// of the core's L2 partition are additionally baked into the miss ops
/// (the replaying machine then skips the live partition entirely). A
/// program with stores ignores `l2`: store drains write into the
/// partition on bus completion, interleaving with load-miss reads in a
/// timing-dependent order the decoder cannot replay.
[[nodiscard]] std::unique_ptr<MicroOpScript> decode_program(
    const Program& program, const CoreConfig& config, CoreId core_id,
    const L2PartitionSpec* l2 = nullptr, const DecodeLimits& limits = {},
    Decline* decline = nullptr);

}  // namespace rrb::replay
