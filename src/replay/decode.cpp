#include "replay/decode.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <optional>
#include <vector>

#include "cache/partitioned_cache.h"
#include "dram/dram.h"
#include "fault/fault.h"
#include "sim/contract.h"
#include "sim/fnv.h"

namespace rrb::replay {

namespace {

/// Decode scratch capacity kept per thread between decodes (~2.5 MB).
constexpr std::size_t kMaxScratchOps = std::size_t{1} << 16;

// Span growth caps: spans are an optimization, so cutting one short is
// always safe. The aggregate fields are u16/u32; stay comfortably below.
constexpr std::size_t kMaxSpanOps = 4096;
constexpr std::uint32_t kMaxSpanInstrs = 0xF000;
constexpr std::uint64_t kMaxSpanCycles = 0x7000'0000;

/// One decode: drives a FunctionalCore — the interpreter's own
/// functional half, on replica L1s — and records each step's outcomes as
/// one op, baking L2 outcomes from a partition replica. A step that
/// cannot be scripted sets `failed`.
struct Recorder {
    Recorder(const Program& program, const CoreConfig& config,
             CoreId core_id, const L2PartitionSpec* l2_spec)
        : core(core_id, config, program), dl1_latency(config.dl1_latency) {
        // The replaying core skips the per-run warm, so the decode-time
        // replicas start from the state every run's warm reaches.
        core.warm_code();
        if (l2_spec != nullptr && program.count(OpKind::kStore) == 0) {
            // Storeless: the partition sees only this core's loads and
            // fetches, in program order — replicable.
            l2.emplace(WayPartitionedCache::make_partition(l2_spec->geometry,
                                                           core_id));
            FunctionalCore::warm_data(program, *l2);
        }
    }

    /// Replays one bus-going line through the L2 partition replica and
    /// stamps the outcome onto the miss op. A dirty eviction would need
    /// a live DRAM writeback the replay path does not model — it cannot
    /// happen in a storeless partition, so it fails the decode loudly
    /// rather than silently mistiming.
    void bake_l2(MicroOp& miss) {
        const CacheAccess access = l2->read(miss.line);
        if (access.hit) {
            miss.flags |= MicroOp::kL2Hit;
        } else if (access.victim_line) {
            miss.flags |= MicroOp::kL2Evict;
        }
        if (access.dirty_eviction) failed = Decline::kDirtyReplica;
    }

    /// Decodes one op (one interpreter tick of forward progress) into
    /// `ops`. Precondition: !core.finished().
    void step(std::vector<MicroOp>& ops) {
        MicroOp op;
        if (!fetched) {
            const FunctionalCore::Lookup fetch = core.fetch();
            // A miss's fill completion sets the interpreter's flag: the
            // next op executes the instruction it fetched.
            fetched = true;
            if (!fetch.hit) {
                MicroOp miss;
                miss.kind = MicroOp::Kind::kIfetchMiss;
                miss.line = fetch.line;
                if (fetch.evicted) miss.flags |= MicroOp::kIl1Evict;
                if (l2) bake_l2(miss);
                ops.push_back(miss);
                return;  // same instruction continues next step
            }
            op.flags |= MicroOp::kIl1FetchHit;
        }

        const std::uint32_t loop_control = core.program().loop_control_cycles;
        op.instrs = 1;
        switch (core.instruction().kind) {
            case OpKind::kNop:
            case OpKind::kAlu: {
                const FunctionalCore::Batch batch = core.compute_batch();
                if (batch.cycles > 0xFFFF'FFFFULL) {
                    failed = Decline::kOpCap;
                    return;
                }
                op.kind = MicroOp::Kind::kCompute;
                op.instrs = static_cast<std::uint16_t>(batch.instrs);
                op.nops = static_cast<std::uint8_t>(batch.nops);
                op.il1_chain_hits = static_cast<std::uint8_t>(batch.instrs - 1);
                op.cycles = static_cast<std::uint32_t>(batch.cycles);
                break;
            }
            case OpKind::kLoad: {
                const FunctionalCore::Lookup access = core.load();
                const bool wrapped = core.retire();
                op.cycles = dl1_latency;
                if (access.hit) {
                    op.kind = MicroOp::Kind::kLoadHit;
                    if (wrapped) op.cycles += loop_control;
                    break;
                }
                op.kind = MicroOp::Kind::kLoadMiss;
                op.line = access.line;
                if (access.evicted) op.flags |= MicroOp::kDl1Evict;
                if (l2) bake_l2(op);
                // The completion delivers the wrap's loop_control.
                if (wrapped) op.flags |= MicroOp::kWrap;
                break;
            }
            case OpKind::kStore: {
                const FunctionalCore::Lookup access = core.store();
                op.kind = MicroOp::Kind::kStore;
                if (access.hit) op.flags |= MicroOp::kDl1WriteHit;
                op.line = access.line;
                op.cycles = 1 + (core.retire() ? loop_control : 0);
                break;
            }
        }
        fetched = false;
        ops.push_back(op);
    }

    FunctionalCore core;
    std::uint32_t dl1_latency;
    /// L2 partition replica; engaged = outcomes are being baked.
    std::optional<Cache> l2;
    bool fetched = false;  ///< the instruction at the pc passed its fetch
    Decline failed = Decline::kNone;
};

/// Canonical functional-state hash at a body-wrap boundary: both L1s
/// plus the fetch memo (represented validity-canonically). Equal hashes
/// at two boundaries mean the op streams from them are identical, since
/// decode is a pure function of this state once addresses are
/// iteration-independent.
std::uint64_t boundary_fingerprint(const Recorder& r) {
    Fnv1a h;
    h.u64(r.core.il1().state_fingerprint());
    h.u64(r.core.dl1().state_fingerprint());
    if (r.l2) h.u64(r.l2->state_fingerprint());
    h.u64(r.core.memo_line());
    return h.value();
}

bool addresses_iteration_independent(const Program& program) {
    for (const Instruction& instr : program.body) {
        if (instr.kind != OpKind::kLoad && instr.kind != OpKind::kStore) {
            continue;
        }
        if (instr.addr.kind != AddrPattern::Kind::kFixed) return false;
    }
    return true;
}

/// Marks mergeable spans within ops[begin, end): maximal runs of
/// kCompute/kLoadHit ops, optionally closed by one kStore. Regions are
/// never crossed (the runtime wraps rp_ only at region boundaries).
void build_spans(std::vector<MicroOp>& ops, std::size_t begin,
                 std::size_t end) {
    std::size_t i = begin;
    while (i < end) {
        const MicroOp::Kind kind = ops[i].kind;
        if (kind != MicroOp::Kind::kCompute &&
            kind != MicroOp::Kind::kLoadHit) {
            ++i;
            continue;
        }
        std::size_t j = i;
        std::uint64_t cycles = 0;
        std::uint32_t instrs = 0;
        std::uint32_t nops = 0;
        std::uint32_t il1_hits = 0;
        std::uint32_t loads = 0;
        bool has_store = false;
        while (j < end && j - i < kMaxSpanOps) {
            const MicroOp& o = ops[j];
            const bool member = o.kind == MicroOp::Kind::kCompute ||
                                o.kind == MicroOp::Kind::kLoadHit ||
                                o.kind == MicroOp::Kind::kStore;
            if (!member) break;
            if (cycles + o.cycles > kMaxSpanCycles ||
                instrs + o.instrs > kMaxSpanInstrs) {
                break;
            }
            cycles += o.cycles;
            instrs += o.instrs;
            nops += o.nops;
            il1_hits += ((o.flags & MicroOp::kIl1FetchHit) != 0 ? 1u : 0u) +
                        o.il1_chain_hits;
            if (o.kind == MicroOp::Kind::kLoadHit) ++loads;
            ++j;
            if (o.kind == MicroOp::Kind::kStore) {
                has_store = true;  // a store closes its span
                break;
            }
        }
        if (j - i >= 2) {
            MicroOp& head = ops[i];
            head.span_ops = static_cast<std::uint16_t>(j - i);
            head.span_cycles = static_cast<std::uint32_t>(cycles);
            head.span_instrs = static_cast<std::uint16_t>(instrs);
            head.span_nops = static_cast<std::uint16_t>(nops);
            head.span_il1_hits = static_cast<std::uint16_t>(il1_hits);
            head.span_loads = static_cast<std::uint16_t>(loads);
            // A merged load must never skip a gate stall the interpreter
            // would take, and a merged store must never skip a full-
            // buffer stall: both are impossible from a clean buffer.
            if (has_store || loads > 0) {
                head.flags |= MicroOp::kSpanNeedsClean;
            }
            if (has_store) head.flags |= MicroOp::kSpanStore;
        }
        i = j;
    }
}

/// Fills the script's repeat bounds (MicroOpScript::repeat_prev /
/// repeat_pass) over each region, scanning backwards so a run's length
/// is one more than the next op's (saturating: a shorter bound only
/// skips fewer periods at a time). The loop region is scanned as the
/// cursor walks it, cyclically: its first op follows its last, the
/// body's end that charges loop control.
void build_repeats(MicroOpScript& script, const L2PartitionSpec* l2) {
    const std::vector<MicroOp>& ops = script.ops;
    const DramConfig* dram =
        script.l2_baked && l2 != nullptr ? l2->dram : nullptr;
    // Each op's timing key plus where a bus-going miss lands — its DRAM
    // row when the L2 outcome is baked, the line itself otherwise (the
    // live L2 decides), 0 for everything else, which the kind and flags
    // tell apart — packed once for the two lag scans.
    struct Key {
        TimingKey timing;
        std::uint64_t bus = 0;
        bool operator==(const Key&) const = default;
    };
    std::vector<Key> keys(ops.size());
    for (std::size_t i = 0; i < ops.size(); ++i) {
        const MicroOp& op = ops[i];
        Key& key = keys[i];
        key.timing = timing_key(op);
        const bool to_bus = op.kind == MicroOp::Kind::kLoadMiss ||
                            op.kind == MicroOp::Kind::kIfetchMiss;
        if (!to_bus || (script.l2_baked && op.l2_hit())) continue;
        key.bus = dram != nullptr ? dram->row_at(op.line) : op.line;
    }
    const auto extend = [](std::uint16_t next) {
        return static_cast<std::uint16_t>(next == UINT16_MAX ? next
                                                             : next + 1);
    };
    const auto fill = [&](std::vector<std::uint16_t>& repeat,
                          std::size_t lag) {
        repeat.assign(ops.size(), 0);
        if (lag == 0) return;
        // The prologue and the tail are walked once, straight through.
        const auto straight = [&](std::size_t begin, std::size_t end) {
            for (std::size_t i = end; i-- > begin;) {
                if (i < begin + lag || !(keys[i] == keys[i - lag])) continue;
                repeat[i] = extend(i + 1 < end ? repeat[i + 1] : 0);
            }
        };
        straight(0, script.loop_start);
        straight(script.tail_start, ops.size());
        // The loop region is walked cyclically: its op i follows op
        // i - lag modulo the region. Runs end where an op differs from
        // that predecessor, so the backward scan starts at such an op;
        // a region without one repeats forever (saturated).
        const std::size_t begin = script.loop_start;
        const std::size_t size = script.tail_start - begin;
        if (size == 0) return;
        const std::size_t shift = lag % size;
        const auto repeats = [&](std::size_t i) {
            const std::size_t from = i >= shift ? i - shift : i + size - shift;
            return keys[begin + i] == keys[begin + from];
        };
        std::size_t stop = 0;
        while (stop < size && repeats(stop)) ++stop;
        if (stop == size) {
            std::fill_n(repeat.begin() + begin, size, UINT16_MAX);
            return;
        }
        std::uint16_t next = 0;
        for (std::size_t n = 0, i = stop; n < size;
             ++n, i = i == 0 ? size - 1 : i - 1) {
            next = repeats(i) ? extend(next) : 0;
            repeat[begin + i] = next;
        }
    };
    fill(script.repeat_prev, 1);
    fill(script.repeat_pass, script.pass_ops);
}

}  // namespace

std::unique_ptr<MicroOpScript> decode_program(const Program& program,
                                              const CoreConfig& config,
                                              CoreId core_id,
                                              const L2PartitionSpec* l2,
                                              const DecodeLimits& limits,
                                              Decline* decline) {
    RRB_REQUIRE(!program.body.empty(), "program body must not be empty");
    Decline unused = Decline::kNone;
    Decline& why = decline != nullptr ? *decline : unused;
    why = Decline::kNone;
    // Fault site: a forced decode overflow (key: decode sequence
    // number). Returning nullptr takes the real overflow path — the
    // caller falls back to the interpreter, which is bit-identical by
    // the replay contract, so campaigns survive this unchanged.
    if (fault::armed()) {
        static std::atomic<std::uint64_t> decode_sequence{0};
        const std::uint64_t sequence =
            decode_sequence.fetch_add(1, std::memory_order_relaxed) + 1;
        if (fault::should_fire(fault::Site::kDecodeOverflow, sequence)) {
            why = Decline::kInjected;
            return nullptr;
        }
    }
    // Every load and store decodes to exactly one op, so no body pass is
    // shorter than min_ops_per_wrap. When the passes left cannot fit the
    // op budget left even at that length, no amount of decoding could
    // finish: the decode declines at once instead of at the op cap.
    const std::uint64_t min_ops_per_wrap = std::max<std::uint64_t>(
        1, program.count(OpKind::kLoad) + program.count(OpKind::kStore));
    const auto cannot_fit = [&](std::uint64_t instrs_left,
                                std::size_t ops_done) {
        const std::uint64_t room =
            limits.max_ops - std::min<std::uint64_t>(ops_done, limits.max_ops);
        return instrs_left / program.body.size() > room / min_ops_per_wrap;
    };
    bool seeking_loop = addresses_iteration_independent(program);
    if (!seeking_loop && cannot_fit(program.total_instructions(), 0)) {
        why = Decline::kOpCap;  // it can never fold, so it must fit whole
        return nullptr;
    }

    auto script = std::make_unique<MicroOpScript>();
    script->total_instructions = program.total_instructions();

    Recorder r(program, config, core_id, l2);
    FunctionalCore& core = r.core;
    script->l2_baked = r.l2.has_value();

    struct Boundary {
        std::uint64_t hash = 0;
        std::uint32_t op_index = 0;
        std::uint64_t instrs = 0;
    };
    std::vector<Boundary> boundaries;
    std::uint64_t last_boundary_iteration = 0;

    // Ops grow in a per-thread scratch buffer that keeps its capacity
    // from decode to decode — regrowing a vector per decode costs a
    // third of a short one — and the script gets one exact-size copy. A
    // buffer grown past kMaxScratchOps is released on the way out.
    thread_local std::vector<MicroOp> scratch;
    struct Trim {
        std::vector<MicroOp>& ops;
        ~Trim() {
            if (ops.capacity() > kMaxScratchOps) {
                std::vector<MicroOp>().swap(ops);
            }
        }
    } trim{scratch};
    std::vector<MicroOp>& ops = scratch;
    ops.clear();

    while (!core.finished()) {
        if (seeking_loop && core.pc() == 0 && !r.fetched &&
            core.iteration() > last_boundary_iteration) {
            last_boundary_iteration = core.iteration();
            const std::uint64_t hash = boundary_fingerprint(r);
            for (const Boundary& b : boundaries) {
                if (b.hash != hash) continue;
                // Steady state: the stream from boundary b repeats
                // forever. Keep [b.op_index, here) as the loop region
                // and decode the final (possibly partial) pass as the
                // tail, with retirement at its true position.
                script->looping = true;
                script->loop_start = b.op_index;
                script->tail_start = static_cast<std::uint32_t>(ops.size());
                script->loop_instrs = core.retired() - b.instrs;
                const std::uint64_t rem =
                    script->total_instructions - b.instrs;
                script->tail_instrs =
                    (rem - 1) % script->loop_instrs + 1;
                core.finish_at(core.retired() + script->tail_instrs);
                seeking_loop = false;
                break;
            }
            if (seeking_loop && boundaries.size() < limits.max_boundaries) {
                boundaries.push_back({hash,
                                      static_cast<std::uint32_t>(ops.size()),
                                      core.retired()});
            } else if (seeking_loop) {
                // Budget spent without a loop: stop fingerprinting. At a
                // boundary the rest is whole body passes.
                if (cannot_fit(script->total_instructions - core.retired(),
                               ops.size())) {
                    why = Decline::kBoundaryCap;
                    return nullptr;
                }
                seeking_loop = false;
            }
        }
        if (ops.size() >= limits.max_ops) {
            why = Decline::kOpCap;
            return nullptr;
        }
        r.step(ops);
        if (r.failed != Decline::kNone) {
            why = r.failed;
            return nullptr;
        }
        if (script->pass_ops == 0 && core.iteration() > 0) {
            script->pass_ops = static_cast<std::uint32_t>(ops.size());
        }
    }

    if (!script->looping) {
        script->loop_start = static_cast<std::uint32_t>(ops.size());
        script->tail_start = static_cast<std::uint32_t>(ops.size());
    }

    build_spans(ops, 0, script->loop_start);
    if (script->looping) {
        build_spans(ops, script->loop_start, script->tail_start);
        build_spans(ops, script->tail_start, ops.size());
    }
    script->ops.assign(ops.begin(), ops.end());
    build_repeats(*script, l2);
    return script;
}

}  // namespace rrb::replay
