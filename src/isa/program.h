// The kernel ISA: the minimal instruction set needed to express resource
// stressing kernels (rsk, rsk-nop) and EEMBC-Autobench-like workloads.
//
// A Program is a loop body executed `iterations` times by an in-order core
// (src/cpu). Instructions carry an address *pattern* rather than a fixed
// address so a small body can describe large streaming / random footprints
// deterministically (the pattern is a pure function of the iteration
// index — no hidden RNG state, so simulations are bit-reproducible).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.h"

namespace rrb {

enum class OpKind : std::uint8_t {
    kLoad,   ///< data read; misses in DL1 go to the bus and stall the core
    kStore,  ///< data write; write-through, retires into the store buffer
    kNop,    ///< no memory effect; occupies the pipeline `latency` cycles
    kAlu,    ///< compute; like kNop but named so op mixes are documented
};

const char* to_string(OpKind kind) noexcept;

/// Address generator: address(iteration) for a load/store slot.
struct AddrPattern {
    enum class Kind : std::uint8_t {
        kFixed,   ///< always `base`
        kStride,  ///< base + (iteration * stride) % range, line-aligned walk
        kRandom,  ///< base + uniform-hash(iteration) over `range`, `align`ed
    };

    Kind kind = Kind::kFixed;
    Addr base = 0;
    std::uint64_t stride_bytes = 0;  ///< kStride only
    std::uint64_t range = 0;   ///< bytes of footprint, kStride/kRandom
    std::uint64_t align = 4;   ///< kRandom: alignment of generated address
    std::uint64_t salt = 0;    ///< kRandom: decorrelates slots

    [[nodiscard]] static AddrPattern fixed(Addr base);
    [[nodiscard]] static AddrPattern stride(Addr base, std::uint64_t stride_bytes,
                                            std::uint64_t range);
    [[nodiscard]] static AddrPattern random(Addr base, std::uint64_t range,
                                            std::uint64_t align,
                                            std::uint64_t salt = 0);

    /// The address this slot produces on the given loop iteration.
    [[nodiscard]] Addr address(std::uint64_t iteration) const;

    bool operator==(const AddrPattern&) const = default;
};

struct Instruction {
    OpKind kind = OpKind::kNop;
    std::uint32_t latency = 1;  ///< execute cycles for kNop/kAlu (>= 1)
    AddrPattern addr;           ///< meaningful for kLoad/kStore only

    bool operator==(const Instruction&) const = default;
};

/// A kernel: a loop body run a fixed number of iterations.
struct Program {
    std::string name;
    std::vector<Instruction> body;
    std::uint64_t iterations = 1;

    /// Base address of the code; instruction i of the body sits at
    /// code_base + i * kInstrBytes. Instruction fetch goes through IL1.
    Addr code_base = 0;

    /// Compute cycles charged at the end of every body pass to model the
    /// loop decrement + branch. The paper unrolls rsk bodies precisely to
    /// dilute this overhead below 2%.
    std::uint32_t loop_control_cycles = 2;

    static constexpr std::uint64_t kInstrBytes = 4;

    [[nodiscard]] std::uint64_t total_instructions() const noexcept {
        return body.size() * iterations;
    }
    [[nodiscard]] std::uint64_t code_bytes() const noexcept {
        return body.size() * kInstrBytes;
    }
    /// Count of body slots of one kind.
    [[nodiscard]] std::uint64_t count(OpKind kind) const noexcept;

    /// Member-wise, `name` included — stricter than equal fingerprints.
    bool operator==(const Program&) const = default;
};

/// Content hash of everything that determines a program's timing: the
/// body (kinds, latencies, address patterns), iteration count, code
/// base and loop-control cost. `name` is cosmetic and excluded. Used by
/// Scenario::fingerprint and by the campaign machine cache
/// (engine::MachineLease) to decide whether a reused machine already
/// hosts the right programs.
[[nodiscard]] std::uint64_t fingerprint(const Program& program);
/// fingerprint() of `program` re-scoped to `iterations`: the identity of
/// the copy a campaign installs for a contender, without the copy.
[[nodiscard]] std::uint64_t fingerprint(const Program& program,
                                        std::uint64_t iterations);

/// One entry of an explicit memory trace (see make_trace_program).
struct TraceOp {
    OpKind kind = OpKind::kNop;     ///< kLoad, kStore or kNop/kAlu
    Addr addr = 0;                  ///< for loads/stores
    std::uint32_t latency = 1;      ///< for kNop/kAlu entries
};

/// Builds a program that replays an explicit memory trace — the bridge
/// for downstream users who have an address trace of their application
/// (e.g. from a debugger or an instrumented build) rather than source:
/// each trace entry becomes one instruction with a fixed address.
/// The body is the whole trace; `iterations` repeats it.
[[nodiscard]] Program make_trace_program(const std::vector<TraceOp>& trace,
                                         std::uint64_t iterations = 1,
                                         Addr code_base = 0,
                                         std::string name = "trace");

/// Fluent builder for programs.
class ProgramBuilder {
public:
    explicit ProgramBuilder(std::string name);

    ProgramBuilder& load(AddrPattern addr);
    ProgramBuilder& store(AddrPattern addr);
    ProgramBuilder& nop(std::uint32_t count = 1, std::uint32_t latency = 1);
    ProgramBuilder& alu(std::uint32_t count = 1, std::uint32_t latency = 1);

    /// Replicates everything added so far `factor` times (loop unrolling).
    ProgramBuilder& unroll(std::uint32_t factor);

    ProgramBuilder& iterations(std::uint64_t n);
    ProgramBuilder& code_base(Addr base);
    ProgramBuilder& loop_control(std::uint32_t cycles);

    [[nodiscard]] Program build() const&;
    /// build() that moves the program out of a builder that is done.
    [[nodiscard]] Program build() &&;

private:
    Program prog_;
};

}  // namespace rrb
