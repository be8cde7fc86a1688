#include "isa/program.h"

#include <algorithm>
#include <utility>

#include "sim/contract.h"
#include "sim/fnv.h"

namespace rrb {

std::uint64_t fingerprint(const Program& program) {
    return fingerprint(program, program.iterations);
}

std::uint64_t fingerprint(const Program& program, std::uint64_t iterations) {
    // Word-at-a-time: the campaign hot path evaluates this per run to
    // decide whether a leased machine's programs can be reused in place.
    WordHash h;
    h.u64(program.body.size());
    for (const Instruction& instr : program.body) {
        h.u64(static_cast<std::uint64_t>(instr.kind) |
              static_cast<std::uint64_t>(instr.latency) << 8 |
              static_cast<std::uint64_t>(instr.addr.kind) << 40);
        h.u64(instr.addr.base);
        h.u64(instr.addr.stride_bytes);
        h.u64(instr.addr.range);
        h.u64(instr.addr.align);
        h.u64(instr.addr.salt);
    }
    h.u64(iterations);
    h.u64(program.code_base);
    h.u64(program.loop_control_cycles);
    return h.value();
}

namespace {

/// splitmix64: a high-quality stateless mixer; address randomization must be
/// a pure function of (iteration, salt) for reproducibility.
std::uint64_t mix64(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

}  // namespace

const char* to_string(OpKind kind) noexcept {
    switch (kind) {
        case OpKind::kLoad: return "load";
        case OpKind::kStore: return "store";
        case OpKind::kNop: return "nop";
        case OpKind::kAlu: return "alu";
    }
    return "?";
}

AddrPattern AddrPattern::fixed(Addr base) {
    AddrPattern p;
    p.kind = Kind::kFixed;
    p.base = base;
    return p;
}

AddrPattern AddrPattern::stride(Addr base, std::uint64_t stride_bytes,
                                std::uint64_t range) {
    RRB_REQUIRE(range > 0, "stride pattern needs a non-empty range");
    AddrPattern p;
    p.kind = Kind::kStride;
    p.base = base;
    p.stride_bytes = stride_bytes;
    p.range = range;
    return p;
}

AddrPattern AddrPattern::random(Addr base, std::uint64_t range,
                                std::uint64_t align, std::uint64_t salt) {
    RRB_REQUIRE(range > 0, "random pattern needs a non-empty range");
    RRB_REQUIRE(align > 0, "alignment must be positive");
    RRB_REQUIRE(range >= align, "range must cover at least one slot");
    AddrPattern p;
    p.kind = Kind::kRandom;
    p.base = base;
    p.range = range;
    p.align = align;
    p.salt = salt;
    return p;
}

Addr AddrPattern::address(std::uint64_t iteration) const {
    // This runs once per simulated load/store; footprints are usually
    // powers of two, where the reduction is a mask instead of a 64-bit
    // hardware divide.
    const auto reduce = [](std::uint64_t v, std::uint64_t m) {
        return (m & (m - 1)) == 0 ? v & (m - 1) : v % m;
    };
    switch (kind) {
        case Kind::kFixed:
            return base;
        case Kind::kStride:
            return base + reduce(iteration * stride_bytes, range);
        case Kind::kRandom: {
            const std::uint64_t slots = range / align;
            const std::uint64_t slot =
                reduce(mix64(iteration ^ (salt * 0x9e3779b9ULL)), slots);
            return base + slot * align;
        }
    }
    return base;
}

std::uint64_t Program::count(OpKind k) const noexcept {
    return static_cast<std::uint64_t>(
        std::count_if(body.begin(), body.end(),
                      [k](const Instruction& i) { return i.kind == k; }));
}

Program make_trace_program(const std::vector<TraceOp>& trace,
                           std::uint64_t iterations, Addr code_base,
                           std::string name) {
    RRB_REQUIRE(!trace.empty(), "trace must not be empty");
    ProgramBuilder b(std::move(name));
    b.code_base(code_base).iterations(iterations);
    for (const TraceOp& op : trace) {
        switch (op.kind) {
            case OpKind::kLoad:
                b.load(AddrPattern::fixed(op.addr));
                break;
            case OpKind::kStore:
                b.store(AddrPattern::fixed(op.addr));
                break;
            case OpKind::kNop:
                b.nop(1, op.latency);
                break;
            case OpKind::kAlu:
                b.alu(1, op.latency);
                break;
        }
    }
    return std::move(b).build();
}

ProgramBuilder::ProgramBuilder(std::string name) {
    prog_.name = std::move(name);
}

ProgramBuilder& ProgramBuilder::load(AddrPattern addr) {
    prog_.body.push_back({OpKind::kLoad, 1, addr});
    return *this;
}

ProgramBuilder& ProgramBuilder::store(AddrPattern addr) {
    prog_.body.push_back({OpKind::kStore, 1, addr});
    return *this;
}

ProgramBuilder& ProgramBuilder::nop(std::uint32_t count,
                                    std::uint32_t latency) {
    RRB_REQUIRE(latency >= 1, "latency must be at least one cycle");
    prog_.body.insert(prog_.body.end(), count,
                      Instruction{OpKind::kNop, latency, {}});
    return *this;
}

ProgramBuilder& ProgramBuilder::alu(std::uint32_t count,
                                    std::uint32_t latency) {
    RRB_REQUIRE(latency >= 1, "latency must be at least one cycle");
    prog_.body.insert(prog_.body.end(), count,
                      Instruction{OpKind::kAlu, latency, {}});
    return *this;
}

ProgramBuilder& ProgramBuilder::unroll(std::uint32_t factor) {
    RRB_REQUIRE(factor >= 1, "unroll factor must be >= 1");
    const std::vector<Instruction> once = prog_.body;
    for (std::uint32_t i = 1; i < factor; ++i) {
        prog_.body.insert(prog_.body.end(), once.begin(), once.end());
    }
    return *this;
}

ProgramBuilder& ProgramBuilder::iterations(std::uint64_t n) {
    RRB_REQUIRE(n >= 1, "at least one iteration");
    prog_.iterations = n;
    return *this;
}

ProgramBuilder& ProgramBuilder::code_base(Addr base) {
    prog_.code_base = base;
    return *this;
}

ProgramBuilder& ProgramBuilder::loop_control(std::uint32_t cycles) {
    prog_.loop_control_cycles = cycles;
    return *this;
}

Program ProgramBuilder::build() const& {
    RRB_REQUIRE(!prog_.body.empty(), "program body must not be empty");
    return prog_;
}

Program ProgramBuilder::build() && {
    RRB_REQUIRE(!prog_.body.empty(), "program body must not be empty");
    return std::move(prog_);
}

}  // namespace rrb
