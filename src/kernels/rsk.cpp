#include "kernels/rsk.h"

#include <algorithm>
#include <string>
#include <utility>

#include "sim/contract.h"

namespace rrb {

void RskParams::validate() const {
    dl1_geometry.validate();
    RRB_REQUIRE(access == OpKind::kLoad || access == OpKind::kStore,
                "rsk accesses must be loads or stores");
    RRB_REQUIRE(unroll >= 1, "unroll factor must be >= 1");
    RRB_REQUIRE(iterations >= 1, "at least one iteration");
    RRB_REQUIRE(nop_latency >= 1, "nop latency must be >= 1");
}

Program make_rsk(RskParams params) {
    params.nops_between = 0;
    return make_rsk_nop(params, 0);
}

Program make_rsk_nop(RskParams params, std::uint32_t k) {
    params.nops_between = k;
    params.validate();

    const std::uint32_t ways = params.dl1_geometry.ways;
    const std::uint64_t stride = params.dl1_geometry.set_stride();

    const std::string type =
        params.access == OpKind::kLoad ? "load" : "store";
    ProgramBuilder b("rsk-" + type + (k > 0 ? "-nop" + std::to_string(k)
                                            : std::string{}));
    b.code_base(params.code_base);

    // Cap the unroll factor so the body fits the IL1: one group is
    // (W+1) * (1 + k) instructions, and an overflowing body would turn
    // the kernel into an instruction-fetch stressor instead.
    const std::uint64_t il1_capacity_instrs =
        params.il1_geometry.size_bytes / Program::kInstrBytes;
    const std::uint64_t group_instrs =
        static_cast<std::uint64_t>(ways + 1) * (1 + params.nops_between);
    const std::uint64_t max_unroll =
        std::max<std::uint64_t>(1, il1_capacity_instrs / group_instrs);
    const auto unroll = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(params.unroll, max_unroll));

    // One group = W+1 same-set accesses; with LRU/FIFO every access misses
    // in DL1 (Figure 1). k nops separate consecutive bus accesses.
    for (std::uint32_t group = 0; group < unroll; ++group) {
        for (std::uint32_t i = 0; i <= ways; ++i) {
            const AddrPattern addr =
                AddrPattern::fixed(params.data_base + i * stride);
            if (params.access == OpKind::kLoad) {
                b.load(addr);
            } else {
                b.store(addr);
            }
            if (params.nops_between > 0) {
                b.nop(params.nops_between, params.nop_latency);
            }
        }
    }
    b.iterations(params.iterations);
    b.loop_control(2);
    return std::move(b).build();
}

Program make_rsk_l2miss(RskParams params, std::uint64_t footprint_bytes,
                        std::uint32_t k) {
    params.nops_between = k;
    params.validate();
    RRB_REQUIRE(footprint_bytes >= 2 * params.dl1_geometry.size_bytes,
                "footprint must exceed the caches to guarantee misses");
    const std::uint32_t line = params.dl1_geometry.line_bytes;

    ProgramBuilder b("rsk-l2miss" +
                     (k > 0 ? "-nop" + std::to_string(k) : std::string{}));
    b.code_base(params.code_base);

    // Cap the body to the IL1 as in make_rsk_nop.
    const std::uint64_t il1_capacity_instrs =
        params.il1_geometry.size_bytes / Program::kInstrBytes;
    const std::uint64_t group_instrs = 1 + params.nops_between;
    const std::uint64_t slots = std::min<std::uint64_t>(
        static_cast<std::uint64_t>(params.unroll) *
            (params.dl1_geometry.ways + 1),
        std::max<std::uint64_t>(1, il1_capacity_instrs / group_instrs));

    // Slot j walks lines j, j+slots, j+2*slots, ... across the footprint:
    // consecutive body passes touch consecutive line groups, so no line
    // repeats before the whole footprint has been swept.
    for (std::uint64_t j = 0; j < slots; ++j) {
        b.load(AddrPattern::stride(params.data_base + j * line,
                                   slots * line, footprint_bytes));
        if (params.nops_between > 0) {
            b.nop(params.nops_between, params.nop_latency);
        }
    }
    b.iterations(params.iterations);
    b.loop_control(2);
    return std::move(b).build();
}

Program make_nop_kernel(std::size_t body_nops, std::uint64_t iterations,
                        std::uint32_t nop_latency, Addr code_base) {
    RRB_REQUIRE(body_nops >= 1, "need at least one nop");
    RRB_REQUIRE(iterations >= 1, "at least one iteration");
    ProgramBuilder b("nop-calibration");
    b.code_base(code_base);
    b.nop(static_cast<std::uint32_t>(body_nops), nop_latency);
    b.iterations(iterations);
    b.loop_control(2);
    return std::move(b).build();
}

}  // namespace rrb
