#include "cpu/functional_core.h"

#include "cpu/core.h"

namespace rrb {

FunctionalCore::FunctionalCore(CoreId id, const CoreConfig& config,
                               const Program& program)
    : program_(program),
      il1_(config.il1_geometry, config.l1_replacement,
           WritePolicy::kWriteThrough, AllocPolicy::kWriteAllocate,
           /*rng_seed=*/id * 2 + 1),
      dl1_(config.dl1_geometry, config.l1_replacement,
           WritePolicy::kWriteThrough, AllocPolicy::kNoWriteAllocate,
           /*rng_seed=*/id * 2 + 2),
      il1_line_mask_(~static_cast<Addr>(config.il1_geometry.line_bytes - 1)),
      dl1_line_mask_(~static_cast<Addr>(config.dl1_geometry.line_bytes - 1)) {
    restart();
}

void FunctionalCore::warm_code() {
    if (program_.body.empty()) return;
    const std::uint32_t line_bytes = il1_.geometry().line_bytes;
    const Addr last = program_.code_base + program_.code_bytes() - 1;
    for (Addr line = program_.code_base / line_bytes * line_bytes;
         line <= last; line += line_bytes) {
        il1_.warm(line);
    }
}

void FunctionalCore::warm_data(const Program& program, Cache& l2) {
    const std::uint32_t line_bytes = l2.geometry().line_bytes;
    for (const Instruction& instr : program.body) {
        if ((instr.kind == OpKind::kLoad || instr.kind == OpKind::kStore) &&
            instr.addr.kind == AddrPattern::Kind::kFixed) {
            l2.warm(instr.addr.base / line_bytes * line_bytes);
        }
    }
}

}  // namespace rrb
