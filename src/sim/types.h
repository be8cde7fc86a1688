// Fundamental types shared by every simulator module.
#pragma once

#include <cstdint>
#include <limits>

namespace rrb {

/// Simulation time in core clock cycles.
using Cycle = std::uint64_t;

/// Sentinel for "no cycle" / "not yet scheduled".
inline constexpr Cycle kNoCycle = std::numeric_limits<Cycle>::max();

/// Identifier of a bus requester (a core, in this model).
using CoreId = std::uint32_t;

/// Sentinel for "no core".
inline constexpr CoreId kNoCore = std::numeric_limits<CoreId>::max();

/// Physical byte address as seen by caches / bus / DRAM.
using Addr = std::uint64_t;

}  // namespace rrb
