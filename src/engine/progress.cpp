#include "engine/progress.h"

#include <algorithm>

namespace rrb::engine {

double ProgressCounter::fraction() const noexcept {
    const std::size_t t = total();
    if (t == 0) return 1.0;
    const std::size_t c = std::min(completed(), t);
    return static_cast<double>(c) / static_cast<double>(t);
}

std::string render_progress(const ProgressCounter& progress) {
    const std::size_t t = progress.total();
    // Read completed once and clamp both the count and the percentage
    // against the announced total: a reader that samples while the
    // counter is re-announced (a Session reused for another call) can
    // pair the old count with the new total, and a "12/10 (120%)" line
    // — or a 100%+ percentage computed from a second, larger read —
    // must never render.
    const std::size_t c = std::min(progress.completed(), t);
    const int percent =
        t == 0 ? 100
               : static_cast<int>(100.0 * static_cast<double>(c) /
                                  static_cast<double>(t));
    return std::to_string(c) + "/" + std::to_string(t) + " (" +
           std::to_string(std::min(percent, 100)) + "%)";
}

}  // namespace rrb::engine
