#include "engine/machine_lease.h"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "obs/telemetry.h"
#include "replay/script_cache.h"

namespace rrb::engine {

struct MachineLease::Entry {
    std::uint64_t campaign = 0;  ///< fingerprint of installed programs
    std::uint32_t pins = 0;      ///< live leases holding this entry
    std::unique_ptr<Machine> machine;
    replay::ScriptCache scripts;  ///< pooled scripts of recent programs
};

namespace {

/// Soft cap on cached machines: eviction keeps the cache near this
/// size, but never destroys an entry a live lease still pins (nested
/// leases of many configs temporarily exceed the cap instead).
constexpr std::size_t kMaxCachedMachines = 4;

}  // namespace

std::vector<std::unique_ptr<MachineLease::Entry>>&
MachineLease::thread_cache() {
    thread_local std::vector<std::unique_ptr<Entry>> cache;
    return cache;
}

void MachineLease::evict_down_to_cap() {
    std::vector<std::unique_ptr<Entry>>& cache = thread_cache();
    for (std::size_t i = cache.size(); i-- > 0 &&
                                       cache.size() > kMaxCachedMachines;) {
        if (cache[i]->pins == 0) {
            cache.erase(cache.begin() + static_cast<std::ptrdiff_t>(i));
            obs::count(obs::kLeaseEvictions);
        }
    }
}

MachineLease::MachineLease(const MachineConfig& config) {
    std::vector<std::unique_ptr<Entry>>& cache = thread_cache();
    for (std::size_t i = 0; i < cache.size(); ++i) {
        if (!(cache[i]->machine->config() == config)) continue;
        if (i != 0) {
            // Move-to-front LRU; entries are pointer-stable.
            std::rotate(cache.begin(), cache.begin() + i,
                        cache.begin() + i + 1);
        }
        entry_ = cache.front().get();
        ++entry_->pins;
        obs::count(obs::kLeaseHits);
        return;
    }
    obs::count(obs::kLeaseMisses);
    auto entry = std::make_unique<Entry>();
    entry->machine = std::make_unique<Machine>(config);
    entry->pins = 1;
    entry_ = entry.get();
    cache.insert(cache.begin(), std::move(entry));
    evict_down_to_cap();
}

MachineLease::~MachineLease() {
    --entry_->pins;
    evict_down_to_cap();
}

Machine& MachineLease::machine() noexcept { return *entry_->machine; }

std::uint64_t& MachineLease::campaign() noexcept { return entry_->campaign; }

replay::ScriptCache& MachineLease::scripts() noexcept {
    return entry_->scripts;
}

std::size_t MachineLease::cached_machines() noexcept {
    return thread_cache().size();
}

void MachineLease::drop_thread_cache() noexcept {
    std::vector<std::unique_ptr<Entry>>& cache = thread_cache();
    std::erase_if(cache, [](const std::unique_ptr<Entry>& entry) {
        return entry->pins == 0;
    });
}

}  // namespace rrb::engine
