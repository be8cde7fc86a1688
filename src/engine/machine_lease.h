// Per-worker machine reuse for campaign hot paths.
//
// Every campaign run used to construct a fresh Machine — heap-allocating
// the bus, cores, ports and ~10k cache line entries — only to simulate a
// few thousand cycles and throw it all away. Machine::reset() restores
// construction state without reallocating, so the engine can keep one
// machine per (worker thread, config) and hand it out run after run. A
// lease finds its machine by comparing configs field by field — cheaper
// than hashing one per run.
//
// The cache is thread_local: campaign runs execute on ThreadPool workers
// (and the caller's thread), each of which touches its own machines with
// no locking. A small LRU bound keeps sweeps over many configs from
// hoarding memory. Since reset() is bit-identical to fresh construction
// (tests/test_hotpath.cpp), reuse can never change a campaign's numbers
// — it only removes the per-run construction cost.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "machine/config.h"
#include "machine/machine.h"

namespace rrb::replay {
struct ScriptCache;
}  // namespace rrb::replay

namespace rrb::engine {

/// A leased machine for `config`, valid for the lease's lifetime: live
/// leases pin their cache entry, so LRU eviction (which destroys
/// machines) only ever claims unleased entries — nested leases of many
/// distinct configs can push the cache past its soft cap but can never
/// dangle an outstanding lease. The machine is NOT reset on acquire —
/// callers decide between Machine::reset() (fresh campaign) and
/// Machine::reset_keep_programs() (same campaign, next run) based on
/// campaign(), the caller-owned tag recording which program set the
/// machine currently hosts (0 = none).
class MachineLease {
public:
    explicit MachineLease(const MachineConfig& config);
    ~MachineLease();

    MachineLease(const MachineLease&) = delete;
    MachineLease& operator=(const MachineLease&) = delete;

    [[nodiscard]] Machine& machine() noexcept;
    /// Campaign fingerprint of the programs installed by the previous
    /// lease of this machine; write through it after loading new ones.
    [[nodiscard]] std::uint64_t& campaign() noexcept;
    /// The program-keyed pool of pre-decoded micro-op scripts the
    /// machine's runs replay from. Lives and dies with the cached
    /// machine, so core-held script pointers can never outlive their
    /// storage.
    [[nodiscard]] replay::ScriptCache& scripts() noexcept;

    /// Machines currently cached by this thread (introspection/tests).
    [[nodiscard]] static std::size_t cached_machines() noexcept;
    /// Drops this thread's unleased cached machines (tests and memory
    /// pressure); entries pinned by live leases survive.
    static void drop_thread_cache() noexcept;

private:
    struct Entry;

    /// This thread's cache, most-recently-used first.
    [[nodiscard]] static std::vector<std::unique_ptr<Entry>>& thread_cache();
    /// Destroys unpinned entries beyond the soft cap, oldest first.
    static void evict_down_to_cap();

    Entry* entry_ = nullptr;
};

}  // namespace rrb::engine
