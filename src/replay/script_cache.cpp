#include "replay/script_cache.h"

#include <algorithm>

#include "machine/machine.h"
#include "obs/telemetry.h"
#include "replay/decode.h"
#include "sim/contract.h"

namespace rrb::replay {

namespace {

obs::Counter decline_counter(Decline why) noexcept {
    switch (why) {
        case Decline::kOpCap: return obs::kReplayDeclinesOpCap;
        case Decline::kBoundaryCap: return obs::kReplayDeclinesBoundaryCap;
        case Decline::kDirtyReplica: return obs::kReplayDeclinesDirtyReplica;
        case Decline::kNone:  // a successful decode never gets here
        case Decline::kInjected: break;
    }
    return obs::kReplayDeclinesInjected;
}

}  // namespace

void prepare_scripts(ScriptCache& cache, Machine& machine,
                     std::uint64_t campaign,
                     std::span<const std::uint64_t> programs) {
    const MachineConfig& config = machine.config();
    RRB_REQUIRE(programs.empty() || programs.size() == config.num_cores,
                "one program fingerprint per core");
    const std::uint64_t generation = ++cache.generation;
    cache.per_core.assign(config.num_cores, nullptr);
    cache.programs.assign(config.num_cores, 0);
    // Under kRandom L1 replacement the victim RNG is seeded from the
    // core id, so equal programs still decode to different outcome
    // streams on different cores. (The L2 partitions are LRU: their
    // outcomes do not depend on the core.)
    const bool l1_random =
        config.core.l1_replacement == ReplacementPolicy::kRandom;
    bool injected = false;
    for (CoreId c = 0; c < config.num_cores; ++c) {
        if (!machine.has_program(c)) continue;
        const Program& program = machine.core(c).program();
        const std::uint64_t fp =
            programs.empty() ? fingerprint(program) : programs[c];
        cache.programs[c] = fp;
        const CoreId owner = l1_random ? c : ScriptCache::kAnyCore;
        // A remembered decline covers every core running the program:
        // it only sends them to the bit-identical interpreter.
        auto pooled = std::find_if(
            cache.pool.begin(), cache.pool.end(),
            [&](const ScriptCache::Entry& e) {
                return e.program == fp &&
                       (e.script == nullptr || e.core == owner);
            });
        if (pooled == cache.pool.end()) {
            L2PartitionSpec l2_spec;
            l2_spec.geometry = machine.l2().partition_geometry();
            l2_spec.dram = &config.dram;
            Decline why = Decline::kNone;
            std::unique_ptr<MicroOpScript> script =
                decode_program(program, config.core, c, &l2_spec, {}, &why);
            if (script != nullptr) {
                obs::count(obs::kReplayDecodes);
            } else {
                obs::count(decline_counter(why));
                // An injected decline is not the program's fault: it is
                // never pooled, so the next prepare decodes again.
                if (why == Decline::kInjected) {
                    injected = true;
                    continue;
                }
            }
            const CoreId key_core =
                script != nullptr ? owner : ScriptCache::kAnyCore;
            cache.pool.push_back({fp, key_core, std::move(script), 0});
            pooled = cache.pool.end() - 1;
        }
        pooled->generation = generation;
        cache.per_core[c] = pooled->script.get();
    }
    // Two-generation bound: keep what this set or the previous one ran.
    std::erase_if(cache.pool, [generation](const ScriptCache::Entry& e) {
        return e.generation + 1 < generation;
    });
    // A set with an injected decline stays untagged, so the next run
    // prepares again — and replays once the fault is disarmed.
    cache.campaign = injected ? 0 : campaign;
}

}  // namespace rrb::replay
