#include "machine/config.h"

#include "cache/partitioned_cache.h"
#include "sim/contract.h"

namespace rrb {

namespace {

/// splitmix64-chained u64 folder (see rrb::fingerprint(Program) for the
/// rationale): faster than the byte-at-a-time FNV chain.
class FastHash {
public:
    void u64(std::uint64_t v) noexcept {
        h_ += 0x9e3779b97f4a7c15ULL;
        std::uint64_t z = h_ ^ v;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        h_ = z ^ (z >> 31);
    }
    [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

private:
    std::uint64_t h_ = 0x13198a2e03707344ULL;
};

void fold_geometry(FastHash& h, const CacheGeometry& g) {
    h.u64(g.size_bytes);
    h.u64(g.ways);
    h.u64(g.line_bytes);
}

}  // namespace

std::uint64_t MachineConfig::fingerprint() const {
    FastHash h;
    h.u64(num_cores);
    fold_geometry(h, core.il1_geometry);
    fold_geometry(h, core.dl1_geometry);
    h.u64(static_cast<std::uint64_t>(core.l1_replacement));
    h.u64(core.dl1_latency);
    h.u64(core.il1_latency);
    h.u64(core.store_buffer_entries);
    // Loads always wait for the store buffer, and the L2 partitions'
    // policies are constants: their words keep the slots they had as
    // config fields, so no lease key or checkpoint identity moves.
    h.u64(1);
    fold_geometry(h, l2_geometry);
    h.u64(static_cast<std::uint64_t>(WayPartitionedCache::kReplacement));
    h.u64(static_cast<std::uint64_t>(WayPartitionedCache::kWritePolicy));
    h.u64(static_cast<std::uint64_t>(WayPartitionedCache::kAllocPolicy));
    h.u64(static_cast<std::uint64_t>(arbiter));
    h.u64(tdma_slot_cycles);
    h.u64(wrr_weights.size());
    for (const std::uint32_t w : wrr_weights) h.u64(w);
    h.u64(bus_transfer_cycles);
    h.u64(l2_hit_cycles);
    h.u64(store_service_cycles);
    h.u64(miss_request_cycles);
    h.u64(fill_response_cycles);
    h.u64(dram.capacity_bytes);
    h.u64(dram.num_banks);
    h.u64(dram.row_bytes);
    h.u64(dram.access_bytes);
    h.u64(dram.timing.t_rcd);
    h.u64(dram.timing.t_cl);
    h.u64(dram.timing.t_rp);
    h.u64(dram.timing.t_burst);
    h.u64(dram.timing.t_overhead);
    // The controller is FR-FCFS, open-page and refresh-free by
    // construction: the words of those former knobs keep their slots.
    h.u64(1);
    h.u64(0);
    h.u64(0);
    h.u64(26);
    return h.value();
}

void MachineConfig::validate() const {
    RRB_REQUIRE(num_cores >= 1, "need at least one core");
    core.validate();
    l2_geometry.validate();
    RRB_REQUIRE(l2_geometry.ways % num_cores == 0,
                "L2 ways must divide across cores for way partitioning");
    RRB_REQUIRE(bus_transfer_cycles >= 1, "transfer takes >= 1 cycle");
    RRB_REQUIRE(l2_hit_cycles >= 1, "L2 hit takes >= 1 cycle");
    RRB_REQUIRE(store_service_cycles >= 1, "store occupies >= 1 cycle");
    RRB_REQUIRE(miss_request_cycles >= 1, "miss request occupies >= 1 cycle");
    RRB_REQUIRE(fill_response_cycles >= 1, "fill occupies >= 1 cycle");
    if (arbiter == ArbiterKind::kWeightedRoundRobin) {
        RRB_REQUIRE(wrr_weights.empty() || wrr_weights.size() == num_cores,
                    "one weight per core (or empty for all ones)");
    }
    if (arbiter == ArbiterKind::kTdma) {
        const Cycle longest =
            std::max({load_hit_service(), store_service_cycles,
                      miss_request_cycles, fill_response_cycles});
        RRB_REQUIRE(tdma_slot_cycles >= longest,
                    "TDMA slot must fit the longest transaction");
    }
    dram.validate();
}

MachineConfig MachineConfig::ngmp_ref() {
    MachineConfig cfg;  // defaults are the NGMP reference numbers
    cfg.core.dl1_latency = 1;
    cfg.core.il1_latency = 1;
    return cfg;
}

MachineConfig MachineConfig::ngmp_var() {
    MachineConfig cfg = ngmp_ref();
    cfg.core.dl1_latency = 4;
    cfg.core.il1_latency = 4;
    return cfg;
}

void MachineConfig::retime_bus(Cycle lbus) {
    RRB_REQUIRE(lbus >= 2, "lbus must cover transfer + L2 hit");
    bus_transfer_cycles = 1;
    l2_hit_cycles = lbus - 1;
    store_service_cycles = lbus;
    miss_request_cycles = 1;
    fill_response_cycles = 1;
    if (tdma_slot_cycles < lbus) tdma_slot_cycles = lbus;
}

MachineConfig MachineConfig::scaled(CoreId cores, Cycle lbus) {
    RRB_REQUIRE(cores >= 1, "need at least one core");
    MachineConfig cfg = ngmp_ref();
    cfg.num_cores = cores;
    cfg.l2_geometry.ways = cores;
    cfg.l2_geometry.size_bytes = 64ULL * 1024 * cores;
    cfg.retime_bus(lbus);
    return cfg;
}

MachineConfig MachineConfig::p4080_like() {
    MachineConfig cfg = ngmp_ref();
    cfg.num_cores = 8;
    cfg.core.il1_geometry = {32 * 1024, 8, 64};
    cfg.core.dl1_geometry = {32 * 1024, 8, 64};
    cfg.core.dl1_latency = 2;
    cfg.core.store_buffer_entries = 16;
    cfg.l2_geometry = {2 * 1024 * 1024, 8, 64};  // one 256KB way per core
    cfg.bus_transfer_cycles = 4;
    cfg.l2_hit_cycles = 8;  // lbus = 12, ubd = 7 * 12 = 84
    cfg.store_service_cycles = 12;
    cfg.miss_request_cycles = 4;
    cfg.fill_response_cycles = 4;
    cfg.dram.access_bytes = 64;
    cfg.dram.num_banks = 8;
    return cfg;
}

MachineConfig MachineConfig::textbook() {
    MachineConfig cfg = ngmp_ref();
    cfg.bus_transfer_cycles = 1;
    cfg.l2_hit_cycles = 1;  // lbus = 2, ubd = 6 as in Figures 2/3/5
    cfg.store_service_cycles = 2;
    cfg.miss_request_cycles = 1;
    cfg.fill_response_cycles = 1;
    return cfg;
}

}  // namespace rrb
