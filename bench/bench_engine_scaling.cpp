// Engine scaling: campaign throughput vs worker count.
//
// A 20-run HWM campaign is sharded over jobs ∈ {1, 2, 4, hw} and timed.
// Because the per-run seed derivation makes the numbers identical at
// every job count, the only thing that changes is wall-clock time — the
// table prints runs/second and the speedup over jobs = 1, and verifies
// the HWM agrees across all widths. On a multi-core host the speedup at
// jobs = 4 should be >= 2x; on a single-hardware-thread host the table
// degenerates to ~1x and says so.
#include <chrono>

#include "fig_common.h"

using namespace rrb;

namespace {

constexpr std::size_t kRuns = 20;

HwmCampaignResult run_at(std::size_t jobs) {
    const MachineConfig cfg = MachineConfig::ngmp_ref();
    const Program scua =
        make_autobench(Autobench::kCacheb, 0x0100'0000, 150, 9);
    Session session;
    session.jobs(jobs);
    return session.hwm(Scenario::on(cfg)
                           .scua(scua)
                           .rsk_contenders(OpKind::kLoad)
                           .runs(kRuns)
                           .seed(11));
}

void print_figure() {
    rrbench::print_header(
        "Engine scaling — 20-run HWM campaign sharded over N jobs",
        "identical HWM at every job count; throughput scales with "
        "hardware threads");

    const std::size_t hw = engine::ThreadPool::default_jobs();
    std::vector<std::size_t> widths = {1, 2, 4};
    if (hw > 4) widths.push_back(hw);

    std::printf("hardware threads: %zu\n\n", hw);
    std::printf("%6s %12s %12s %10s %12s\n", "jobs", "wall[ms]",
                "runs/sec", "speedup", "hwm");

    double baseline_ms = 0.0;
    Cycle reference_hwm = 0;
    bool hwm_stable = true;
    for (const std::size_t jobs : widths) {
        const auto start = std::chrono::steady_clock::now();
        const HwmCampaignResult result = run_at(jobs);
        const auto stop = std::chrono::steady_clock::now();
        const double ms =
            std::chrono::duration<double, std::milli>(stop - start).count();
        if (jobs == 1) {
            baseline_ms = ms;
            reference_hwm = result.high_water_mark;
        } else if (result.high_water_mark != reference_hwm) {
            hwm_stable = false;
        }
        std::printf("%6zu %12.1f %12.1f %9.2fx %12llu\n", jobs, ms,
                    ms > 0.0 ? 1000.0 * kRuns / ms : 0.0,
                    ms > 0.0 ? baseline_ms / ms : 0.0,
                    static_cast<unsigned long long>(result.high_water_mark));
    }

    std::printf("\nhwm identical across job counts: %s\n",
                hwm_stable ? "yes" : "NO (determinism bug!)");
    if (hw < 4) {
        std::printf(
            "note: only %zu hardware thread(s) — speedup is bounded by "
            "the host, not the engine.\n",
            hw);
    }
}

void BM_CampaignJobs(benchmark::State& state) {
    const auto jobs = static_cast<std::size_t>(state.range(0));
    for (auto _ : state) {
        benchmark::DoNotOptimize(run_at(jobs));
    }
}
BENCHMARK(BM_CampaignJobs)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

}  // namespace

RRBENCH_MAIN(print_figure)
