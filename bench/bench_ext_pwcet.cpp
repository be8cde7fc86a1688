// Extension 4, at MBPTA scale: streamed Gumbel pWCET campaigns vs the
// composable bound.
//
// MBPTA fits an extreme-value distribution to observed execution times
// and quotes a pWCET at a tiny exceedance probability — and its
// confidence argument wants campaigns orders of magnitude larger than a
// validation bench's 60 runs. This bench streams a 10^5-run randomized
// campaign through the sharded reduce path (Session::pwcet): no
// exec_times vector is ever materialized, live memory is one (max, fill)
// pair per EVT block, and the numbers are bit-identical at every job
// count. The checkpoint table shows pWCET(1e-9) converging as runs grow
// (checkpoints share the run-index prefix, so each row extends the
// previous sample) while the analytic ETB stays where it is: sampling
// narrows the gap but cannot certify the synchrony-locked worst case.
//
// RRB_PWCET_RUNS overrides the campaign size (CI smoke runs use a small
// value; see the bench_smoke target).
#include <cerrno>
#include <cinttypes>
#include <cstdlib>

#include "fig_common.h"

using namespace rrb;

namespace {

constexpr std::size_t kDefaultRuns = 100'000;
constexpr std::size_t kBlockSize = 50;

std::size_t total_runs() {
    const char* env = std::getenv("RRB_PWCET_RUNS");
    if (env == nullptr) return kDefaultRuns;
    // Asking to scale must never silently run something else: anything
    // but a plain decimal in [kMinRuns, 10^9] — negatives, typos,
    // overflow — clamps loudly to the smallest campaign whose final
    // checkpoint still fits a couple of blocks.
    constexpr std::size_t kMinRuns = 4 * kBlockSize;
    constexpr unsigned long kMaxRuns = 1'000'000'000;
    bool digits_only = *env != '\0';
    for (const char* c = env; *c != '\0'; ++c) {
        if (*c < '0' || *c > '9') digits_only = false;
    }
    errno = 0;
    const unsigned long v = std::strtoul(env, nullptr, 10);
    if (digits_only && errno == 0 && v >= kMinRuns && v <= kMaxRuns) {
        return static_cast<std::size_t>(v);
    }
    std::printf("RRB_PWCET_RUNS=%s is not a run count in [%zu, %lu]; "
                "running %zu runs\n",
                env, kMinRuns, kMaxRuns, kMinRuns);
    return kMinRuns;
}

void print_figure() {
    rrbench::print_header(
        "Extension — streamed Gumbel pWCET campaigns vs composable ETB",
        "pWCET(1e-9) always dominates the HWM and converges as runs grow; "
        "against the analytic ETB it can land on either side — EVT "
        "extrapolates the sampled alignment distribution, it does not "
        "certify the worst one");

    const MachineConfig cfg = MachineConfig::ngmp_ref();
    const Cycle ubd = cfg.ubd_analytic();
    const std::size_t runs = total_runs();

    // One Scenario, one Session: checkpoints re-size the run count on
    // the same scenario and share the session's pool.
    Scenario scenario = Scenario::on(cfg)
                            .scua(make_autobench(Autobench::kCacheb,
                                                 0x0100'0000, 120, 5))
                            .rsk_contenders(OpKind::kLoad)
                            .seed(23);
    PwcetSpec spec;
    spec.block_size = kBlockSize;
    spec.exceedance = {1e-9};
    Session session;  // default jobs: hardware concurrency

    std::printf("%10s %10s %10s %12s %12s %10s %8s\n", "runs", "hwm",
                "mu", "beta", "pwcet@1e-9", "etb", "vs etb");
    PwcetCampaignResult last;
    for (const std::size_t n :
         {runs / 64, runs / 16, runs / 4, runs}) {
        if (n < 2 * kBlockSize) continue;  // need >= 2 blocks for a fit
        // Same seed: runs [0, n) are a prefix of the full campaign, so
        // each checkpoint row extends the previous row's sample.
        const PwcetCampaignResult r = session.pwcet(scenario.runs(n), spec);
        last = r;
        const Cycle etb = r.etb(ubd);
        if (!r.fit.valid()) {
            // Degenerate fit (too few blocks or zero spread): no number
            // beats a fabricated 0.0 row.
            std::printf("%10zu %10" PRIu64 " %10s %12s %12s %10" PRIu64
                        " %8s\n",
                        r.runs, r.high_water_mark, "-", "-", "(no fit)",
                        etb, "-");
            continue;
        }
        const double pwcet = r.quantiles.front().pwcet;
        std::printf("%10zu %10" PRIu64 " %10.1f %12.3f %12.0f %10" PRIu64
                    " %8s\n",
                    r.runs, r.high_water_mark, r.fit.mu, r.fit.beta, pwcet,
                    etb,
                    pwcet <= static_cast<double>(etb) ? "below" : "above");
    }

    // Memory evidence: the streamed fold vs what PR 1's materializing
    // campaign would have held live at the same scale.
    const std::size_t streamed_bytes =
        last.live_values * (sizeof(double) + sizeof(std::uint64_t));
    const std::size_t materialized_bytes = last.runs * sizeof(Cycle);
    std::printf(
        "\nstreamed state: %zu live values (~%zu bytes) for %zu runs;\n"
        "a materialized exec_times vector would hold %zu values "
        "(~%zu bytes) — %zux more.\n",
        last.live_values, streamed_bytes, last.runs, last.runs,
        materialized_bytes,
        streamed_bytes == 0 ? 0 : materialized_bytes / streamed_bytes);
    std::printf(
        "\nEVT covers what randomized sampling can reach; the synchrony\n"
        "effect means the true worst alignment is never sampled, so a\n"
        "pWCET below the ETB is optimistic about the legal worst case and\n"
        "one above it is statistical pessimism — neither certifies the\n"
        "bound the nr x ubd pad gives by construction.\n");
}

void BM_StreamedPwcetCampaign(benchmark::State& state) {
    const std::size_t runs = static_cast<std::size_t>(state.range(0));
    const Scenario scenario =
        Scenario::on(MachineConfig::ngmp_ref())
            .scua(make_autobench(Autobench::kCacheb, 0x0100'0000, 40, 5))
            .rsk_contenders(OpKind::kLoad)
            .runs(runs)
            .seed(23);
    PwcetSpec spec;
    spec.block_size = 16;
    for (auto _ : state) {
        Session session;
        benchmark::DoNotOptimize(session.pwcet(scenario, spec));
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(runs));
}
BENCHMARK(BM_StreamedPwcetCampaign)->Arg(64)->Arg(256)
    ->Unit(benchmark::kMillisecond);

void BM_StreamingBlockMaximaFold(benchmark::State& state) {
    Pcg32 rng(5);
    std::vector<double> xs;
    for (int i = 0; i < 100'000; ++i) {
        xs.push_back(10000.0 + rng.next_double() * 500.0);
    }
    for (auto _ : state) {
        StreamingBlockMaxima stream(kBlockSize);
        for (std::size_t i = 0; i < xs.size(); ++i) {
            stream.add(i, xs[i]);
        }
        benchmark::DoNotOptimize(stream.fit());
    }
}
BENCHMARK(BM_StreamingBlockMaximaFold);

void BM_GumbelFitOnCampaign(benchmark::State& state) {
    Pcg32 rng(5);
    std::vector<double> xs;
    for (int i = 0; i < 60; ++i) {
        xs.push_back(10000.0 + rng.next_double() * 500.0);
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(fit_gumbel(block_maxima(xs, 3)));
    }
}
BENCHMARK(BM_GumbelFitOnCampaign);

}  // namespace

RRBENCH_MAIN(print_figure)
