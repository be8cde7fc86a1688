#include "e2e.h"

#include <sys/resource.h>
#include <time.h>

#include <exception>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <thread>

#include "core/analytic.h"
#include "core/calibrate.h"
#include "core/campaign.h"
#include "engine/thread_pool.h"
#include "obs/telemetry.h"
#include "sched/batch_spec.h"
#include "stats/checkpoint.h"

namespace rrbbench {

namespace {

namespace fs = std::filesystem;

/// Chunk times per sample series, e.g. "pwcet-j1" or "estimate-c8".
using Samples = std::map<std::string, std::vector<double>>;

/// One kind of timed command in the mix. `run` executes one chunk with
/// the given campaign seed, appends its CPU time to the samples and
/// records the chunk's output check.
struct Probe {
    Workload owner;
    /// Chunks per round, on average, in another workload's run: two for
    /// the short single-thread commands (pwcet --jobs 1, attribution),
    /// whose quartiles need the samples; one every fourth round for the
    /// farm, the longest chunk, whose 256 slices are samples enough.
    double guest_chunks;
    std::function<void(std::uint64_t seed, Samples&, Ledger&)> run;
    std::uint64_t chunks = 0;
};

constexpr int kSetups = 15;  // set-up repetitions per run
constexpr int kRounds = 8;

std::string str(std::uint64_t v) { return std::to_string(v); }

/// The held-out seed every output check is repeated under.
std::uint64_t held_out_seed(std::uint64_t seed) {
    return derive_seed(seed, 0x686f6c646f7574ULL, 0);
}

/// CPU seconds used by every thread of this process so far.
double process_cpu_s() {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// CPU time of one call, all threads included. Every command is timed
/// this way, not by wall clock: on a host whose cores other tenants
/// share, a thread spends a varying share of its time runnable but not
/// running, and fsync waits are set by the same tenants. Over 20
/// repeats of one command the wall time's quartiles spread by 17-32% of
/// the median, its CPU time's by 4-8%.
template <typename Call>
double cpu_time(Call&& call) {
    const double start = process_cpu_s();
    call();
    return process_cpu_s() - start;
}

/// The estimator of every timed metric: the upper quartile of a
/// series' chunk CPU times. On a host whose cores other tenants share,
/// chunk times are bimodal: most run at one speed, and a share that
/// changes from minute to minute runs up to 1.5x faster, when the
/// tenants leave the core's shared resources idle. The median flips
/// between the two modes as that share nears a half; the upper quartile
/// stays on the common one. Over 12 runs of all four workloads, the
/// spread of a series' upper quartile between runs was 5-12% of its
/// value, that of its median 6-20%.
double typical(const std::vector<double>& series) {
    return quantile(series, 0.75);
}

double timed_cli(const std::vector<std::string>& args, int* code,
                 std::string* out = nullptr) {
    return cpu_time([&] { *code = run_cli(args, out); });
}

/// Equation 1 for the platform an estimate config builds.
rrb::Cycle eq1(const EstimateConfig& cfg) {
    const rrb::MachineConfig config = cfg.config();
    return rrb::ubd_eq1(config.num_cores, config.load_hit_service());
}

/// The measured ubd of an `rrbtool estimate` report ("ubd = N cycles
/// ..."), or 0 when the report has none.
rrb::Cycle reported_ubd(const std::string& report) {
    const std::string key = "ubd = ";
    if (report.rfind(key, 0) != 0) return 0;
    return std::stoull(report.substr(key.size()));
}

/// True when the batch table has one row per scenario, each ending in
/// the `ok` status.
bool batch_rows_ok(const std::string& report) {
    std::istringstream in(report);
    std::string line;
    std::size_t ok_rows = 0;
    while (std::getline(in, line)) {
        if (line.size() > 3 && line.compare(line.size() - 3, 3, " ok") == 0) {
            ++ok_rows;
        }
    }
    return ok_rows == kBatchScenarios;
}

/// Part (b) of batch-farm: a campaign run as kFarmSlices checkpointed
/// `pwcet --shard` slices, one `merge` of all of them, then Session
/// resume after every kFarmDeleteEvery-th slice file is lost.
struct FarmOutcome {
    bool commands_ok = true;
    std::string merge_report;
    std::optional<rrb::MergedPwcetCampaign> merged;  ///< `deep` only
    rrb::PwcetCampaignResult resumed;
    std::vector<double> slice_cpu_s;  ///< per slice command
    double merge_cpu_s = 0.0;
    double resume_cpu_s = 0.0;
};

FarmOutcome run_farm(std::uint64_t seed, std::size_t runs,
                     const fs::path& dir, bool deep) {
    FarmOutcome out;
    std::vector<std::string> paths;
    for (std::size_t i = 0; i < kFarmSlices; ++i) {
        paths.push_back((dir / ("slice-" + str(i) + ".ckpt")).string());
        out.slice_cpu_s.push_back(cpu_time([&] {
            out.commands_ok &=
                run_cli({"pwcet", "--runs", str(runs), "--seed",
                         str(seed), "--jobs", "1", "--shard",
                         str(i) + "/" + str(kFarmSlices), "--checkpoint-out",
                         paths.back()}) == 0;
        }));
    }
    std::vector<std::string> merge_args = {"merge"};
    merge_args.insert(merge_args.end(), paths.begin(), paths.end());
    out.merge_cpu_s = cpu_time([&] {
        out.commands_ok &= run_cli(merge_args, &out.merge_report) == 0;
    });

    if (deep) out.merged = rrb::Session().merge(paths);

    std::vector<std::string> kept;
    for (std::size_t i = 0; i < paths.size(); ++i) {
        if ((i + 1) % kFarmDeleteEvery == 0) {
            fs::remove(paths[i]);
        } else {
            kept.push_back(paths[i]);
        }
    }
    out.resume_cpu_s = cpu_time([&] {
        rrb::Session session;
        session.jobs(full_width());
        out.resumed = session.resume(cli_scenario(40, runs, seed),
                                     rrb::PwcetSpec{}, kept);
    });
    return out;
}

std::vector<Probe> make_probes(const Workspace& workspace) {
    const std::string width = str(full_width());
    std::vector<Probe> probes;
    probes.push_back({Workload::kPwcetStream, 2.0,
                      [](std::uint64_t seed, Samples& samples, Ledger& ledger) {
                          int code = 0;
                          samples["pwcet-j1"].push_back(timed_cli(
                              {"pwcet", "--runs", str(kPwcetJ1Runs), "--jobs",
                               "1", "--seed", str(seed)},
                              &code));
                          ledger.record(code == 0, "pwcet --jobs 1 exit code");
                      }});
    probes.push_back({Workload::kPwcetStream, 1.0,
                      [width](std::uint64_t seed, Samples& samples,
                              Ledger& ledger) {
                          int code = 0;
                          samples["pwcet-jN"].push_back(timed_cli(
                              {"pwcet", "--runs", str(kPwcetJNRuns), "--jobs",
                               width, "--seed", str(seed)},
                              &code));
                          ledger.record(code == 0, "pwcet --jobs N exit code");
                      }});
    probes.push_back(
        {Workload::kEstimateGrid, 1.0,
         [](std::uint64_t, Samples& samples, Ledger& ledger) {
             for (const EstimateConfig& cfg : estimate_grid()) {
                 int code = 0;
                 std::string report;
                 samples["estimate-" + cfg.name].push_back(
                     timed_cli(cfg.cli_args(), &code, &report));
                 ledger.record(code == 0 && reported_ubd(report) == eq1(cfg),
                               "estimate " + cfg.name + ": ubd == ubd_eq1");
             }
         }});
    probes.push_back(
        {Workload::kBatchFarm, 1.0,
         [&workspace, width](std::uint64_t seed, Samples& samples,
                             Ledger& ledger) {
             // Two commands per chunk: one batch is short and
             // multi-threaded, so it needs more samples than the rest.
             for (std::uint64_t i = 0; i < 2; ++i) {
                 const fs::path spec = workspace.root() / "batch.ini";
                 std::ofstream(spec) << batch_spec(derive_seed(seed, 4, i));
                 const fs::path out_dir = workspace.fresh("batch-out");
                 int code = 0;
                 std::string report;
                 samples["batch"].push_back(
                     timed_cli({"batch", spec.string(), "--out-dir",
                                out_dir.string(), "--jobs", width},
                               &code, &report));
                 ledger.record(code == 0 && batch_rows_ok(report),
                               "batch: exit 0, every scenario ok");
             }
         }});
    probes.push_back(
        {Workload::kBatchFarm, 0.25,
         [&workspace](std::uint64_t seed, Samples& samples, Ledger& ledger) {
             try {
                 const FarmOutcome farm = run_farm(
                     seed, kFarmRuns, workspace.fresh("farm"), false);
                 std::vector<double>& slices = samples["farm-slice"];
                 slices.insert(slices.end(), farm.slice_cpu_s.begin(),
                               farm.slice_cpu_s.end());
                 samples["farm-merge"].push_back(farm.merge_cpu_s);
                 samples["farm-resume"].push_back(farm.resume_cpu_s);
                 ledger.record(farm.commands_ok &&
                                   farm.resumed.runs == kFarmRuns,
                               "farm: slices, merge and resume complete");
             } catch (const std::exception& e) {
                 ledger.record(false, std::string("farm: ") + e.what());
             }
         }});
    probes.push_back({Workload::kAttribution, 2.0,
                      [](std::uint64_t seed, Samples& samples, Ledger& ledger) {
                          int code = 0;
                          samples["attribution"].push_back(timed_cli(
                              {"attribution", "--iterations",
                               str(kAttributionIterations), "--jobs", "1",
                               "--runs", str(kAttributionRuns), "--seed",
                               str(seed)},
                              &code));
                          ledger.record(code == 0, "attribution exit code");
                      }});
    return probes;
}

/// One set-up, in CPU time, run on a fresh thread so its machine caches
/// start cold: the scenarios, batch spec and estimate configs every command
/// of the mix needs, a worker pool, and one warm-up run per campaign
/// config (machine construction, program load, script decode) plus the
/// delta_nop calibration each estimate config starts with.
double setup_once(std::uint64_t seed) {
    double elapsed = 0.0;
    std::exception_ptr error;
    std::thread worker([&] {
        try {
            const double start = process_cpu_s();
            std::vector<rrb::Scenario> scenarios = {
                cli_scenario(40, kPwcetJ1Runs, seed),
                cli_scenario(kAttributionIterations, kAttributionRuns, seed),
                cli_scenario(40, kFarmRuns, seed)};
            for (const rrb::BatchItem& item :
                 rrb::sched::parse_batch_spec(batch_spec(seed))) {
                scenarios.push_back(item.scenario);
            }
            const rrb::engine::ThreadPool pool(full_width());
            for (const rrb::Scenario& s : scenarios) {
                static_cast<void>(rrb::detail::hwm_campaign_run(
                    s.config(), s.scua_program(), s.contender_programs(),
                    s.run_protocol(), 0));
            }
            for (const EstimateConfig& cfg : estimate_grid()) {
                static_cast<void>(rrb::calibrate_delta_nop(cfg.config()));
            }
            elapsed = process_cpu_s() - start;
        } catch (...) {
            error = std::current_exception();
        }
    });
    worker.join();
    if (error) std::rethrow_exception(error);
    return elapsed;
}

void check_pwcet(std::uint64_t seed, const std::string& tag, Ledger& ledger) {
    std::string j1;
    std::string jn;
    const int c1 = run_cli({"pwcet", "--runs", str(kPwcetJ1Runs), "--jobs",
                            "1", "--seed", str(seed)},
                           &j1);
    const int cn = run_cli({"pwcet", "--runs", str(kPwcetJ1Runs), "--jobs",
                            str(full_width()), "--seed", str(seed)},
                           &jn);
    ledger.record(c1 == 0 && cn == 0 && !from_line_two(j1).empty() &&
                      from_line_two(j1) == from_line_two(jn),
                  "pwcet report identical at --jobs 1 and --jobs N" + tag);
}

void check_estimate(std::uint64_t seed, const std::string& tag,
                    Ledger& ledger) {
    const EstimateConfig cfg = drawn_estimate_config(seed);
    std::string report;
    const int code = run_cli(cfg.cli_args(), &report);
    ledger.record(code == 0 && reported_ubd(report) == eq1(cfg),
                  "estimate --cores " + str(*cfg.cores) + " --lbus " +
                      str(*cfg.lbus) + ": ubd == ubd_eq1" + tag);
}

void check_batch(std::uint64_t seed, const std::string& tag, Ledger& ledger) {
    namespace obs = rrb::obs;
    try {
        const std::vector<rrb::BatchItem> items =
            rrb::sched::parse_batch_spec(batch_spec(seed));
        rrb::BatchResult result;
        obs::CounterSnapshot d;
        {
            const TelemetryOn telemetry;
            const obs::CounterSnapshot before =
                obs::TelemetryRegistry::instance().counters();
            rrb::Session session;
            session.jobs(full_width());
            result = session.batch(items);
            d = obs::TelemetryRegistry::instance().counters().delta_since(
                before);
        }
        bool all_ok = result.points.size() == items.size();
        for (const rrb::BatchPointResult& point : result.points) {
            all_ok = all_ok && point.ok;
        }
        ledger.record(all_ok, "batch: every scenario ok" + tag);
        ledger.record(d[obs::kSchedDispatches] > 0 &&
                          d[obs::kSchedAffinityHits] + d[obs::kSchedSteals] ==
                              d[obs::kSchedDispatches] &&
                          d[obs::kSchedDispatches] ==
                              d[obs::kSchedItemsEnqueued],
                      "batch: hits + steals == dispatches == enqueued" + tag);
    } catch (const std::exception& e) {
        ledger.record(false, std::string("batch: ") + e.what() + tag);
    }
}

void check_farm(std::uint64_t seed, const std::string& tag,
                const Workspace& workspace, Ledger& ledger) {
    // Slicing must not change any result, at any campaign size; a quarter
    // of the timed farm's runs keeps the checks short.
    constexpr std::size_t kRuns = kFarmRuns / 4;
    try {
        const FarmOutcome farm =
            run_farm(seed, kRuns, workspace.fresh("farm-check"), true);
        std::string whole_report;
        const int code =
            run_cli({"pwcet", "--runs", str(kRuns), "--seed", str(seed)},
                    &whole_report);
        ledger.record(farm.commands_ok && code == 0 &&
                          from_line_two(farm.merge_report) ==
                              from_line_two(whole_report),
                      "farm: merge report == whole pwcet report" + tag);
        rrb::Session session;
        session.jobs(full_width());
        const rrb::PwcetCampaignResult whole =
            session.pwcet(cli_scenario(40, kRuns, seed));
        ledger.record(farm.merged.has_value() &&
                          same_bits(farm.merged->result, whole) &&
                          same_bits(farm.resumed, whole),
                      "farm: merged == resumed == whole, bit for bit" + tag);
    } catch (const std::exception& e) {
        ledger.record(false, std::string("farm: ") + e.what() + tag);
    }
}

void check_attribution(std::uint64_t seed, const std::string& tag,
                       Ledger& ledger) {
    try {
        constexpr std::size_t kRuns = 200;
        const rrb::Scenario s =
            cli_scenario(kAttributionIterations, kRuns, seed);
        rrb::Session session;
        session.jobs(full_width());
        const rrb::engine::AttributionCampaignResult r = session.attribution(s);
        const rrb::AttributionAccumulator& acc = r.attribution;
        bool closed = acc.runs() == kRuns && acc.machine_cycles() > 0;
        for (rrb::CoreId c = 0; c < acc.num_cores(); ++c) {
            closed = closed && acc.core_total(c) == acc.machine_cycles();
        }
        ledger.record(closed, "attribution: accounting closed" + tag);

        const std::vector<rrb::Program> contenders = s.contender_programs();
        rrb::AttributionAccumulator armed_acc;
        bool same = true;
        for (std::uint64_t k = 0; k < 16; ++k) {
            const std::uint64_t run = derive_seed(seed, 7, k) % 10000;
            const rrb::Cycle unarmed = rrb::detail::hwm_campaign_run(
                s.config(), s.scua_program(), contenders, s.run_protocol(),
                run);
            const rrb::Cycle armed = rrb::detail::hwm_campaign_attribute(
                s.config(), s.scua_program(), contenders, s.run_protocol(),
                run, armed_acc);
            same = same && armed == unarmed;
        }
        ledger.record(same,
                      "attribution: armed == unarmed finish cycles on 16 "
                      "sampled runs" +
                          tag);
    } catch (const std::exception& e) {
        ledger.record(false, std::string("attribution: ") + e.what() + tag);
    }
}

}  // namespace

void run_checks(std::uint64_t seed, const Workspace& workspace,
                Ledger& ledger) {
    const std::string tag = " [seed " + str(seed) + "]";
    check_pwcet(seed, tag, ledger);
    check_estimate(seed, tag, ledger);
    check_batch(seed, tag, ledger);
    check_farm(seed, tag, workspace, ledger);
    check_attribution(seed, tag, ledger);
}

void run_end_to_end(Workload workload, std::uint64_t seed, double seconds,
                    const Workspace& workspace, Ledger& ledger) {
    std::vector<double> setups;
    for (int i = 0; i < kSetups; ++i) setups.push_back(setup_once(seed));

    // The mix: each round runs every other workload's probe its
    // guest_chunks times (a fraction spreads over rounds), then this
    // workload's own probes in turn until the round's share of `seconds`
    // is used up, so own metrics get most of the samples. One own chunk
    // at a time, so that a round whose guests overran its share ends
    // after one own chunk, not after one of each (the farm's is 2 s).
    std::vector<Probe> probes = make_probes(workspace);
    std::vector<std::size_t> own;
    for (std::size_t i = 0; i < probes.size(); ++i) {
        if (probes[i].owner == workload) own.push_back(i);
    }
    Samples samples;
    const auto step = [&](std::size_t index) {
        Probe& probe = probes[index];
        probe.run(derive_seed(seed, 100 + index, probe.chunks++), samples,
                  ledger);
    };
    std::size_t turn = 0;
    const auto start = Clock::now();
    for (int round = 0; round < kRounds; ++round) {
        const double deadline = seconds * (round + 1) / kRounds;
        for (std::size_t i = 0; i < probes.size(); ++i) {
            if (probes[i].owner == workload) continue;
            const double rate = probes[i].guest_chunks;
            const int due = static_cast<int>((round + 1) * rate) -
                            static_cast<int>(round * rate);
            for (int k = 0; k < due; ++k) step(i);
        }
        do {
            step(own[turn++ % own.size()]);
        } while (seconds_since(start) < deadline);
    }
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);

    run_checks(seed, workspace, ledger);
    run_checks(held_out_seed(seed), workspace, ledger);

    double estimate_s = 0.0;
    for (const EstimateConfig& cfg : estimate_grid()) {
        estimate_s += typical(samples["estimate-" + cfg.name]);
    }
    ledger.metric("setup_s", typical(setups), "s");
    ledger.metric("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0,
                  "MB");
    ledger.metric("pwcet_runs_per_s_j1",
                  kPwcetJ1Runs / typical(samples["pwcet-j1"]), "1/s");
    ledger.metric("pwcet_runs_per_s_jN",
                  kPwcetJNRuns / typical(samples["pwcet-jN"]), "1/s");
    ledger.metric("estimate_grid_s", estimate_s, "s");
    ledger.metric("batch_runs_per_s",
                  kBatchScenarios * kBatchRunsPerScenario /
                      typical(samples["batch"]),
                  "1/s");
    // The round trip is 256 slice commands, one merge and one resume;
    // the slice term uses every slice timed in the run, which one slow
    // slice cannot move.
    ledger.metric("farm_s",
                  kFarmSlices * typical(samples["farm-slice"]) +
                      typical(samples["farm-merge"]) +
                      typical(samples["farm-resume"]),
                  "s");
    ledger.metric("attribution_runs_per_s",
                  kAttributionRuns / typical(samples["attribution"]), "1/s");
    for (const auto& [name, series] : samples) {
        std::cerr << "rrbbench: " << name << ": " << series.size()
                  << " chunks, q1 " << quantile(series, 0.25) << " s, median "
                  << median(series) << " s, q3 " << quantile(series, 0.75)
                  << " s\n";
    }
}

}  // namespace rrbbench
