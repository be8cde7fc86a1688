// Telemetry layer: counter merge law, span nesting, run-report schema,
// and — the load-bearing property — bit-identical campaign output with
// telemetry on or off.
#include "obs/telemetry.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cli/cli.h"
#include "core/session.h"
#include "engine/progress.h"
#include "kernels/autobench.h"
#include "obs/heartbeat.h"
#include "obs/report.h"
#include "stats/checkpoint.h"

namespace rrb::obs {
namespace {

/// Arms the registry from a clean slate and disarms on scope exit, so
/// every test reads only its own campaign and no state leaks into the
/// next test whatever order gtest runs them in.
struct ScopedTelemetry {
    ScopedTelemetry() {
        TelemetryRegistry::instance().reset();
        TelemetryRegistry::instance().enable();
    }
    ~ScopedTelemetry() { TelemetryRegistry::instance().disable(); }
};

struct CliResult {
    int code;
    std::string out;
    std::string err;
};

CliResult invoke(std::vector<std::string> args) {
    std::ostringstream out;
    std::ostringstream err;
    const int code = cli::run(args, out, err);
    return {code, out.str(), err.str()};
}

std::string slurp(const std::string& path) {
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/// Naive single-key JSON number lookup, enough for the flat keys the
/// run-report schema uses.
std::uint64_t json_number(const std::string& text, const std::string& key) {
    const std::string needle = "\"" + key + "\": ";
    const std::size_t at = text.find(needle);
    if (at == std::string::npos) return std::uint64_t(-1);
    return std::strtoull(text.c_str() + at + needle.size(), nullptr, 10);
}

TEST(Telemetry, DisabledCountsNothing) {
    TelemetryRegistry::instance().reset();
    TelemetryRegistry::instance().disable();
    count(kRunsCompleted, 7);
    EXPECT_EQ(TelemetryRegistry::instance().counters()[kRunsCompleted],
              0u);
}

TEST(Telemetry, CountersSumAcrossThreads) {
    const ScopedTelemetry scoped;
    count(kRunsCompleted, 5);
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([] {
            for (int i = 0; i < 100; ++i) count(kRunsCompleted);
        });
    }
    for (std::thread& t : threads) t.join();
    // Each thread bumped its own block; the read-side merge sums them.
    EXPECT_EQ(TelemetryRegistry::instance().counters()[kRunsCompleted],
              405u);
    EXPECT_GE(TelemetryRegistry::instance().worker_blocks(), 1u);
}

TEST(Telemetry, SnapshotDeltaSaturates) {
    CounterSnapshot earlier;
    earlier.values[kRunsCompleted] = 10;
    CounterSnapshot later;
    later.values[kRunsCompleted] = 4;  // reset happened in between
    later.values[kCyclesSimulated] = 9;
    const CounterSnapshot delta = later.delta_since(earlier);
    EXPECT_EQ(delta[kRunsCompleted], 0u);
    EXPECT_EQ(delta[kCyclesSimulated], 9u);
}

TEST(Telemetry, SpansNestAcrossThreads) {
    const ScopedTelemetry scoped;
    std::uint64_t child_id = 0;
    {
        const Span parent("campaign", 0, 100);
        EXPECT_EQ(current_span(), parent.id());
        // A worker parents its span on the id the submitter captured.
        const std::uint64_t captured = current_span();
        std::thread worker([&] {
            const Span child("shard", captured, 3, 25);
            child_id = child.id();
        });
        worker.join();
        EXPECT_EQ(current_span(), parent.id());
    }
    EXPECT_EQ(current_span(), 0u);
    const std::vector<SpanRecord> spans =
        TelemetryRegistry::instance().spans();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans[0].parent, 0u);
    EXPECT_EQ(spans[1].id, child_id);
    EXPECT_EQ(spans[1].parent, spans[0].id);
    EXPECT_EQ(spans[1].index, 3u);
    EXPECT_EQ(spans[1].items, 25u);
    for (const SpanRecord& s : spans) {
        EXPECT_NE(s.end_ns, 0u) << s.name;
        EXPECT_GE(s.end_ns, s.begin_ns) << s.name;
    }
}

// The merge law: counters that describe *what work ran* — as opposed to
// when — are identical at every --jobs value, exactly like the campaign
// results they ride along with.
TEST(Telemetry, DeterministicCountersObeyTheMergeLaw) {
    const std::vector<Counter> deterministic = {
        kRunsCompleted,        kCyclesSimulated,     kEventsSkipped,
        kCyclesSkipped,        kBusOnlySteps,        kStepsScuaCompletion,
        kStepsScuaTick,        kStepsDramEvent,      kStepsContender,
        kStepsArbitration,     kPeriodsFastForwarded, kCyclesFastForwarded,
        kShardsCompleted,      kReplayRuns,          kReplayFallbackRuns};
    CounterSnapshot at_one;
    {
        const ScopedTelemetry scoped;
        const CliResult r = invoke(
            {"pwcet", "--runs", "400", "--jobs", "1", "--seed", "7"});
        ASSERT_EQ(r.code, 0) << r.err;
        at_one = TelemetryRegistry::instance().counters();
    }
    CounterSnapshot at_four;
    {
        const ScopedTelemetry scoped;
        const CliResult r = invoke(
            {"pwcet", "--runs", "400", "--jobs", "4", "--seed", "7"});
        ASSERT_EQ(r.code, 0) << r.err;
        at_four = TelemetryRegistry::instance().counters();
    }
    EXPECT_EQ(at_one[kRunsCompleted], 400u);
    for (const Counter c : deterministic) {
        EXPECT_EQ(at_one[c], at_four[c]) << counter_name(c);
    }
    EXPECT_GT(at_one[kCyclesSimulated], 0u);
    // The default scenario's schedule turns periodic within a few of the
    // scua's 40 loop bodies: the steady-state fast-forward skips most of
    // the rest (about 27 periods per run).
    EXPECT_GT(at_one[kPeriodsFastForwarded], 10u * at_one[kRunsCompleted]);
    // Every cycle of a run — its finish cycle plus the cycle it finishes
    // in — is a step of one kind, a bus-only step, a skipped cycle or a
    // fast-forwarded one.
    for (const CounterSnapshot& at : {at_one, at_four}) {
        EXPECT_EQ(at[kStepsScuaCompletion] + at[kStepsScuaTick] +
                      at[kStepsDramEvent] + at[kStepsContender] +
                      at[kStepsArbitration] + at[kBusOnlySteps] +
                      at[kCyclesSkipped] + at[kCyclesFastForwarded],
                  at[kCyclesSimulated] + at[kRunsCompleted]);
    }
}

TEST(Telemetry, CampaignSpansFormTheHierarchy) {
    const ScopedTelemetry scoped;
    const CliResult r =
        invoke({"pwcet", "--runs", "400", "--jobs", "2"});
    ASSERT_EQ(r.code, 0) << r.err;
    const std::vector<SpanRecord> spans =
        TelemetryRegistry::instance().spans();
    std::uint64_t session_id = 0;
    std::uint64_t campaign_id = 0;
    std::uint64_t campaign_parent = 0;
    std::uint64_t shard_count = 0;
    std::uint64_t shard_items = 0;
    for (const SpanRecord& s : spans) {
        if (std::string(s.name) == "session.pwcet") session_id = s.id;
        if (std::string(s.name) == "campaign") {
            campaign_id = s.id;
            campaign_parent = s.parent;
        }
    }
    ASSERT_NE(session_id, 0u);
    ASSERT_NE(campaign_id, 0u);
    // shard -> campaign -> session.pwcet: the standalone pwcet is a
    // scheduler batch of one.
    EXPECT_EQ(campaign_parent, session_id);
    for (const SpanRecord& s : spans) {
        if (std::string(s.name) != "shard") continue;
        ++shard_count;
        shard_items += s.items;
        EXPECT_EQ(s.parent, campaign_id);
        EXPECT_NE(s.end_ns, 0u);
    }
    // 400 runs fall below the 256-shard target: one run per shard.
    EXPECT_EQ(shard_count,
              TelemetryRegistry::instance().counters()[kShardsCompleted]);
    EXPECT_EQ(shard_items, 400u);
}

TEST(Telemetry, ResumeFoldsEveryGapInOneCampaign) {
    // Slices 1 and 3 of 4 on disk leave two gaps. Resume folds both in
    // one scheduler campaign, so the isolation baseline is measured once.
    const Scenario scenario =
        Scenario::on(MachineConfig::ngmp_ref())
            .scua(make_autobench(Autobench::kCacheb, 0x0100'0000, 10, 9))
            .rsk_contenders(OpKind::kLoad)
            .runs(40)
            .seed(3);
    PwcetSpec spec;
    spec.block_size = 5;
    const PwcetCampaignResult whole = Session().pwcet(scenario, spec);
    std::vector<std::string> paths;
    for (const std::size_t slice : {std::size_t{1}, std::size_t{3}}) {
        paths.push_back(testing::TempDir() + "rrb_resume_gap_" +
                        std::to_string(slice));
        (void)Session().checkpoint(scenario, spec, {slice, 4}, paths.back());
    }

    const ScopedTelemetry scoped;
    Session session;
    session.jobs(2);
    const PwcetCampaignResult resumed = session.resume(scenario, spec, paths);
    EXPECT_EQ(resumed.high_water_mark, whole.high_water_mark);
    EXPECT_EQ(resumed.mean, whole.mean);

    std::uint64_t resume_id = 0;
    std::uint64_t campaigns = 0;
    std::uint64_t campaign_parent = 0;
    std::uint64_t isolations = 0;
    std::uint64_t shard_items = 0;
    for (const SpanRecord& s : TelemetryRegistry::instance().spans()) {
        const std::string name = s.name;
        if (name == "session.resume") resume_id = s.id;
        if (name == "campaign") {
            ++campaigns;
            campaign_parent = s.parent;
        }
        if (name == "isolation") ++isolations;
        if (name == "shard") shard_items += s.items;
    }
    ASSERT_NE(resume_id, 0u);
    EXPECT_EQ(campaigns, 1u);
    EXPECT_EQ(campaign_parent, resume_id);
    EXPECT_EQ(isolations, 1u);
    EXPECT_EQ(shard_items, 20u);  // slices 0 and 2: half of the 40 runs
    for (const std::string& path : paths) std::remove(path.c_str());
}

TEST(Telemetry, RunReportSchemaRoundTrips) {
    RunReportInfo info;
    info.command = "pwcet";
    info.campaign.scenario_fingerprint = 0xfeed;
    info.campaign.seed = 42;
    info.campaign.total_runs = 1000;
    info.campaign.block_size = 50;
    info.campaign.shard_size = 4;
    info.campaign.plan_shards = 250;
    info.campaign.first_run = 0;
    info.campaign.last_run = 1000;
    info.jobs = 4;
    info.wall_ns = 2'000'000'000;  // 2 s
    CounterSnapshot counters;
    counters.values[kRunsCompleted] = 1000;
    counters.values[kLeaseHits] = 996;
    counters.values[kLeaseMisses] = 4;
    counters.values[kEventsSkipped] = 3000;
    std::vector<SpanRecord> spans;
    spans.push_back({1, 0, "session.pwcet", 0, 1000, 10, 20});

    const std::string text = render_run_report(info, counters, spans);
    EXPECT_NE(text.find("\"schema\": \"rrb-telemetry\""),
              std::string::npos);
    EXPECT_EQ(json_number(text, "version"), kRunReportSchemaVersion);
    EXPECT_EQ(json_number(text, "scenario_fingerprint"), 0xfeedu);
    EXPECT_EQ(json_number(text, "runs_completed"), 1000u);
    EXPECT_NE(text.find("\"runs_per_sec\": 500.000000"),
              std::string::npos);
    EXPECT_NE(text.find("\"lease_hit_rate\": 0.996000"),
              std::string::npos);
    EXPECT_NE(text.find("\"name\": \"session.pwcet\""),
              std::string::npos);

    // File form round-trips byte-exactly.
    const std::string path = "telemetry_roundtrip.json";
    ASSERT_TRUE(write_run_report(path, info, counters, spans));
    EXPECT_EQ(slurp(path), text);
    std::remove(path.c_str());
}

TEST(Telemetry, RunReportRendersTheCheckpointMetaSlice) {
    // A shard's report carries its slice of the campaign straight from
    // the checkpoint's metadata.
    RunReportInfo info;
    info.command = "pwcet";
    info.campaign.scenario_fingerprint = 0xabc;
    info.campaign.seed = 9;
    info.campaign.total_runs = 2000;
    info.campaign.block_size = 50;
    info.campaign.shard_size = 8;
    info.campaign.plan_shards = 250;
    info.campaign.slice_index = 1;
    info.campaign.slice_count = 4;
    info.campaign.first_run = 500;
    info.campaign.last_run = 1000;
    const std::string text = render_run_report(info, {}, {});
    EXPECT_NE(text.find("  \"campaign\": {\n"
                        "    \"scenario_fingerprint\": 2748,\n"
                        "    \"seed\": 9,\n"
                        "    \"total_runs\": 2000,\n"
                        "    \"block_size\": 50,\n"
                        "    \"shard_size\": 8,\n"
                        "    \"plan_shards\": 250,\n"
                        "    \"first_run\": 500,\n"
                        "    \"last_run\": 1000,\n"
                        "    \"slice_index\": 1,\n"
                        "    \"slice_count\": 4\n"
                        "  },\n"),
              std::string::npos)
        << text;
}

// The acceptance-criteria invocation: a sharded pwcet run with
// --telemetry produces a schema-versioned report carrying the shard's
// run range, wall time and the engine counters.
TEST(Telemetry, CliWritesAShardRunReport) {
    const std::string report_path = "telemetry_shard.json";
    const std::string ckpt_path = "telemetry_shard.ckpt";
    const CliResult r = invoke({"pwcet", "--runs", "1000", "--shard",
                                "1/4", "--checkpoint-out", ckpt_path,
                                "--telemetry", report_path});
    ASSERT_EQ(r.code, 0) << r.err;
    const std::string text = slurp(report_path);
    EXPECT_NE(text.find("\"schema\": \"rrb-telemetry\""),
              std::string::npos);
    EXPECT_NE(text.find("\"command\": \"pwcet\""), std::string::npos);
    EXPECT_EQ(json_number(text, "total_runs"), 1000u);
    EXPECT_EQ(json_number(text, "slice_index"), 1u);
    EXPECT_EQ(json_number(text, "slice_count"), 4u);
    // 1000 runs shard at size 4 into 250 plan shards; slice 1/4 takes
    // shards [62, 125) — runs [248, 500).
    EXPECT_EQ(json_number(text, "first_run"), 248u);
    EXPECT_EQ(json_number(text, "last_run"), 500u);
    EXPECT_EQ(json_number(text, "runs_completed"), 252u);
    EXPECT_GT(json_number(text, "wall_ns"), 0u);
    EXPECT_GT(json_number(text, "shard_wall_ns"), 0u);
    EXPECT_NE(text.find("\"name\": \"shard\""), std::string::npos);
    // The registry is disarmed once the command finishes.
    EXPECT_FALSE(enabled());
    std::remove(report_path.c_str());
    std::remove(ckpt_path.c_str());
}

// The whole point of "out-of-band": the campaign's report on stdout is
// byte-identical whether telemetry observed it or not.
TEST(Telemetry, CampaignOutputIsBitIdenticalWithTelemetryOnOrOff) {
    const std::string report_path = "telemetry_identity.json";
    const CliResult off =
        invoke({"pwcet", "--runs", "400", "--jobs", "2", "--seed", "3"});
    const CliResult on =
        invoke({"pwcet", "--runs", "400", "--jobs", "2", "--seed", "3",
                "--telemetry", report_path});
    EXPECT_EQ(off.code, on.code);
    EXPECT_EQ(off.out, on.out);

    const CliResult wb_off = invoke({"whitebox", "--runs", "60"});
    const CliResult wb_on =
        invoke({"whitebox", "--runs", "60", "--telemetry", report_path});
    EXPECT_EQ(wb_off.code, wb_on.code);
    EXPECT_EQ(wb_off.out, wb_on.out);
    std::remove(report_path.c_str());
}

TEST(Telemetry, SpansCloseWhenACampaignThrowsMidShard) {
    const ScopedTelemetry scoped;
    // An empty-body contender passes the scenario's up-front checks
    // (emptiness of the *list* is all validate() can decide) but throws
    // std::invalid_argument when a shard worker installs it for its
    // first run — after the session and shard spans have opened.
    Program empty;
    const Scenario scenario =
        Scenario::on(MachineConfig::ngmp_ref())
            .scua(make_autobench(Autobench::kCacheb, 0x0100'0000, 8, 9))
            .contenders({empty})
            .runs(32);
    Session session;
    session.jobs(2);
    EXPECT_THROW((void)session.hwm(scenario), std::invalid_argument);
    // Stack unwinding must close every span: an open record would
    // export as a zero-length sliver in the Chrome trace, and a stale
    // thread-local parent would corrupt the next campaign's hierarchy.
    EXPECT_EQ(current_span(), 0u);
    const std::vector<SpanRecord> spans =
        TelemetryRegistry::instance().spans();
    EXPECT_FALSE(spans.empty());
    for (const SpanRecord& s : spans) {
        EXPECT_NE(s.end_ns, 0u) << s.name;
        EXPECT_GE(s.end_ns, s.begin_ns) << s.name;
    }
}

TEST(Telemetry, ProgressRenderClampsOvershoot) {
    engine::ProgressCounter progress;
    progress.begin(10);
    for (int i = 0; i < 12; ++i) progress.tick();
    // A sample taken while the counter is re-announced can pair the old
    // count with the new total; the rendered line never overshoots it.
    EXPECT_EQ(engine::render_progress(progress), "10/10 (100%)");
}

TEST(Telemetry, HeartbeatMeterRendersRateAndEta) {
    engine::ProgressCounter progress;
    progress.begin(100);
    HeartbeatMeter meter(2);
    // The window is primed at construction; sampling immediately with
    // no ticks still reads rate 0, eta 0.
    EXPECT_NE(meter.sample(progress).find("0/100 (0%) | 0 runs/s"),
              std::string::npos);
    for (int i = 0; i < 50; ++i) progress.tick();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const std::string line = meter.sample(progress);
    EXPECT_NE(line.find("50/100 (50%)"), std::string::npos);
    EXPECT_NE(line.find("runs/s"), std::string::npos);
    EXPECT_NE(line.find("eta"), std::string::npos);
    // Overshoot: remaining work clamps to zero, never negative.
    for (int i = 0; i < 60; ++i) progress.tick();
    EXPECT_NE(meter.sample(progress).find("| eta 0s"),
              std::string::npos);
}

TEST(Telemetry, HeartbeatFlagEmitsPulseLines) {
    // A 1-second pulse on a sub-second campaign may print nothing —
    // only the flag plumbing (accepted, no crash, clean exit) is
    // asserted here; the cadence itself is timing and stays untested.
    const CliResult r = invoke(
        {"campaign", "--runs", "40", "--heartbeat", "1"});
    EXPECT_EQ(r.code, 0) << r.err;
    EXPECT_FALSE(enabled());
}

}  // namespace
}  // namespace rrb::obs
