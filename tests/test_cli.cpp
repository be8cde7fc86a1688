#include "cli/cli.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <regex>
#include <sstream>

#include "core/session.h"
#include "engine/machine_lease.h"
#include "fault/fault.h"
#include "sched/batch_spec.h"
#include "stats/checkpoint.h"

namespace rrb::cli {
namespace {

struct CliResult {
    int code;
    std::string out;
    std::string err;
};

CliResult invoke(std::vector<std::string> args) {
    std::ostringstream out;
    std::ostringstream err;
    const int code = run(args, out, err);
    return {code, out.str(), err.str()};
}

TEST(Cli, NoArgsPrintsUsageAndFails) {
    const CliResult r = invoke({});
    EXPECT_EQ(r.code, 1);
    EXPECT_NE(r.out.find("usage: rrbtool"), std::string::npos);
}

TEST(Cli, HelpSucceeds) {
    const CliResult r = invoke({"help"});
    EXPECT_EQ(r.code, 0);
    EXPECT_NE(r.out.find("estimate"), std::string::npos);
}

TEST(Cli, UnknownCommandFails) {
    const CliResult r = invoke({"frobnicate"});
    EXPECT_EQ(r.code, 1);
    EXPECT_NE(r.err.find("unknown command"), std::string::npos);
}

TEST(Cli, UnknownFlagFails) {
    const CliResult r = invoke({"estimate", "--bogus"});
    EXPECT_EQ(r.code, 1);
    EXPECT_NE(r.err.find("unknown flag"), std::string::npos);
    // The offending flag is named, whatever position it appears in.
    EXPECT_NE(r.err.find("--bogus"), std::string::npos);
    const CliResult late = invoke({"campaign", "--runs", "4", "--bogus"});
    EXPECT_EQ(late.code, 1);
    EXPECT_NE(late.err.find("--bogus"), std::string::npos);
}

TEST(Cli, FlagsFromOtherCommandsAreRejectedNotIgnored) {
    // Regression: a known flag that does not apply to the command used
    // to be parsed and silently ignored — `calibrate --runs 5` would
    // report calibration numbers as if a 5-run campaign had happened.
    const CliResult r = invoke({"calibrate", "--runs", "5"});
    EXPECT_EQ(r.code, 1);
    EXPECT_NE(r.err.find("--runs"), std::string::npos);
    EXPECT_NE(r.err.find("calibrate"), std::string::npos);

    EXPECT_EQ(invoke({"estimate", "--jobs", "2"}).code, 1);
    EXPECT_EQ(invoke({"baseline", "--block-size", "4"}).code, 1);
    EXPECT_EQ(invoke({"campaign", "--kmax", "10"}).code, 1);
    EXPECT_EQ(invoke({"campaign", "--cores-axis", "2,4"}).code, 1);
    EXPECT_EQ(invoke({"sweep-pwcet", "--cores", "4"}).code, 1);
}

TEST(Cli, TelemetryFlagsOnlyApplyToCampaignCommands) {
    // --telemetry / --heartbeat describe a running campaign; on a
    // non-campaign command they would silently observe nothing.
    const CliResult r =
        invoke({"estimate", "--telemetry", "out.json"});
    EXPECT_EQ(r.code, 1);
    EXPECT_NE(r.err.find("--telemetry"), std::string::npos);
    EXPECT_NE(r.err.find("estimate"), std::string::npos);
    EXPECT_EQ(invoke({"calibrate", "--heartbeat", "2"}).code, 1);
    EXPECT_EQ(invoke({"baseline", "--telemetry", "t.json"}).code, 1);
    EXPECT_EQ(invoke({"estimate", "--heartbeat", "1"}).code, 1);
    // merge writes a report but has no live campaign to pulse.
    EXPECT_EQ(invoke({"merge", "--heartbeat", "1"}).code, 1);
}

TEST(Cli, TelemetryFlagValueValidation) {
    EXPECT_EQ(invoke({"pwcet", "--telemetry"}).code, 1);
    EXPECT_EQ(invoke({"pwcet", "--heartbeat"}).code, 1);
    EXPECT_EQ(invoke({"pwcet", "--heartbeat", "abc"}).code, 1);
    const CliResult zero = invoke({"pwcet", "--heartbeat", "0"});
    EXPECT_EQ(zero.code, 1);
    EXPECT_NE(zero.err.find("--heartbeat"), std::string::npos);
}

TEST(Cli, HelpListsTelemetryFlags) {
    const CliResult r = invoke({"help"});
    EXPECT_EQ(r.code, 0);
    EXPECT_NE(r.out.find("--telemetry"), std::string::npos);
    EXPECT_NE(r.out.find("--heartbeat"), std::string::npos);
}

TEST(Cli, FlagValueValidation) {
    EXPECT_EQ(invoke({"estimate", "--cores"}).code, 1);
    EXPECT_EQ(invoke({"estimate", "--cores", "abc"}).code, 1);
    EXPECT_EQ(invoke({"estimate", "--csv"}).code, 1);
}

TEST(Cli, NumbersThatOverflowTheirFieldAreRejected) {
    // 2^64 + 1 used to wrap to 1 run, and 2^32 + 2 cores to a 2-core
    // machine; both must fail the parse naming the flag instead.
    const CliResult runs =
        invoke({"pwcet", "--runs", "18446744073709551617"});
    EXPECT_EQ(runs.code, 1);
    EXPECT_NE(runs.err.find("--runs"), std::string::npos) << runs.err;
    const CliResult cores = invoke({"pwcet", "--cores", "4294967298"});
    EXPECT_EQ(cores.code, 1);
    EXPECT_NE(cores.err.find("--cores"), std::string::npos) << cores.err;
    EXPECT_TRUE(cores.out.empty());
}

TEST(Cli, CalibrateReportsDeltaNop) {
    const CliResult r = invoke({"calibrate"});
    EXPECT_EQ(r.code, 0);
    EXPECT_NE(r.out.find("delta_nop = 1.0"), std::string::npos);
}

TEST(Cli, CalibrateSlowNop) {
    const CliResult r = invoke({"calibrate", "--nop-latency", "3"});
    EXPECT_EQ(r.code, 0);
    EXPECT_NE(r.out.find("delta_nop = 3.0"), std::string::npos);
}

TEST(Cli, EstimateOnSmallPlatform) {
    // A small platform keeps the test fast: ubd = (2-1)*... use 4x5=15.
    const CliResult r = invoke({"estimate", "--cores", "4", "--lbus", "5",
                                "--kmax", "40", "--iterations", "20"});
    EXPECT_EQ(r.code, 0);
    EXPECT_NE(r.out.find("ubd = 15 cycles"), std::string::npos);
}

TEST(Cli, EstimateTooShortSweepExitsTwo) {
    const CliResult r = invoke({"estimate", "--kmax", "8",
                                "--iterations", "10"});
    EXPECT_EQ(r.code, 2);
    EXPECT_NE(r.out.find("no saw-tooth period"), std::string::npos);
}

TEST(Cli, BaselineReportsUnderestimate) {
    const CliResult r = invoke({"baseline", "--iterations", "40"});
    EXPECT_EQ(r.code, 0);
    EXPECT_NE(r.out.find("ubdm(max observed delay) = 26"),
              std::string::npos);
    EXPECT_NE(r.out.find("true ubd = 27"), std::string::npos);
}

TEST(Cli, BaselineVarArchitecture) {
    const CliResult r = invoke({"baseline", "--var", "--iterations", "40"});
    EXPECT_EQ(r.code, 0);
    EXPECT_NE(r.out.find("ubdm(max observed delay) = 23"),
              std::string::npos);
}

TEST(Cli, CampaignReportsBoundedHwm) {
    const CliResult r = invoke({"campaign", "--runs", "4", "--jobs", "2",
                                "--iterations", "20"});
    EXPECT_EQ(r.code, 0);
    EXPECT_NE(r.out.find("campaign: 4 runs on 2 jobs"), std::string::npos);
    EXPECT_NE(r.out.find("4/4 (100%)"), std::string::npos);
    EXPECT_NE(r.out.find("hwm = "), std::string::npos);
    EXPECT_NE(r.out.find("bounded: yes"), std::string::npos);
}

TEST(Cli, CampaignJobCountDoesNotChangeResults) {
    const CliResult serial = invoke({"campaign", "--runs", "4", "--jobs",
                                     "1", "--iterations", "20"});
    const CliResult wide = invoke({"campaign", "--runs", "4", "--jobs",
                                   "4", "--iterations", "20"});
    EXPECT_EQ(serial.code, 0);
    EXPECT_EQ(wide.code, 0);
    // Everything after the header line (which names the job count) is
    // identical: sharding must not change the numbers.
    EXPECT_EQ(serial.out.substr(serial.out.find('\n')),
              wide.out.substr(wide.out.find('\n')));
}

TEST(Cli, CampaignValidatesRuns) {
    const CliResult r = invoke({"campaign", "--runs", "0"});
    EXPECT_EQ(r.code, 1);
    EXPECT_NE(r.err.find("--runs"), std::string::npos);
}

TEST(Cli, HelpListsPwcetCommandAndFlags) {
    const CliResult r = invoke({"help"});
    EXPECT_EQ(r.code, 0);
    EXPECT_NE(r.out.find("pwcet"), std::string::npos);
    EXPECT_NE(r.out.find("--block-size"), std::string::npos);
    EXPECT_NE(r.out.find("--exceedance"), std::string::npos);
}

TEST(Cli, PwcetReportsStreamedCampaign) {
    const CliResult r = invoke({"pwcet", "--runs", "24", "--block-size",
                                "4", "--jobs", "2", "--iterations", "20",
                                "--exceedance", "1e-9"});
    EXPECT_EQ(r.code, 0);
    EXPECT_NE(r.out.find("pwcet: 24 runs in blocks of 4 on 2 jobs"),
              std::string::npos);
    // The progress counter covered every run.
    EXPECT_NE(r.out.find("24/24 (100%)"), std::string::npos);
    // Streamed memory evidence: 6 blocks live, not 24 values.
    EXPECT_NE(r.out.find("streamed: 6 live values for 24 runs"),
              std::string::npos);
    EXPECT_NE(r.out.find("gumbel: mu = "), std::string::npos);
    EXPECT_NE(r.out.find("pwcet@1e-09 = "), std::string::npos);
    EXPECT_NE(r.out.find("hwm bounded: yes"), std::string::npos);
}

TEST(Cli, PwcetJobCountDoesNotChangeResults) {
    const CliResult serial = invoke({"pwcet", "--runs", "24",
                                     "--block-size", "4", "--jobs", "1",
                                     "--iterations", "20"});
    const CliResult wide = invoke({"pwcet", "--runs", "24",
                                   "--block-size", "4", "--jobs", "8",
                                   "--iterations", "20"});
    EXPECT_EQ(serial.code, 0);
    EXPECT_EQ(wide.code, 0);
    // Everything after the header line (which names the job count) is
    // identical — including the Chan-merged mean/stddev and the fit:
    // the shard plan depends on runs, never jobs.
    EXPECT_EQ(serial.out.substr(serial.out.find('\n')),
              wide.out.substr(wide.out.find('\n')));
}

TEST(Cli, PwcetDefaultRunsFillWholeBlocks) {
    // The pwcet default must produce a valid fit out of the box — the
    // campaign command's 20-run default would not even fill one
    // 50-run block. Default here is 40 blocks.
    const CliResult r = invoke({"pwcet", "--iterations", "20"});
    EXPECT_EQ(r.code, 0);
    EXPECT_NE(r.out.find("pwcet: 2000 runs in blocks of 50"),
              std::string::npos);
    EXPECT_NE(r.out.find("gumbel: mu = "), std::string::npos);
}

TEST(Cli, PwcetDegenerateFitExitsThree) {
    // One block -> fewer than two block maxima -> no valid fit. Exit 3
    // keeps "not enough data" distinct from "bound violated" (exit 2).
    const CliResult r = invoke({"pwcet", "--runs", "4", "--block-size",
                                "4", "--iterations", "20"});
    EXPECT_EQ(r.code, 3);
    EXPECT_NE(r.out.find("degenerate"), std::string::npos);
}

TEST(Cli, PwcetValidatesFlags) {
    EXPECT_EQ(invoke({"pwcet", "--runs", "0"}).code, 1);
    EXPECT_EQ(invoke({"pwcet", "--block-size", "0"}).code, 1);
    EXPECT_EQ(invoke({"pwcet", "--block-size"}).code, 1);
    EXPECT_EQ(invoke({"pwcet", "--block-size", "abc"}).code, 1);
    const CliResult bad = invoke({"pwcet", "--exceedance", "2.0"});
    EXPECT_EQ(bad.code, 1);
    EXPECT_NE(bad.err.find("--exceedance"), std::string::npos);
    EXPECT_EQ(invoke({"pwcet", "--exceedance", "nope"}).code, 1);
    EXPECT_EQ(invoke({"pwcet", "--exceedance"}).code, 1);
}

TEST(Cli, PwcetShardWritesACheckpointAndMergeReproducesTheReference) {
    const std::string dir = testing::TempDir();
    // The single-process reference: everything after its header line is
    // the contract the merged report must reproduce byte for byte.
    const CliResult reference =
        invoke({"pwcet", "--runs", "64", "--block-size", "8", "--jobs",
                "2", "--iterations", "20", "--seed", "9"});
    EXPECT_EQ(reference.code, 0);

    std::vector<std::string> merge_args = {"merge"};
    for (const char* shard : {"0/2", "1/2"}) {
        const std::string path =
            dir + "rrb_cli_shard_" + std::string(1, shard[0]) + ".ckpt";
        const CliResult r =
            invoke({"pwcet", "--runs", "64", "--block-size", "8", "--jobs",
                    "2", "--iterations", "20", "--seed", "9", "--shard",
                    shard, "--checkpoint-out", path});
        EXPECT_EQ(r.code, 0) << r.err;
        EXPECT_NE(r.out.find("checkpoint written to " + path),
                  std::string::npos);
        merge_args.push_back(path);
    }

    const CliResult merged = invoke(merge_args);
    EXPECT_EQ(merged.code, 0) << merged.err;
    EXPECT_NE(merged.out.find("merge: 2 checkpoints, 64 runs"),
              std::string::npos);
    EXPECT_EQ(merged.out.substr(merged.out.find('\n')),
              reference.out.substr(reference.out.find('\n')));

    for (std::size_t i = 1; i < merge_args.size(); ++i) {
        std::remove(merge_args[i].c_str());
    }
}

TEST(Cli, PwcetShardValidation) {
    // Malformed or out-of-range specs fail naming --shard.
    for (const char* bad : {"abc", "1", "1/", "/4", "2/2", "5/4", "1/0"}) {
        const CliResult r = invoke({"pwcet", "--shard", bad,
                                    "--checkpoint-out", "/tmp/x.ckpt"});
        EXPECT_EQ(r.code, 1) << bad;
        EXPECT_NE(r.err.find("--shard"), std::string::npos) << bad;
    }
    EXPECT_EQ(invoke({"pwcet", "--shard"}).code, 1);
    EXPECT_EQ(invoke({"pwcet", "--checkpoint-out"}).code, 1);
    // A slice without a checkpoint file would be thrown away — refuse,
    // naming both flags.
    const CliResult no_out = invoke({"pwcet", "--runs", "8", "--shard",
                                     "0/2"});
    EXPECT_EQ(no_out.code, 1);
    EXPECT_NE(no_out.err.find("--checkpoint-out"), std::string::npos);
    // Shard flags belong to pwcet only.
    EXPECT_EQ(invoke({"campaign", "--shard", "0/2"}).code, 1);
    EXPECT_EQ(invoke({"sweep-pwcet", "--checkpoint-out", "x"}).code, 1);
}

TEST(Cli, MergeValidation) {
    const CliResult none = invoke({"merge"});
    EXPECT_EQ(none.code, 1);
    EXPECT_NE(none.err.find("at least one checkpoint"), std::string::npos);

    // An unreadable file exits non-zero naming the path.
    const CliResult missing = invoke({"merge", "/tmp/rrb_no_such.ckpt"});
    EXPECT_EQ(missing.code, 1);
    EXPECT_NE(missing.err.find("/tmp/rrb_no_such.ckpt"),
              std::string::npos);

    // Garbage bytes are rejected as corrupt, naming the path.
    const std::string garbage = testing::TempDir() + "rrb_garbage.ckpt";
    {
        std::ofstream out(garbage, std::ios::binary);
        out << "this is not a checkpoint";
    }
    const CliResult bad = invoke({"merge", garbage});
    EXPECT_EQ(bad.code, 1);
    EXPECT_NE(bad.err.find(garbage), std::string::npos);
    std::remove(garbage.c_str());

    // Flags are rejected: merge takes checkpoint files only.
    EXPECT_EQ(invoke({"merge", "--jobs", "2"}).code, 1);

    // The same file twice is rejected up front, before any I/O, naming
    // the repeated argument.
    const std::string path = testing::TempDir() + "rrb_dup.ckpt";
    EXPECT_EQ(invoke({"pwcet", "--runs", "16", "--block-size", "4",
                      "--iterations", "20", "--shard", "0/2",
                      "--checkpoint-out", path})
                  .code,
              0);
    const CliResult dup = invoke({"merge", path, path});
    EXPECT_EQ(dup.code, 1);
    EXPECT_NE(dup.err.find("duplicate checkpoint file"),
              std::string::npos);
    EXPECT_NE(dup.err.find(path), std::string::npos);

    // Distinct files carrying the same slice still reach the codec's
    // duplicate-coverage check.
    const std::string copy = testing::TempDir() + "rrb_dup_copy.ckpt";
    {
        std::ifstream src(path, std::ios::binary);
        std::ofstream dst(copy, std::ios::binary);
        dst << src.rdbuf();
    }
    const CliResult same_slice = invoke({"merge", path, copy});
    EXPECT_EQ(same_slice.code, 1);
    EXPECT_NE(same_slice.err.find("duplicate slice"), std::string::npos);
    std::remove(copy.c_str());

    // A lone half-campaign is incomplete.
    const CliResult half = invoke({"merge", path});
    EXPECT_EQ(half.code, 1);
    EXPECT_NE(half.err.find("incomplete campaign"), std::string::npos);
    std::remove(path.c_str());

    // Whitebox files take the same guard: the same file twice is a
    // usage error before any I/O.
    const std::string wb = testing::TempDir() + "rrb_wb_dup.ckpt";
    EXPECT_EQ(invoke({"whitebox", "--runs", "8", "--iterations", "15",
                      "--shard", "0/2", "--checkpoint-out", wb})
                  .code,
              0);
    const CliResult wb_dup = invoke({"merge", wb, wb});
    EXPECT_EQ(wb_dup.code, 1);
    EXPECT_NE(wb_dup.err.find("duplicate checkpoint file"),
              std::string::npos);
    std::remove(wb.c_str());
}

TEST(Cli, WhiteboxReportsDelayHistogramsVsUbd) {
    const CliResult r = invoke({"whitebox", "--runs", "6", "--jobs", "2",
                                "--iterations", "15"});
    EXPECT_EQ(r.code, 0) << r.err;
    EXPECT_NE(r.out.find("whitebox: 6 runs"), std::string::npos);
    EXPECT_NE(r.out.find("max gamma ="), std::string::npos);
    EXPECT_NE(r.out.find("bounded: yes"), std::string::npos);
    EXPECT_NE(r.out.find("ready contenders:"), std::string::npos);
}

TEST(Cli, WhiteboxShardAndMergeReproduceTheReference) {
    const std::string dir = testing::TempDir();
    const CliResult reference =
        invoke({"whitebox", "--runs", "24", "--jobs", "2", "--iterations",
                "15", "--seed", "9"});
    EXPECT_EQ(reference.code, 0);

    std::vector<std::string> merge_args = {"merge"};
    for (const char* shard : {"0/3", "1/3", "2/3"}) {
        const std::string path =
            dir + "rrb_cli_wb_shard_" + std::string(1, shard[0]) + ".ckpt";
        const CliResult r =
            invoke({"whitebox", "--runs", "24", "--jobs", "2",
                    "--iterations", "15", "--seed", "9", "--shard", shard,
                    "--checkpoint-out", path});
        EXPECT_EQ(r.code, 0) << r.err;
        EXPECT_NE(r.out.find("checkpoint written to " + path),
                  std::string::npos);
        EXPECT_NE(r.out.find("merge with 'rrbtool merge'"),
                  std::string::npos);
        merge_args.push_back(path);
    }

    // `merge` reads the whitebox kind off the files.
    const CliResult merged = invoke(merge_args);
    EXPECT_EQ(merged.code, 0) << merged.err;
    EXPECT_NE(merged.out.find("merge: 3 checkpoints, 24 runs, seed 9"),
              std::string::npos);
    // Byte-identical from line 2: the distributed fan-in reproduces the
    // single-process report exactly.
    EXPECT_EQ(merged.out.substr(merged.out.find('\n')),
              reference.out.substr(reference.out.find('\n')));

    for (std::size_t i = 1; i < merge_args.size(); ++i) {
        std::remove(merge_args[i].c_str());
    }
}

TEST(Cli, MergeRejectsMixedCampaignKinds) {
    const std::string dir = testing::TempDir();
    const std::string pwcet = dir + "rrb_cli_cross_pwcet.ckpt";
    const std::string whitebox = dir + "rrb_cli_cross_wb.ckpt";
    ASSERT_EQ(invoke({"pwcet", "--runs", "16", "--block-size", "4",
                      "--jobs", "2", "--iterations", "15", "--shard", "0/1",
                      "--checkpoint-out", pwcet})
                  .code,
              0);
    ASSERT_EQ(invoke({"whitebox", "--runs", "16", "--jobs", "2",
                      "--iterations", "15", "--shard", "0/1",
                      "--checkpoint-out", whitebox})
                  .code,
              0);
    // Whichever kind comes first, the other one is refused by name.
    for (const auto& files : {std::vector<std::string>{pwcet, whitebox},
                              std::vector<std::string>{whitebox, pwcet}}) {
        const CliResult crossed = invoke({"merge", files[0], files[1]});
        EXPECT_EQ(crossed.code, 1);
        EXPECT_NE(crossed.err.find(files[1]), std::string::npos)
            << crossed.err;
        EXPECT_NE(crossed.err.find("pwcet"), std::string::npos);
        EXPECT_NE(crossed.err.find("whitebox"), std::string::npos);
        EXPECT_NE(crossed.err.find("refusing to merge across campaign "
                                   "kinds"),
                  std::string::npos);
        EXPECT_TRUE(crossed.out.empty());
    }
    std::remove(pwcet.c_str());
    std::remove(whitebox.c_str());
}

TEST(Cli, WhiteboxValidatesFlags) {
    // pwcet-only flags do not leak into whitebox.
    EXPECT_EQ(invoke({"whitebox", "--block-size", "8"}).code, 1);
    EXPECT_EQ(invoke({"whitebox", "--exceedance", "1e-6"}).code, 1);
    // Shard spec validation matches pwcet's.
    const CliResult bad = invoke({"whitebox", "--shard", "3/2",
                                  "--checkpoint-out", "/tmp/x.ckpt"});
    EXPECT_EQ(bad.code, 1);
    EXPECT_NE(bad.err.find("--shard"), std::string::npos);
    // `merge` reads whitebox files; there is no merge-whitebox.
    const CliResult gone = invoke({"merge-whitebox"});
    EXPECT_EQ(gone.code, 1);
    EXPECT_NE(gone.err.find("unknown command 'merge-whitebox'"),
              std::string::npos);
}

TEST(Cli, PositionalArgumentsAreRejectedOutsideMerge) {
    const CliResult r = invoke({"pwcet", "stray.ckpt"});
    EXPECT_EQ(r.code, 1);
    EXPECT_NE(r.err.find("stray.ckpt"), std::string::npos);
}

TEST(Cli, SweepPwcetRunsAConfigGrid) {
    const CliResult r = invoke({"sweep-pwcet", "--cores-axis", "2,4",
                                "--lbus-axis", "5", "--runs", "16",
                                "--block-size", "4", "--jobs", "2",
                                "--iterations", "20", "--exceedance",
                                "1e-6"});
    EXPECT_EQ(r.code, 0);
    EXPECT_NE(r.out.find("sweep-pwcet: 2 configs x 16 runs"),
              std::string::npos);
    EXPECT_NE(r.out.find("pwcet@1e-06"), std::string::npos);
    // One row per grid point, cores-major.
    EXPECT_NE(r.out.find("\n2 5 rr "), std::string::npos);
    EXPECT_NE(r.out.find("\n4 5 rr "), std::string::npos);
}

TEST(Cli, SweepPwcetJobCountDoesNotChangeResults) {
    const std::vector<std::string> base = {
        "sweep-pwcet", "--cores-axis", "2,4",  "--lbus-axis", "5,9",
        "--runs",      "16",           "--block-size", "4",
        "--iterations", "20"};
    auto with_jobs = [&base](const char* jobs) {
        std::vector<std::string> args = base;
        args.emplace_back("--jobs");
        args.emplace_back(jobs);
        return args;
    };
    const CliResult serial = invoke(with_jobs("1"));
    const CliResult wide = invoke(with_jobs("8"));
    EXPECT_EQ(serial.code, 0);
    EXPECT_EQ(wide.code, 0);
    // Everything after the header line (which names the job count) is
    // identical: the nested campaigns shard deterministically.
    EXPECT_EQ(serial.out.substr(serial.out.find('\n')),
              wide.out.substr(wide.out.find('\n')));
}

TEST(Cli, SweepPwcetArbiterAxis) {
    const CliResult r = invoke({"sweep-pwcet", "--arbiter-axis",
                                "rr,tdma", "--runs", "8", "--block-size",
                                "4", "--iterations", "20"});
    // TDMA isolates cores from alignment, so its campaign can have zero
    // spread — a (correct) degenerate fit exits 3; never a bound
    // violation (2) or a usage error (1).
    EXPECT_TRUE(r.code == 0 || r.code == 3) << "code " << r.code;
    EXPECT_NE(r.out.find(" rr "), std::string::npos);
    EXPECT_NE(r.out.find(" tdma "), std::string::npos);
    // Non-RR rows carry no Equation-1 bound verdict.
    EXPECT_NE(r.out.find("n/a"), std::string::npos);
}

TEST(Cli, SweepPwcetValidatesFlags) {
    EXPECT_EQ(invoke({"sweep-pwcet", "--cores-axis"}).code, 1);
    EXPECT_EQ(invoke({"sweep-pwcet", "--cores-axis", "2,x"}).code, 1);
    // A value that would truncate into CoreId must fail the parse, not
    // silently run some other grid (4294967298 would truncate to 2).
    EXPECT_EQ(invoke({"sweep-pwcet", "--cores-axis", "4294967298"}).code,
              1);
    // A trailing comma is a half-typed list, not a shorter one.
    EXPECT_EQ(invoke({"sweep-pwcet", "--cores-axis", "2,"}).code, 1);
    EXPECT_EQ(invoke({"sweep-pwcet", "--arbiter-axis", "rr,"}).code, 1);
    EXPECT_EQ(invoke({"sweep-pwcet", "--arbiter-axis", "bogus"}).code, 1);
    EXPECT_EQ(invoke({"sweep-pwcet", "--runs", "0"}).code, 1);
    const CliResult bad = invoke({"sweep-pwcet", "--arbiter-axis", "rr,nope"});
    EXPECT_EQ(bad.code, 1);
    EXPECT_NE(bad.err.find("nope"), std::string::npos);
}

TEST(Cli, HelpListsSweepPwcet) {
    const CliResult r = invoke({"help"});
    EXPECT_EQ(r.code, 0);
    EXPECT_NE(r.out.find("sweep-pwcet"), std::string::npos);
    EXPECT_NE(r.out.find("--cores-axis"), std::string::npos);
    EXPECT_NE(r.out.find("--arbiter-axis"), std::string::npos);
}

TEST(Cli, EstimateWritesTheSweepCsv) {
    const std::string path = "/tmp/rrbtool_estimate_csv_test.csv";
    const CliResult r = invoke({"estimate", "--cores", "4", "--lbus", "2",
                                "--kmax", "14", "--iterations", "15",
                                "--csv", path});
    EXPECT_EQ(r.code, 0);
    std::ifstream in(path);
    std::string header;
    std::getline(in, header);
    EXPECT_EQ(header, "index,dbus,et_isolation,et_contention");
    // 15 data rows (k = 0..14).
    std::size_t rows = 0;
    for (std::string line; std::getline(in, line);) ++rows;
    EXPECT_EQ(rows, 15u);
    std::remove(path.c_str());
}

TEST(Cli, EstimateCsvWriteFailureExits2) {
    const CliResult r = invoke({"estimate", "--cores", "4", "--lbus", "2",
                                "--kmax", "14", "--iterations", "15",
                                "--csv", "/nonexistent-dir/sweep.csv"});
    EXPECT_EQ(r.code, 2);
    EXPECT_NE(r.err.find("error: could not write /nonexistent-dir/sweep.csv"),
              std::string::npos);
}

TEST(Cli, EstimateWithStoreSpanCrossCheck) {
    const CliResult r = invoke({"estimate", "--cores", "4", "--lbus", "5",
                                "--kmax", "40", "--iterations", "15",
                                "--store-span"});
    EXPECT_EQ(r.code, 0);
    EXPECT_NE(r.out.find("AGREE"), std::string::npos);
    EXPECT_NE(r.out.find("ubd = 15"), std::string::npos);
}

TEST(Cli, SingleRunCommandsReportMeasurements) {
    const CliResult isol = invoke({"isolation"});
    EXPECT_EQ(isol.code, 0) << isol.err;
    EXPECT_NE(isol.out.find("isolation: et = "), std::string::npos);
    EXPECT_NE(isol.out.find("nr = "), std::string::npos);

    const CliResult cont = invoke({"contention"});
    EXPECT_EQ(cont.code, 0) << cont.err;
    EXPECT_NE(cont.out.find("contention: et = "), std::string::npos);
    EXPECT_NE(cont.out.find("bounded: yes"), std::string::npos);

    const CliResult slow = invoke({"slowdown"});
    EXPECT_EQ(slow.code, 0) << slow.err;
    EXPECT_NE(slow.out.find("det = "), std::string::npos);
    EXPECT_NE(slow.out.find("bounded: yes"), std::string::npos);
    // Campaign-only flags stay campaign-only.
    EXPECT_EQ(invoke({"isolation", "--runs", "5"}).code, 1);
    EXPECT_EQ(invoke({"slowdown", "--jobs", "2"}).code, 1);
}

TEST(Cli, SingleRunCommandsAcceptTelemetry) {
    const std::string path = "/tmp/rrbtool_isolation_report.json";
    const CliResult off = invoke({"isolation"});
    const CliResult on = invoke({"isolation", "--telemetry", path});
    EXPECT_EQ(on.code, 0) << on.err;
    // Telemetry stays out-of-band on the single-run commands too.
    EXPECT_EQ(off.out, on.out);
    std::ifstream in(path);
    std::stringstream report;
    report << in.rdbuf();
    EXPECT_NE(report.str().find("\"command\": \"isolation\""),
              std::string::npos);
    std::remove(path.c_str());
}

TEST(Cli, AttributionReportsCauseTableAndBlameMatrix) {
    const CliResult r = invoke({"attribution", "--runs", "6"});
    EXPECT_EQ(r.code, 0) << r.err;
    EXPECT_NE(r.out.find("attribution: 6 runs"), std::string::npos);
    EXPECT_NE(r.out.find("cycles by cause"), std::string::npos);
    EXPECT_NE(r.out.find("\nbus_wait "), std::string::npos);
    EXPECT_NE(r.out.find("blame matrix"), std::string::npos);
    EXPECT_NE(r.out.find("core0 stall share:"), std::string::npos);
}

TEST(Cli, AttributionJobCountDoesNotChangeResults) {
    const CliResult serial =
        invoke({"attribution", "--runs", "12", "--jobs", "1"});
    const CliResult parallel =
        invoke({"attribution", "--runs", "12", "--jobs", "3"});
    EXPECT_EQ(serial.code, parallel.code);
    // Everything after the header line (which names the jobs count) is
    // identical: the accumulator is an exact integer sum in shard order.
    EXPECT_EQ(serial.out.substr(serial.out.find('\n')),
              parallel.out.substr(parallel.out.find('\n')));
}

TEST(Cli, TraceFlagWritesChromeTraceWithoutTouchingStdout) {
    const std::string path = "/tmp/rrbtool_trace_test.json";
    const CliResult off = invoke({"campaign", "--runs", "6"});
    const CliResult on =
        invoke({"campaign", "--runs", "6", "--trace", path});
    EXPECT_EQ(off.code, on.code);
    EXPECT_EQ(off.out, on.out);
    std::ifstream in(path);
    std::stringstream trace;
    trace << in.rdbuf();
    EXPECT_NE(trace.str().find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(trace.str().find("\"bus service\""), std::string::npos);
    EXPECT_NE(trace.str().find("session.hwm"), std::string::npos);
    std::remove(path.c_str());
    // --trace is a campaign flag: rejected elsewhere, value required.
    EXPECT_EQ(invoke({"estimate", "--trace", "t.json"}).code, 1);
    EXPECT_EQ(invoke({"campaign", "--trace"}).code, 1);
}

TEST(Cli, TelemetryDiffReportsDeltasAndGatesRegressions) {
    const std::string path_a = "/tmp/rrbtool_diff_a.json";
    const std::string path_b = "/tmp/rrbtool_diff_b.json";
    ASSERT_EQ(invoke({"campaign", "--runs", "8", "--telemetry", path_a})
                  .code,
              0);
    ASSERT_EQ(invoke({"campaign", "--runs", "8", "--telemetry", path_b})
                  .code,
              0);
    const CliResult diff = invoke({"telemetry-diff", path_a, path_b});
    EXPECT_EQ(diff.code, 0) << diff.err;
    EXPECT_NE(diff.out.find("counters:"), std::string::npos);
    EXPECT_NE(diff.out.find("runs_completed: 8 -> 8 (+0)"),
              std::string::npos);
    EXPECT_NE(diff.out.find("runs_per_sec"), std::string::npos);

    // Identical counters can't regress: a generous gate passes...
    const CliResult pass = invoke({"telemetry-diff", path_a, path_b,
                                   "--max-regression-pct", "1000"});
    EXPECT_EQ(pass.code, 0);
    EXPECT_NE(pass.out.find("gate: no rate regression"),
              std::string::npos);
    // ...and a doctored report trips exit 3.
    std::ifstream in(path_b);
    std::stringstream doctored;
    doctored << in.rdbuf();
    std::string text = doctored.str();
    const std::size_t at = text.find("\"runs_per_sec\": ");
    ASSERT_NE(at, std::string::npos);
    text.replace(at, text.find(',', at) - at, "\"runs_per_sec\": 0.5");
    const std::string path_c = "/tmp/rrbtool_diff_c.json";
    std::ofstream(path_c) << text;
    const CliResult fail = invoke({"telemetry-diff", path_a, path_c,
                                   "--max-regression-pct", "5"});
    EXPECT_EQ(fail.code, 3);
    EXPECT_NE(fail.out.find("regression: runs_per_sec"),
              std::string::npos);
    std::remove(path_a.c_str());
    std::remove(path_b.c_str());
    std::remove(path_c.c_str());
}

TEST(Cli, TelemetryDiffValidation) {
    // Wrong arity, unreadable files and non-report files all fail
    // loudly before any numbers are printed.
    EXPECT_EQ(invoke({"telemetry-diff", "only_one.json"}).code, 1);
    const CliResult missing = invoke(
        {"telemetry-diff", "/tmp/rrbtool_nope_a.json",
         "/tmp/rrbtool_nope_b.json"});
    EXPECT_EQ(missing.code, 1);
    EXPECT_NE(missing.err.find("could not read"), std::string::npos);
    const std::string bogus = "/tmp/rrbtool_diff_bogus.json";
    std::ofstream(bogus) << "{\"schema\": \"something-else\"}\n";
    const CliResult wrong = invoke({"telemetry-diff", bogus, bogus});
    EXPECT_EQ(wrong.code, 1);
    EXPECT_NE(wrong.err.find("not an rrb-telemetry run report"),
              std::string::npos);
    std::remove(bogus.c_str());
    EXPECT_EQ(invoke({"telemetry-diff", "a", "b", "--max-regression-pct",
                      "abc"})
                  .code,
              1);
    EXPECT_EQ(invoke({"telemetry-diff", "a", "b", "--max-regression-pct",
                      "-2"})
                  .code,
              1);
    // The gate flag belongs to telemetry-diff alone.
    EXPECT_EQ(invoke({"campaign", "--max-regression-pct", "5"}).code, 1);
}

TEST(Cli, HelpListsNewCommands) {
    const CliResult r = invoke({"help"});
    EXPECT_EQ(r.code, 0);
    EXPECT_NE(r.out.find("attribution"), std::string::npos);
    EXPECT_NE(r.out.find("isolation"), std::string::npos);
    EXPECT_NE(r.out.find("slowdown"), std::string::npos);
    EXPECT_NE(r.out.find("telemetry-diff"), std::string::npos);
    EXPECT_NE(r.out.find("--trace"), std::string::npos);
    EXPECT_NE(r.out.find("--max-regression-pct"), std::string::npos);
}

// ------------------------------------------------------ golden sweeps

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), {}};
}

/// Runs `estimate args --csv <tmp>` and diffs stdout and the CSV with
/// tests/golden/<name>.{txt,csv}; the .txt names the CSV by the golden
/// file's own name.
void expect_estimate_golden(const std::string& name,
                            const std::vector<std::string>& args) {
    const std::string dir = std::string(RRB_SOURCE_DIR) + "/tests/golden/";
    const std::string csv = "/tmp/rrbtool_" + name + ".csv";
    std::vector<std::string> argv = {"estimate"};
    argv.insert(argv.end(), args.begin(), args.end());
    argv.insert(argv.end(), {"--csv", csv});
    const CliResult r = invoke(argv);
    EXPECT_EQ(r.code, 0) << name << ": " << r.err;
    std::string expected = read_file(dir + name + ".txt");
    const std::string own_name = name + ".csv";
    const std::size_t at = expected.find(own_name);
    ASSERT_NE(at, std::string::npos) << name;
    expected.replace(at, own_name.size(), csv);
    EXPECT_EQ(r.out, expected) << name;
    EXPECT_EQ(read_file(csv), read_file(dir + own_name)) << name;
    std::remove(csv.c_str());
}

TEST(Cli, EstimateMatchesTheGoldenSweeps) {
    // tests/golden/estimate-*.{csv,txt} were written by rrbtool before
    // the estimator replayed (estimate-c8: before its runs
    // fast-forwarded): the paper's numbers, pinned byte for byte against
    // every later speed-up.
    expect_estimate_golden("estimate-ref",
                           {"--kmax", "70", "--iterations", "40"});
    expect_estimate_golden(
        "estimate-c6-l5",
        {"--cores", "6", "--lbus", "5", "--kmax", "80", "--iterations", "20"});
    expect_estimate_golden(
        "estimate-c8", {"--cores", "8", "--kmax", "160", "--iterations", "20"});
}

/// Every byte of `text` equal to `from` replaced by `to`.
std::string replace_all(std::string text, const std::string& from,
                        const std::string& to) {
    for (std::size_t at = text.find(from); at != std::string::npos;
         at = text.find(from, at + to.size())) {
        text.replace(at, from.size(), to);
    }
    return text;
}

/// A run report with its timing values read as 0, the form the
/// manifest's report goldens are written in (scripts/regen_goldens.sh
/// masks the same keys).
std::string mask_timing(const std::string& report) {
    static const std::regex timing(
        "\"(wall_ns|worker_busy_ns|shard_wall_ns|runs_per_sec|"
        "cycles_per_sec|worker_utilization|begin_ns|end_ns)\": [0-9.]+");
    return std::regex_replace(report, timing, "\"$1\": 0");
}

TEST(Cli, ManifestCommandsMatchTheirGoldens) {
    // tests/golden/cli/manifest.txt lists each command with its stdout
    // golden and exit code (its header spells out the format); the
    // single-run goldens predate the shared functional core, the
    // policy goldens the one-value arbiter, and the campaign, merge,
    // estimate-flag, telemetry-diff and help goldens the constant DRAM
    // policy.
    namespace fs = std::filesystem;
    const std::string src = RRB_SOURCE_DIR;
    const std::string dir = src + "/tests/golden/cli/";
    const std::string out = testing::TempDir() + "rrb_cli_golden_out";
    std::istringstream manifest(read_file(dir + "manifest.txt"));
    std::size_t commands = 0;
    for (std::string line; std::getline(manifest, line);) {
        if (line.empty() || line.front() == '#') continue;
        std::istringstream fields(line);
        std::string golden;
        int code = -1;
        fields >> golden >> code;
        std::vector<std::string> args;
        for (std::string arg; fields >> arg;) {
            args.push_back(
                replace_all(replace_all(arg, "{src}", src), "{out}", out));
        }
        ASSERT_FALSE(args.empty()) << line;
        ++commands;
        fs::remove_all(out);
        fs::create_directories(out);
        // Each line starts from the main thread's cold machine cache, as
        // in a fresh process: the lease and decode counters of a report
        // would otherwise follow the lines before it.
        engine::MachineLease::drop_thread_cache();
        const CliResult r = invoke(args);
        EXPECT_EQ(r.code, code) << golden << ": " << r.err;
        EXPECT_EQ(r.err, "") << golden;
        EXPECT_EQ(replace_all(replace_all(r.out, out, "{out}"), src, "{src}"),
                  read_file(dir + golden))
            << golden;
        // The files written into {out}, against the golden directory.
        const fs::path stem =
            dir + golden.substr(0, golden.size() - std::string(".txt").size());
        std::vector<std::string> written;
        for (const fs::directory_entry& e : fs::directory_iterator(out)) {
            written.push_back(e.path().filename().string());
        }
        std::vector<std::string> pinned;
        if (fs::is_directory(stem)) {
            for (const fs::directory_entry& e : fs::directory_iterator(stem)) {
                pinned.push_back(e.path().filename().string());
            }
        }
        std::sort(written.begin(), written.end());
        std::sort(pinned.begin(), pinned.end());
        EXPECT_EQ(written, pinned) << golden;
        for (const std::string& file : written) {
            std::string bytes = read_file(out + "/" + file);
            if (fs::path(file).extension() == ".json") {
                bytes = mask_timing(bytes);
            }
            EXPECT_EQ(bytes, read_file((stem / file).string()))
                << golden << ": " << file;
        }
    }
    EXPECT_GE(commands, 45u);
    fs::remove_all(out);
}

TEST(Cli, ErrorPathsMatchTheirGoldens) {
    // tests/golden/cli/errors.txt: each entry is `EXIT ARGS...` and, on
    // the next line, two spaces and the first line the command prints to
    // stderr (its header spells out the format). Stdout stays empty.
    const std::string src = RRB_SOURCE_DIR;
    std::istringstream entries(read_file(src + "/tests/golden/cli/errors.txt"));
    std::size_t count = 0;
    for (std::string line; std::getline(entries, line);) {
        if (line.empty() || line.front() == '#') continue;
        std::string expected;
        ASSERT_TRUE(std::getline(entries, expected)) << line;
        ASSERT_EQ(expected.rfind("  ", 0), 0u) << line;
        std::istringstream fields(line);
        int code = -1;
        fields >> code;
        std::vector<std::string> args;
        for (std::string arg; fields >> arg;) {
            args.push_back(replace_all(arg, "{src}", src));
        }
        ++count;
        const CliResult r = invoke(args);
        EXPECT_EQ(r.code, code) << line;
        EXPECT_EQ(r.out, "") << line;
        EXPECT_EQ(replace_all(r.err.substr(0, r.err.find('\n')), src, "{src}"),
                  expected.substr(2))
            << line;
    }
    EXPECT_GE(count, 40u);
}

TEST(Cli, InterpretedCoresReproduceTheReplayedBytes) {
    // The decode-overflow fault declines every decode, so every core of
    // every run interprets: the interpreter must write the bytes replay
    // writes.
    const std::vector<std::string> pwcet = {"pwcet", "--runs", "200",
                                            "--jobs", "1"};
    const CliResult replayed = invoke(pwcet);
    struct Disarm {
        ~Disarm() { fault::FaultInjector::instance().disarm(); }
    } disarm;
    fault::FaultInjector::instance().arm("decode-overflow");
    expect_estimate_golden("estimate-ref",
                           {"--kmax", "70", "--iterations", "40"});
    const CliResult interpreted = invoke(pwcet);
    EXPECT_EQ(interpreted.code, replayed.code);
    EXPECT_EQ(interpreted.out, replayed.out);
    EXPECT_EQ(interpreted.err, replayed.err);
}

// ------------------------------------------- flags vs batch-spec keys

TEST(Cli, PwcetFlagsAndBatchKeysWriteIdenticalCheckpoints) {
    // Each knob spelled as `pwcet` flags and as the equivalent
    // [scenario] keys: `pwcet --shard 0/1` and `batch` must write the
    // same checkpoint bytes — the contract CI's batch byte-diff relies
    // on. The defaults point and the block-size point leave runs to the
    // 40-block default.
    const struct {
        std::vector<std::string> flags;
        std::string keys;
    } points[] = {
        {{}, ""},
        {{"--var", "--runs", "64"}, "var = true\nruns = 64\n"},
        {{"--cores", "2", "--lbus", "5", "--runs", "64"},
         "cores = 2\nlbus = 5\nruns = 64\n"},
        {{"--iterations", "12", "--runs", "64"},
         "iterations = 12\nruns = 64\n"},
        {{"--runs", "48"}, "runs = 48\n"},
        {{"--seed", "11", "--runs", "64"}, "seed = 11\nruns = 64\n"},
        {{"--block-size", "3"}, "block-size = 3\n"},
        {{"--exceedance", "1e-4", "--runs", "64"},
         "exceedance = 1e-4\nruns = 64\n"},
        {{"--exceedance", "0.01", "--exceedance", "1e-5", "--runs", "64"},
         "exceedance = 0.01, 1e-5\nruns = 64\n"},
    };
    std::string spec;
    for (std::size_t i = 0; i < std::size(points); ++i) {
        spec += "[scenario p" + std::to_string(i) + "]\n" + points[i].keys;
    }
    const std::vector<BatchItem> items = sched::parse_batch_spec(spec);
    ASSERT_EQ(items.size(), std::size(points));
    Session session;
    session.jobs(2);
    const BatchResult batch = session.batch(items);

    const std::string path = testing::TempDir() + "rrb_cli_knobs.ckpt";
    for (std::size_t i = 0; i < std::size(points); ++i) {
        std::vector<std::string> args = {"pwcet"};
        args.insert(args.end(), points[i].flags.begin(),
                    points[i].flags.end());
        args.insert(args.end(), {"--jobs", "2", "--shard", "0/1",
                                 "--checkpoint-out", path});
        const CliResult r = invoke(args);
        ASSERT_EQ(r.code, 0) << "point " << i << ": " << r.err;
        ASSERT_TRUE(batch.points[i].ok) << batch.points[i].error;
        const std::vector<std::uint8_t> bytes =
            encode_pwcet_checkpoint(batch.points[i].checkpoint);
        EXPECT_EQ(read_file(path), std::string(bytes.begin(), bytes.end()))
            << "point " << i << " (" << points[i].keys << ")";
    }
    std::remove(path.c_str());
}

}  // namespace
}  // namespace rrb::cli
