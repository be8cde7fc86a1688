// Tests of the checkpoint subsystem: bit-exact codec round trips for
// the accumulator family (empty and NaN-bearing states included), loud
// rejection of truncated / corrupt / mismatched files, and the headline
// contract — a campaign run as 1, 2 or 4 checkpointed slices and merged
// is bit-identical to the monolithic session.pwcet at every jobs value.
#include "stats/checkpoint.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "core/scenario.h"
#include "core/session.h"
#include "engine/reduce.h"
#include "kernels/autobench.h"
#include "machine/config.h"
#include "sim/fnv.h"

namespace rrb {
namespace {

// ----------------------------------------------------- codec round trips

/// Encode -> decode -> encode. Byte equality of the two encodings is a
/// bit-exactness check that needs no accessor for hidden state (m2,
/// NaN payloads): if any field survived only approximately, the second
/// encoding would differ.
template <typename T, typename Load>
std::vector<std::uint8_t> round_trip(const T& value, Load&& load) {
    CheckpointWriter first;
    CheckpointCodec::save(first, value);
    CheckpointReader reader(first.bytes());
    const T reloaded = load(reader);
    EXPECT_EQ(reader.remaining(), 0u);
    CheckpointWriter second;
    CheckpointCodec::save(second, reloaded);
    EXPECT_EQ(first.bytes(), second.bytes());
    return first.bytes();
}

TEST(CheckpointCodec, ExtremesRoundTripIncludingEmpty) {
    StreamingExtremes<Cycle> empty;
    round_trip(empty, [](CheckpointReader& r) {
        return CheckpointCodec::load_extremes(r);
    });

    StreamingExtremes<Cycle> a;
    a.add(7);
    a.add(1902);
    a.add(44);
    round_trip(a, [](CheckpointReader& r) {
        return CheckpointCodec::load_extremes(r);
    });
    CheckpointWriter w;
    CheckpointCodec::save(w, a);
    CheckpointReader r(w.bytes());
    const StreamingExtremes<Cycle> b = CheckpointCodec::load_extremes(r);
    EXPECT_EQ(b.count(), 3u);
    EXPECT_EQ(b.min(), 7u);
    EXPECT_EQ(b.max(), 1902u);
}

TEST(CheckpointCodec, MomentsRoundTripBitExactlyIncludingNaN) {
    StreamingMoments empty;
    round_trip(empty, [](CheckpointReader& r) {
        return CheckpointCodec::load_moments(r);
    });

    StreamingMoments a;
    // Values chosen so mean/m2 are not exactly representable sums —
    // only a bit-pattern round trip reproduces them.
    for (int i = 0; i < 17; ++i) a.add(0.1 * i + 1.0 / 3.0);
    round_trip(a, [](CheckpointReader& r) {
        return CheckpointCodec::load_moments(r);
    });

    StreamingMoments nan_bearing;
    nan_bearing.add(5.0);
    nan_bearing.add(std::numeric_limits<double>::quiet_NaN());
    ASSERT_TRUE(std::isnan(nan_bearing.mean()));
    const std::vector<std::uint8_t> bytes =
        round_trip(nan_bearing, [](CheckpointReader& r) {
            return CheckpointCodec::load_moments(r);
        });
    CheckpointReader r(bytes);
    const StreamingMoments reloaded = CheckpointCodec::load_moments(r);
    EXPECT_TRUE(std::isnan(reloaded.mean()));
    EXPECT_EQ(reloaded.count(), 2u);
}

TEST(CheckpointCodec, BlockMaximaRoundTripWithPartialBlocks) {
    StreamingBlockMaxima empty(8);
    round_trip(empty, [](CheckpointReader& r) {
        return CheckpointCodec::load_block_maxima(r);
    });

    StreamingBlockMaxima a(4);
    for (std::uint64_t i = 0; i < 11; ++i) {  // last block partial
        a.add(i, static_cast<double>((i * 37) % 13));
    }
    round_trip(a, [](CheckpointReader& r) {
        return CheckpointCodec::load_block_maxima(r);
    });
    CheckpointWriter w;
    CheckpointCodec::save(w, a);
    CheckpointReader r(w.bytes());
    const StreamingBlockMaxima b = CheckpointCodec::load_block_maxima(r);
    EXPECT_EQ(b.block_size(), 4u);
    EXPECT_EQ(b.count(), 11u);
    EXPECT_EQ(b.complete_blocks(), 2u);
    EXPECT_EQ(b.maxima(), a.maxima());
}

TEST(CheckpointCodec, WhiteboxAccumulatorRoundTrip) {
    WhiteboxAccumulator empty;
    round_trip(empty, [](CheckpointReader& r) {
        return CheckpointCodec::load_whitebox(r);
    });

    WhiteboxAccumulator a;
    for (std::uint64_t run = 0; run < 6; ++run) {
        Measurement m;
        m.exec_time = 1000 + run * 13;
        m.max_gamma = run % 3;
        m.gamma.add(run % 3);
        m.ready_contenders.add(run % 2);
        m.injection_delta.add(5 + run);
        a.add(run, m);
    }
    round_trip(a, [](CheckpointReader& r) {
        return CheckpointCodec::load_whitebox(r);
    });
    CheckpointWriter w;
    CheckpointCodec::save(w, a);
    CheckpointReader r(w.bytes());
    const WhiteboxAccumulator b = CheckpointCodec::load_whitebox(r);
    EXPECT_EQ(b.runs(), a.runs());
    EXPECT_EQ(b.max_gamma(), a.max_gamma());
    EXPECT_EQ(b.gamma().buckets(), a.gamma().buckets());
    EXPECT_EQ(b.exec_times().values(), a.exec_times().values());
    EXPECT_EQ(b.extremes().max(), a.extremes().max());
}

TEST(CheckpointCodec, PwcetAccumulatorRoundTrip) {
    PwcetAccumulator a(4);
    for (std::uint64_t run = 0; run < 10; ++run) {
        Measurement m;
        m.exec_time = 2000 + ((run * 271) % 97);
        a.add(run, m);
    }
    round_trip(a, [](CheckpointReader& r) {
        return CheckpointCodec::load_pwcet(r);
    });
}

TEST(CheckpointCodec, RejectsCorruptAccumulatorState) {
    // min > max
    CheckpointWriter w;
    w.u64(2);
    w.u64(100);
    w.u64(50);
    CheckpointReader r(w.bytes());
    EXPECT_THROW((void)CheckpointCodec::load_extremes(r), CheckpointError);

    // truncated mid-field
    CheckpointWriter short_write;
    short_write.u64(1);
    CheckpointReader short_read(short_write.bytes());
    EXPECT_THROW((void)CheckpointCodec::load_extremes(short_read),
                 CheckpointError);

    // block maxima with zero block size
    CheckpointWriter zero_block;
    zero_block.u64(0);
    zero_block.u64(0);
    zero_block.u64(0);
    CheckpointReader zero_read(zero_block.bytes());
    EXPECT_THROW((void)CheckpointCodec::load_block_maxima(zero_read),
                 CheckpointError);
}

// -------------------------------------------------- campaign checkpoints

Scenario small_scenario(std::uint64_t seed = 7, std::size_t runs = 48) {
    return Scenario::on(MachineConfig::ngmp_ref())
        .scua(make_autobench(Autobench::kTblook, 0x0100'0000, 40, 2))
        .rsk_contenders(OpKind::kLoad)
        .runs(runs)
        .seed(seed);
}

PwcetSpec small_spec() {
    PwcetSpec spec;
    spec.block_size = 8;
    spec.exceedance = {1e-3, 1e-9};
    return spec;
}

std::string temp_path(const std::string& name) {
    return testing::TempDir() + "rrb_ckpt_" + name;
}

PwcetCheckpoint make_checkpoint(std::uint64_t seed = 7,
                                const SliceSpec& slice = {0, 1}) {
    Session session;
    session.jobs(2);
    return session.checkpoint(small_scenario(seed), small_spec(), slice,
                              temp_path("make_" + std::to_string(seed) +
                                        "_" + std::to_string(slice.index)));
}

TEST(PwcetCheckpointFile, EncodeDecodeRoundTripsBitExactly) {
    const PwcetCheckpoint a = make_checkpoint();
    const std::vector<std::uint8_t> first = encode_pwcet_checkpoint(a);
    const PwcetCheckpoint b = decode_pwcet_checkpoint(first);
    EXPECT_EQ(encode_pwcet_checkpoint(b), first);
    EXPECT_EQ(b.meta.scenario_fingerprint, a.meta.scenario_fingerprint);
    EXPECT_EQ(b.meta.total_runs, 48u);
    EXPECT_EQ(b.meta.first_run, 0u);
    EXPECT_EQ(b.meta.last_run, 48u);
    EXPECT_EQ(b.shards.size(), a.shards.size());
}

TEST(PwcetCheckpointFile, RejectsGarbageTruncationAndCorruption) {
    const std::vector<std::uint8_t> bytes =
        encode_pwcet_checkpoint(make_checkpoint());

    // Garbage: not even the magic.
    const std::vector<std::uint8_t> garbage(64, 0xAB);
    EXPECT_THROW((void)decode_pwcet_checkpoint(garbage), CheckpointError);

    // Empty and too-short files.
    EXPECT_THROW((void)decode_pwcet_checkpoint(std::vector<std::uint8_t>{}),
                 CheckpointError);
    EXPECT_THROW(
        (void)decode_pwcet_checkpoint(
            std::span(bytes).subspan(0, 10)),
        CheckpointError);

    // Truncation anywhere: the trailer checksum can no longer match.
    for (const std::size_t keep :
         {bytes.size() - 1, bytes.size() / 2, std::size_t{20}}) {
        EXPECT_THROW(
            (void)decode_pwcet_checkpoint(std::span(bytes).subspan(0, keep)),
            CheckpointError)
            << "kept " << keep << " of " << bytes.size();
    }

    // A single flipped payload byte fails the checksum.
    std::vector<std::uint8_t> corrupt = bytes;
    corrupt[bytes.size() / 2] ^= 0x01;
    EXPECT_THROW((void)decode_pwcet_checkpoint(corrupt), CheckpointError);

    // A future format version is rejected even with a valid checksum:
    // re-encode with the version field bumped, then fix the trailer.
    std::vector<std::uint8_t> future = bytes;
    future[8] += 1;  // version is the u32 after the 8-byte magic
    // (checksum now wrong too — still must throw, which is the point)
    EXPECT_THROW((void)decode_pwcet_checkpoint(future), CheckpointError);
}

TEST(PwcetCheckpointFile, RejectsShardRangesThatOverflowThePlan) {
    // first_shard + n_shards must not be checkable by a wrapping sum: a
    // huge first_shard would otherwise pass and index plan-sized
    // coverage tables far out of bounds at merge time.
    PwcetCheckpoint bad = make_checkpoint();
    bad.first_shard = std::numeric_limits<std::uint64_t>::max();
    EXPECT_THROW(
        (void)decode_pwcet_checkpoint(encode_pwcet_checkpoint(bad)),
        CheckpointError);
    bad.first_shard = bad.meta.plan_shards + 1;
    EXPECT_THROW(
        (void)decode_pwcet_checkpoint(encode_pwcet_checkpoint(bad)),
        CheckpointError);
}

// Hostile length fields: files whose checksums are valid but whose
// lengths claim more than any build writes. Each is built by encoding a
// real checkpoint, patching one little-endian u64 and re-sealing the
// FNV-1a trailer, so only the patched field is wrong.

constexpr std::size_t kMetaOffset = 8 + 4 + 1;  // magic, version, kind

void patch_u64(std::vector<std::uint8_t>& bytes, std::size_t offset,
               std::uint64_t value) {
    for (std::size_t i = 0; i < 8; ++i) {
        bytes[offset + i] = static_cast<std::uint8_t>(value >> (8 * i));
    }
}

void reseal(std::vector<std::uint8_t>& bytes) {
    Fnv1a hash;
    hash.bytes(std::span(bytes).subspan(0, bytes.size() - 8));
    patch_u64(bytes, bytes.size() - 8, hash.value());
}

void write_bytes(const std::string& path,
                 const std::vector<std::uint8_t>& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

TEST(HostileCheckpoint, PlanClaimingTwoToTheFortyShardsIsRejected) {
    // An empty slice, so nothing but the plan is out of line.
    PwcetCheckpoint empty = make_checkpoint();
    empty.shards.clear();
    empty.meta.first_run = 0;
    empty.meta.last_run = 0;
    empty.meta.exceedance.clear();
    std::vector<std::uint8_t> bytes = encode_pwcet_checkpoint(empty);
    ASSERT_EQ(bytes.size(), 157u);
    const std::uint64_t shards = std::uint64_t{1} << 40;
    patch_u64(bytes, kMetaOffset + 5 * 8, shards);  // plan_shards
    patch_u64(bytes, kMetaOffset + 6 * 8,           // its plan hash
              shard_plan_hash(empty.meta.total_runs, empty.meta.shard_size,
                              shards));
    reseal(bytes);
    EXPECT_THROW((void)decode_pwcet_checkpoint(bytes), CheckpointError);

    // Through the file paths too: merge must not size a 2^40-entry
    // coverage table, and recovery-mode resume must quarantine the file.
    const std::string path = temp_path("hostile_plan");
    write_bytes(path, bytes);
    EXPECT_THROW((void)Session().merge({path}), CheckpointError);
    Session resumer;
    Session::ResumeRecovery recovery;
    (void)resumer.resume(small_scenario(), small_spec(), {path}, recovery);
    ASSERT_EQ(recovery.actions.size(), 1u);
    EXPECT_EQ(recovery.actions[0].quarantined_to, path + ".corrupt");
    std::remove((path + ".corrupt").c_str());
}

TEST(HostileCheckpoint, SeriesClaimingTwoToTheSixtyOneValuesIsRejected) {
    Session session;
    WhiteboxCheckpoint checkpoint = session.checkpoint(
        small_scenario(), SliceSpec{0, 1}, temp_path("hostile_series_src"));
    std::remove(temp_path("hostile_series_src").c_str());
    // One empty shard: runs, max_gamma, three empty histograms, then the
    // exec-time series length at shard offset 40.
    checkpoint.shards.assign(1, WhiteboxAccumulator{});
    checkpoint.meta.first_run = 0;
    checkpoint.meta.last_run = 0;
    std::vector<std::uint8_t> bytes = encode_checkpoint(checkpoint);
    ASSERT_EQ(bytes.size(), 229u);
    const std::size_t shard_offset = kMetaOffset + 15 * 8 + 2 * 8;
    patch_u64(bytes, shard_offset + 5 * 8, std::uint64_t{1} << 61);
    reseal(bytes);
    EXPECT_THROW((void)decode_checkpoint<WhiteboxAccumulator>(bytes),
                 CheckpointError);

    const std::string path = temp_path("hostile_series");
    write_bytes(path, bytes);
    EXPECT_THROW((void)Session().merge_whitebox({path}), CheckpointError);
    std::remove(path.c_str());
}

TEST(PwcetCheckpointFile, LoadNamesThePathOnFailure) {
    const std::string missing = temp_path("does_not_exist");
    try {
        (void)load_pwcet_checkpoint(missing);
        FAIL() << "expected CheckpointError";
    } catch (const CheckpointError& e) {
        EXPECT_NE(std::string(e.what()).find(missing), std::string::npos);
    }
}

TEST(ScenarioFingerprint, IdentifiesTheCampaign) {
    const std::uint64_t base = small_scenario().fingerprint();
    EXPECT_EQ(small_scenario().fingerprint(), base);  // deterministic
    EXPECT_NE(small_scenario(23).fingerprint(), base);  // seed
    EXPECT_NE(small_scenario(7, 64).fingerprint(), base);  // runs
    EXPECT_NE(small_scenario().max_start_delay(11).fingerprint(), base);
    const Scenario other_platform =
        small_scenario().with_config(MachineConfig::ngmp_var());
    EXPECT_NE(other_platform.fingerprint(), base);  // config
    const Scenario other_contenders =
        small_scenario().rsk_contenders(OpKind::kStore);
    EXPECT_NE(other_contenders.fingerprint(), base);  // contender policy
}

TEST(ScenarioFingerprint, PinnedAcrossRefactors) {
    // Values written before the L2 policies and the store-buffer load
    // gate became constants: fingerprints name every machine lease and
    // every checkpoint, so a change that only restructures code must
    // leave them as they are.
    EXPECT_EQ(MachineConfig::ngmp_ref().fingerprint(),
              0x613c2eefde768d02ULL);
    EXPECT_EQ(MachineConfig::ngmp_var().fingerprint(),
              0xd7b27914e046f70eULL);
    EXPECT_EQ(MachineConfig::textbook().fingerprint(),
              0xbceb04c8a5d5c125ULL);
    EXPECT_EQ(MachineConfig::p4080_like().fingerprint(),
              0xa6713cd5f82161dcULL);
    EXPECT_EQ(MachineConfig::scaled(8, 9).fingerprint(),
              0x4be309373b128ecaULL);
    EXPECT_EQ(MachineConfig::scaled(6, 5).fingerprint(),
              0xe4c9fe32ba3a04a5ULL);
    const struct {
        ArbiterKind kind;
        std::uint64_t fingerprint;
    } arbiters[] = {
        {ArbiterKind::kRoundRobin, 0x613c2eefde768d02ULL},
        {ArbiterKind::kTdma, 0x516343e433d26e76ULL},
        {ArbiterKind::kWeightedRoundRobin, 0x9626a5bf3007ba06ULL},
        {ArbiterKind::kFixedPriority, 0x5fed54b7f036c452ULL},
    };
    for (const auto& [kind, fingerprint] : arbiters) {
        MachineConfig config = MachineConfig::ngmp_ref();
        config.arbiter = kind;
        EXPECT_EQ(config.fingerprint(), fingerprint) << short_name(kind);
    }
    EXPECT_EQ(build_campaign(CampaignKnobs{}).scenario.fingerprint(),
              0x2b7aed66c826eb1fULL);
}

TEST(MergeCheckpoints, RejectsMismatchedDuplicateAndMissingSlices) {
    const PwcetCheckpoint whole = make_checkpoint(7);
    const PwcetCheckpoint other_seed = make_checkpoint(23);
    EXPECT_THROW((void)merge_pwcet_checkpoints({whole, other_seed}),
                 CheckpointError);

    // Duplicate slice: the same shards twice.
    EXPECT_THROW((void)merge_pwcet_checkpoints({whole, whole}),
                 CheckpointError);

    // Missing slice: half a campaign is not a campaign.
    const PwcetCheckpoint half = make_checkpoint(7, {0, 2});
    EXPECT_THROW((void)merge_pwcet_checkpoints({half}), CheckpointError);

    EXPECT_THROW((void)merge_pwcet_checkpoints({}), CheckpointError);
}

// The headline contract (acceptance criterion): for several seeds, a
// campaign run as 1, 2 and 4 checkpointed slices — at jobs 1 and 4 —
// merges to the bit-identical result of the monolithic session.pwcet.
TEST(MergeCheckpoints, SliceThenMergeIsBitIdenticalToMonolithic) {
    for (const std::uint64_t seed : {7ull, 23ull}) {
        const Scenario scenario = small_scenario(seed);
        const PwcetSpec spec = small_spec();

        Session monolithic;
        monolithic.jobs(1);
        const PwcetCampaignResult reference =
            monolithic.pwcet(scenario, spec);

        for (const std::size_t slices : {1u, 2u, 4u}) {
            for (const std::size_t jobs : {1u, 4u}) {
                std::vector<std::string> paths;
                Session worker;
                worker.jobs(jobs);
                for (std::size_t i = 0; i < slices; ++i) {
                    const std::string path = temp_path(
                        "slice_" + std::to_string(seed) + "_" +
                        std::to_string(slices) + "_" +
                        std::to_string(jobs) + "_" + std::to_string(i));
                    (void)worker.checkpoint(scenario, spec,
                                            {i, slices}, path);
                    paths.push_back(path);
                }
                Session merger;
                const MergedPwcetCampaign merged = merger.merge(paths);
                const PwcetCampaignResult& r = merged.result;
                const std::string label =
                    "seed " + std::to_string(seed) + " slices " +
                    std::to_string(slices) + " jobs " +
                    std::to_string(jobs);
                EXPECT_EQ(r.runs, reference.runs) << label;
                EXPECT_EQ(r.et_isolation, reference.et_isolation) << label;
                EXPECT_EQ(r.nr, reference.nr) << label;
                EXPECT_EQ(r.high_water_mark, reference.high_water_mark)
                    << label;
                EXPECT_EQ(r.low_water_mark, reference.low_water_mark)
                    << label;
                // Bit-identical floating point: the merge replays the
                // monolithic fold's exact Chan-merge sequence.
                EXPECT_EQ(r.mean, reference.mean) << label;
                EXPECT_EQ(r.stddev, reference.stddev) << label;
                EXPECT_EQ(r.blocks, reference.blocks) << label;
                EXPECT_EQ(r.live_values, reference.live_values) << label;
                EXPECT_EQ(r.fit.mu, reference.fit.mu) << label;
                EXPECT_EQ(r.fit.beta, reference.fit.beta) << label;
                ASSERT_EQ(r.quantiles.size(), reference.quantiles.size());
                for (std::size_t q = 0; q < r.quantiles.size(); ++q) {
                    EXPECT_EQ(r.quantiles[q].pwcet,
                              reference.quantiles[q].pwcet)
                        << label;
                }
                for (const std::string& path : paths) {
                    std::remove(path.c_str());
                }
            }
        }
    }
}

TEST(SessionResume, CompletesAPartiallyCheckpointedCampaign) {
    const Scenario scenario = small_scenario(11);
    const PwcetSpec spec = small_spec();

    Session monolithic;
    monolithic.jobs(1);
    const PwcetCampaignResult reference = monolithic.pwcet(scenario, spec);

    // Checkpoint slices 0 and 2 of 3; resume must run slice 1 itself.
    Session worker;
    worker.jobs(2);
    const std::string p0 = temp_path("resume_0");
    const std::string p2 = temp_path("resume_2");
    (void)worker.checkpoint(scenario, spec, {0, 3}, p0);
    (void)worker.checkpoint(scenario, spec, {2, 3}, p2);

    Session resumer;
    resumer.jobs(4);
    const PwcetCampaignResult r = resumer.resume(scenario, spec, {p0, p2});
    EXPECT_EQ(r.high_water_mark, reference.high_water_mark);
    EXPECT_EQ(r.mean, reference.mean);
    EXPECT_EQ(r.stddev, reference.stddev);
    EXPECT_EQ(r.fit.mu, reference.fit.mu);
    EXPECT_EQ(r.fit.beta, reference.fit.beta);
    ASSERT_EQ(r.quantiles.size(), reference.quantiles.size());
    EXPECT_EQ(r.quantiles[0].pwcet, reference.quantiles[0].pwcet);

    // The same slice twice is rejected, naming the duplicate shard...
    Session duplicate_resumer;
    EXPECT_THROW((void)duplicate_resumer.resume(scenario, spec, {p0, p0}),
                 CheckpointError);
    // ...and a checkpoint from another campaign is rejected outright.
    Session mismatched_resumer;
    const std::string other = temp_path("resume_other");
    Session other_worker;
    (void)other_worker.checkpoint(small_scenario(99), spec, {0, 3}, other);
    EXPECT_THROW(
        (void)mismatched_resumer.resume(scenario, spec, {other, p2}),
        CheckpointError);

    // Resume with no checkpoints is simply the monolithic campaign.
    Session from_scratch;
    from_scratch.jobs(2);
    const PwcetCampaignResult whole =
        from_scratch.resume(scenario, spec, {});
    EXPECT_EQ(whole.mean, reference.mean);
    EXPECT_EQ(whole.fit.mu, reference.fit.mu);

    std::remove(p0.c_str());
    std::remove(p2.c_str());
    std::remove(other.c_str());
}

// ------------------------------------------------- whitebox checkpoints

void expect_same_whitebox(const WhiteboxAccumulator& a,
                          const WhiteboxAccumulator& b,
                          const std::string& label) {
    EXPECT_EQ(a.runs(), b.runs()) << label;
    EXPECT_EQ(a.max_gamma(), b.max_gamma()) << label;
    EXPECT_EQ(a.gamma().buckets(), b.gamma().buckets()) << label;
    EXPECT_EQ(a.ready_contenders().buckets(),
              b.ready_contenders().buckets())
        << label;
    EXPECT_EQ(a.injection_delta().buckets(), b.injection_delta().buckets())
        << label;
    // Run-ordered series, element for element (exact doubles).
    EXPECT_EQ(a.exec_times().values(), b.exec_times().values()) << label;
    EXPECT_EQ(a.extremes().count(), b.extremes().count()) << label;
    if (!a.extremes().empty() && !b.extremes().empty()) {
        EXPECT_EQ(a.extremes().max(), b.extremes().max()) << label;
        EXPECT_EQ(a.extremes().min(), b.extremes().min()) << label;
    }
}

TEST(WhiteboxCheckpointFile, EncodeDecodeRoundTripsBitExactly) {
    Session session;
    session.jobs(2);
    const WhiteboxCheckpoint a = session.checkpoint(
        small_scenario(), SliceSpec{0, 1}, temp_path("wb_roundtrip"));
    const std::vector<std::uint8_t> first = encode_checkpoint(a);
    const WhiteboxCheckpoint b = decode_checkpoint<WhiteboxAccumulator>(first);
    EXPECT_EQ(encode_checkpoint(b), first);
    EXPECT_EQ(b.meta.scenario_fingerprint, a.meta.scenario_fingerprint);
    EXPECT_EQ(b.meta.block_size, 0u);  // no EVT half on whitebox slices
    EXPECT_TRUE(b.meta.exceedance.empty());
    EXPECT_EQ(b.shards.size(), a.shards.size());
    std::remove(temp_path("wb_roundtrip").c_str());
}

TEST(WhiteboxCheckpointFile, PayloadKindsDoNotCrossMerge) {
    // A pwcet checkpoint must never decode as a whitebox one (or vice
    // versa) — same container, tagged payloads.
    const std::vector<std::uint8_t> pwcet_bytes =
        encode_pwcet_checkpoint(make_checkpoint());
    EXPECT_THROW((void)decode_checkpoint<WhiteboxAccumulator>(pwcet_bytes),
                 CheckpointError);

    Session session;
    const WhiteboxCheckpoint whitebox = session.checkpoint(
        small_scenario(), SliceSpec{0, 1}, temp_path("wb_kind"));
    const std::vector<std::uint8_t> whitebox_bytes =
        encode_checkpoint(whitebox);
    EXPECT_THROW((void)decode_pwcet_checkpoint(whitebox_bytes),
                 CheckpointError);
    std::remove(temp_path("wb_kind").c_str());
}

TEST(MergeWhitebox, SliceThenMergeIsBitIdenticalToMonolithic) {
    for (const std::uint64_t seed : {7ull, 23ull}) {
        const Scenario scenario = small_scenario(seed);

        Session monolithic;
        monolithic.jobs(1);
        const engine::WhiteboxCampaignResult reference =
            monolithic.whitebox(scenario);

        for (const std::size_t slices : {1u, 3u}) {
            for (const std::size_t jobs : {1u, 4u}) {
                std::vector<std::string> paths;
                Session worker;
                worker.jobs(jobs);
                for (std::size_t i = 0; i < slices; ++i) {
                    const std::string path = temp_path(
                        "wbslice_" + std::to_string(seed) + "_" +
                        std::to_string(slices) + "_" +
                        std::to_string(jobs) + "_" + std::to_string(i));
                    (void)worker.checkpoint(scenario, {i, slices}, path);
                    paths.push_back(path);
                }
                Session merger;
                const MergedWhiteboxCampaign merged =
                    merger.merge_whitebox(paths);
                const std::string label =
                    "seed " + std::to_string(seed) + " slices " +
                    std::to_string(slices) + " jobs " +
                    std::to_string(jobs);
                EXPECT_EQ(merged.meta.et_isolation, reference.et_isolation)
                    << label;
                EXPECT_EQ(merged.meta.nr, reference.nr) << label;
                expect_same_whitebox(merged.total, reference.stats, label);
                for (const std::string& path : paths) {
                    std::remove(path.c_str());
                }
            }
        }
    }
}

TEST(MergeWhitebox, RejectsMismatchedAndIncompleteSlices) {
    Session session;
    session.jobs(2);
    const std::string p0 = temp_path("wb_rej_0");
    const std::string p1 = temp_path("wb_rej_1");
    (void)session.checkpoint(small_scenario(7), SliceSpec{0, 2}, p0);
    (void)session.checkpoint(small_scenario(7), SliceSpec{1, 2}, p1);

    // Missing slice.
    Session incomplete;
    EXPECT_THROW((void)incomplete.merge_whitebox({p0}), CheckpointError);
    // Duplicate slice.
    Session duplicated;
    EXPECT_THROW((void)duplicated.merge_whitebox({p0, p0, p1}),
                 CheckpointError);
    // Another campaign's slice.
    const std::string other = temp_path("wb_rej_other");
    Session other_session;
    (void)other_session.checkpoint(small_scenario(99), SliceSpec{1, 2},
                                   other);
    Session mismatched;
    EXPECT_THROW((void)mismatched.merge_whitebox({p0, other}),
                 CheckpointError);
    // A pwcet file in a whitebox merge is rejected by payload kind.
    const std::string pwcet_path = temp_path("wb_rej_pwcet");
    Session pwcet_session;
    pwcet_session.jobs(2);
    (void)pwcet_session.checkpoint(small_scenario(7), small_spec(),
                                   SliceSpec{1, 2}, pwcet_path);
    Session cross;
    EXPECT_THROW((void)cross.merge_whitebox({p0, pwcet_path}),
                 CheckpointError);

    std::remove(p0.c_str());
    std::remove(p1.c_str());
    std::remove(other.c_str());
    std::remove(pwcet_path.c_str());
}

// ------------------------------------------------ golden v2 containers

// tests/golden holds checkpoints written by an earlier build with
// `rrbtool pwcet --runs 8 --block-size 2 --iterations 10 --seed 7
// --shard 0/1 --checkpoint-out pwcet-v2.ckpt` and the same flags (minus
// --block-size) for `whitebox`. They pin the
// v2 container bytes: a codec change that still round-trips its own
// output but no longer reads or writes these files fails here.

std::string golden_path(const std::string& name) {
    return std::string(RRB_SOURCE_DIR) + "/tests/golden/" + name;
}

std::vector<std::uint8_t> read_bytes(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

/// The scenario the CLI builds for `--runs 8 --iterations 10 --seed 7`.
Scenario golden_scenario() {
    CampaignKnobs knobs;
    knobs.iterations = 10;
    knobs.runs = 8;
    knobs.seed = 7;
    return build_campaign(knobs).scenario;
}

void expect_same_bits(double a, double b, const char* what) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b))
        << what;
}

TEST(GoldenCheckpoint, PwcetV2LoadsMergesAndReencodesByteForByte) {
    const std::string path = golden_path("pwcet-v2.ckpt");
    const PwcetCheckpoint golden = load_pwcet_checkpoint(path);
    EXPECT_EQ(encode_pwcet_checkpoint(golden), read_bytes(path));
    EXPECT_EQ(golden.meta.total_runs, 8u);
    EXPECT_EQ(golden.meta.block_size, 2u);

    PwcetSpec spec;
    spec.block_size = 2;
    Session session;
    session.jobs(2);
    const PwcetCampaignResult fresh = session.pwcet(golden_scenario(), spec);
    const PwcetCampaignResult merged = Session().merge({path}).result;
    EXPECT_EQ(merged.et_isolation, fresh.et_isolation);
    EXPECT_EQ(merged.nr, fresh.nr);
    EXPECT_EQ(merged.runs, fresh.runs);
    EXPECT_EQ(merged.high_water_mark, fresh.high_water_mark);
    EXPECT_EQ(merged.low_water_mark, fresh.low_water_mark);
    expect_same_bits(merged.mean, fresh.mean, "mean");
    expect_same_bits(merged.stddev, fresh.stddev, "stddev");
    EXPECT_EQ(merged.blocks, fresh.blocks);
    expect_same_bits(merged.fit.mu, fresh.fit.mu, "mu");
    expect_same_bits(merged.fit.beta, fresh.fit.beta, "beta");
    ASSERT_EQ(merged.quantiles.size(), fresh.quantiles.size());
    for (std::size_t q = 0; q < merged.quantiles.size(); ++q) {
        expect_same_bits(merged.quantiles[q].pwcet, fresh.quantiles[q].pwcet,
                         "quantile");
    }
}

TEST(GoldenCheckpoint, WhiteboxV2LoadsMergesAndReencodesByteForByte) {
    const std::string path = golden_path("whitebox-v2.ckpt");
    const WhiteboxCheckpoint golden = load_checkpoint<WhiteboxAccumulator>(path);
    EXPECT_EQ(encode_checkpoint(golden), read_bytes(path));
    EXPECT_EQ(golden.meta.total_runs, 8u);

    Session session;
    session.jobs(2);
    const engine::WhiteboxCampaignResult fresh =
        session.whitebox(golden_scenario());
    const MergedWhiteboxCampaign merged = Session().merge_whitebox({path});
    EXPECT_EQ(merged.meta.et_isolation, fresh.et_isolation);
    EXPECT_EQ(merged.meta.nr, fresh.nr);
    expect_same_whitebox(merged.total, fresh.stats, "golden whitebox");
}

TEST(CheckpointKind, ReadsThePayloadByteAndFailsAsLoadWould) {
    EXPECT_EQ(checkpoint_kind(golden_path("pwcet-v2.ckpt")),
              PayloadKind::kPwcet);
    EXPECT_EQ(checkpoint_kind(golden_path("whitebox-v2.ckpt")),
              PayloadKind::kWhitebox);

    // Every file the container checks reject fails the peek with the
    // exact error a load reports.
    const auto error = [](auto&& call) -> std::string {
        try {
            (void)call();
        } catch (const CheckpointError& e) {
            return e.what();
        }
        return "no error";
    };
    const std::vector<std::uint8_t> good =
        read_bytes(golden_path("pwcet-v2.ckpt"));
    std::vector<std::uint8_t> future = good;
    future[8] += 1;  // the version, with a valid checksum
    reseal(future);
    std::vector<std::uint8_t> flipped = good;
    flipped[good.size() / 2] ^= 0x01;
    std::vector<std::uint8_t> magic = good;
    magic[0] = 'X';
    const std::string path = temp_path("kind_broken");
    for (const std::vector<std::uint8_t>& bytes :
         {future, flipped, magic, std::vector<std::uint8_t>(5, 0)}) {
        write_bytes(path, bytes);
        const std::string peeked = error([&] { return checkpoint_kind(path); });
        EXPECT_NE(peeked, "no error");
        EXPECT_EQ(peeked,
                  error([&] { return load_pwcet_checkpoint(path); }));
    }
    std::remove(path.c_str());
    EXPECT_EQ(error([&] { return checkpoint_kind(path); }),
              error([&] { return load_pwcet_checkpoint(path); }));
}

}  // namespace
}  // namespace rrb
