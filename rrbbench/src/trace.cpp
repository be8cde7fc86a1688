#include "trace.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <memory>
#include <string_view>

#include "core/analytic.h"
#include "core/calibrate.h"
#include "core/campaign.h"
#include "core/estimator.h"
#include "core/experiment.h"
#include "engine/reduce.h"
#include "engine/seed_sequence.h"
#include "kernels/rsk.h"
#include "machine/machine.h"
#include "obs/telemetry.h"
#include "replay/script_cache.h"
#include "sched/batch_spec.h"
#include "sim/rng.h"
#include "stats/checkpoint.h"
#include "stats/periodicity.h"
#include "stats/streaming.h"

namespace rrbbench {

namespace {

namespace fs = std::filesystem;
namespace obs = rrb::obs;

constexpr std::size_t kTraceRuns = 8000;       // traced j1 campaign runs
constexpr std::size_t kEngineRuns = 16000;     // engine reduce runs
constexpr std::size_t kArmedSamples = 128;     // armed vs unarmed runs
constexpr int kDecodeReps = 8;
constexpr int kIsolationReps = 16;
constexpr int kCalibrateReps = 3;
constexpr int kCliReps = 5;
constexpr int kOverheadReps = 3;

/// The main thread's spans, kept in memory: name, start, end, parent.
/// A layer is the name's prefix before the first dot ("machine" for
/// "machine.run_core"); "bench.*" spans group work and belong to none.
class SpanLog {
public:
    struct Record {
        const char* name;       ///< static string
        std::uint32_t parent;   ///< 1-based record index, 0 = root
        std::uint64_t start_ns;
        std::uint64_t end_ns;
    };

    class Scope {
    public:
        Scope(SpanLog& log, const char* name)
            : log_(log), id_(log.open(name)) {}
        ~Scope() { log_.close(); }
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;
        [[nodiscard]] std::uint32_t id() const noexcept { return id_; }

    private:
        SpanLog& log_;
        std::uint32_t id_;
    };

    std::uint32_t open(const char* name) {
        records_.push_back(
            {name, stack_.empty() ? 0 : stack_.back(), now_ns(), 0});
        stack_.push_back(static_cast<std::uint32_t>(records_.size()));
        return stack_.back();
    }
    void close() {
        records_[stack_.back() - 1].end_ns = now_ns();
        stack_.pop_back();
    }
    /// Records a child of `parent` whose duration was measured elsewhere
    /// (by the library's own telemetry span), ending with its parent.
    void add_child(std::uint32_t parent, const char* name,
                   std::uint64_t duration_ns) {
        const Record& p = records_[parent - 1];
        const std::uint64_t end = p.end_ns;
        records_.push_back({name, parent, end - std::min(duration_ns,
                                                         end - p.start_ns),
                            end});
    }

    [[nodiscard]] std::vector<double> durations(std::string_view name) const {
        std::vector<double> out;
        for (const Record& r : records_) {
            if (name == r.name) {
                out.push_back(static_cast<double>(r.end_ns - r.start_ns));
            }
        }
        return out;
    }

    /// Span time not covered by child spans, per record.
    [[nodiscard]] std::vector<double> self_ns() const {
        std::vector<double> self(records_.size());
        for (std::size_t i = 0; i < records_.size(); ++i) {
            self[i] = static_cast<double>(records_[i].end_ns -
                                          records_[i].start_ns);
        }
        for (const Record& r : records_) {
            if (r.parent != 0) {
                self[r.parent - 1] -= static_cast<double>(r.end_ns - r.start_ns);
            }
        }
        return self;
    }

    [[nodiscard]] std::map<std::string, double> self_ns_by_layer() const {
        const std::vector<double> self = self_ns();
        std::map<std::string, double> layers;
        for (std::size_t i = 0; i < records_.size(); ++i) {
            const std::string_view name = records_[i].name;
            layers[std::string(name.substr(0, name.find('.')))] += self[i];
        }
        return layers;
    }

    /// Share of the spans called `name` that none of their children
    /// account for.
    [[nodiscard]] double uncovered_frac(std::string_view name) const {
        const std::vector<double> self = self_ns();
        double total = 0.0;
        double uncovered = 0.0;
        for (std::size_t i = 0; i < records_.size(); ++i) {
            if (name == records_[i].name) {
                total += static_cast<double>(records_[i].end_ns -
                                             records_[i].start_ns);
                uncovered += self[i];
            }
        }
        return uncovered / total;
    }

    void write_json(const fs::path& path) const {
        std::ofstream out(path);
        out << "{\"clock\": \"steady_clock ns\", \"spans\": [\n";
        for (std::size_t i = 0; i < records_.size(); ++i) {
            const Record& r = records_[i];
            out << (i == 0 ? "" : ",\n") << "{\"id\": " << i + 1
                << ", \"parent\": " << r.parent
                << ", \"name\": " << json_string(r.name)
                << ", \"start_ns\": " << r.start_ns
                << ", \"end_ns\": " << r.end_ns << "}";
        }
        out << "\n]}\n";
    }

private:
    std::vector<Record> records_;
    std::vector<std::uint32_t> stack_;
};

using Scope = SpanLog::Scope;

/// What a campaign's inputs lower to, as the engine sees them.
struct CampaignInputs {
    explicit CampaignInputs(const rrb::Scenario& s)
        : config(s.config()),
          scua(s.scua_program()),
          contenders(s.contender_programs()),
          protocol(s.run_protocol()),
          fingerprint(rrb::detail::campaign_fingerprint(scua, contenders,
                                                        protocol)) {}
    rrb::MachineConfig config;
    rrb::Program scua;
    std::vector<rrb::Program> contenders;
    rrb::HwmCampaignOptions protocol;
    std::uint64_t fingerprint;
};

/// A machine hosting the campaign's programs, with decoded scripts.
struct HostedCampaign {
    std::unique_ptr<rrb::Machine> machine;
    rrb::replay::ScriptCache scripts;
};

HostedCampaign host_campaign(SpanLog& log, const CampaignInputs& in,
                             int decodes) {
    HostedCampaign hosted;
    {
        const Scope span(log, "machine.construct");
        hosted.machine = std::make_unique<rrb::Machine>(in.config);
    }
    {
        const Scope span(log, "machine.load");
        hosted.machine->load_program(0, in.scua);
        for (rrb::CoreId c = 1; c < in.config.num_cores; ++c) {
            rrb::Program contender =
                in.contenders[(c - 1) % in.contenders.size()];
            contender.iterations = in.protocol.max_cycles_per_run;
            hosted.machine->load_program(c, std::move(contender));
        }
    }
    for (int i = 0; i < decodes; ++i) {
        hosted.scripts.clear();
        const Scope span(log, "replay.decode");
        rrb::replay::prepare_scripts(hosted.scripts, *hosted.machine,
                                     in.fingerprint);
    }
    return hosted;
}

/// Run `run` of the campaign protocol on a hosted machine: the same
/// steps detail::execute_campaign_run takes on a reused machine.
/// `armed` runs interpret (replay refuses armed machines).
rrb::Cycle traced_run(SpanLog& log, HostedCampaign& hosted,
                      const CampaignInputs& in, std::uint64_t run,
                      bool armed, const char* run_core_span) {
    rrb::Machine& m = *hosted.machine;
    const rrb::CoreId cores = in.config.num_cores;
    {
        const Scope span(log, "machine.reset");
        rrb::Pcg32 rng(rrb::engine::SeedSequence(in.protocol.seed)
                           .seed_for(run),
                       run);
        m.reset_keep_programs();
        m.restart_program(0, 0);
        for (rrb::CoreId c = 1; c < cores; ++c) {
            const rrb::Cycle delay =
                in.protocol.max_start_delay == 0
                    ? 0
                    : rng.next_below(static_cast<std::uint32_t>(
                          in.protocol.max_start_delay + 1));
            m.restart_program(c, delay);
        }
        for (rrb::CoreId c = 0; c < cores; ++c) {
            m.attach_replay(c, armed ? nullptr : hosted.scripts.per_core[c]);
        }
    }
    {
        const Scope span(log, "machine.warm");
        for (rrb::CoreId c = 0; c < cores; ++c) m.warm_static_footprint(c);
    }
    const Scope span(log, run_core_span);
    return m.run_core(0, in.protocol.max_cycles_per_run);
}

struct CampaignTrace {
    std::uint64_t runs = 0;
    double cycles = 0.0;
    double events_skipped = 0.0;
    double cycles_skipped = 0.0;
};

/// The pwcet campaign at --jobs 1, taken apart: construct, load and
/// decode once, then per run reset, warm, run_core, snapshot and fold;
/// per shard the in-order merge; finally the isolation baseline and the
/// fit. The result must equal Session::pwcet bit for bit.
CampaignTrace trace_campaign(SpanLog& log, const rrb::Scenario& scenario,
                             int decodes, Ledger* ledger) {
    const Scope campaign(log, "bench.campaign");
    const CampaignInputs in(scenario);
    HostedCampaign hosted = host_campaign(log, in, decodes);
    const rrb::PwcetSpec spec;
    const rrb::engine::ReducePlan plan =
        rrb::engine::ReducePlan::for_count(in.protocol.runs);

    CampaignTrace trace;
    rrb::PwcetAccumulator total(spec.block_size);
    for (std::size_t shard = 0; shard < plan.shards(); ++shard) {
        rrb::PwcetAccumulator acc(spec.block_size);
        for (std::uint64_t run = plan.shard_begin(shard);
             run < plan.shard_end(shard); ++run) {
            const Scope per_run(log, "bench.run");
            const rrb::Cycle finish =
                traced_run(log, hosted, in, run, false, "machine.run_core");
            trace.runs += 1;
            trace.cycles += static_cast<double>(finish);
            trace.events_skipped +=
                static_cast<double>(hosted.machine->events_skipped());
            trace.cycles_skipped +=
                static_cast<double>(hosted.machine->cycles_skipped());
            rrb::Measurement m;
            {
                const Scope span(log, "core.snapshot");
                m = rrb::detail::snapshot_measurement(*hosted.machine, 0,
                                                      finish, false);
            }
            const Scope span(log, "stats.fold");
            acc.add(run, m);
        }
        if (shard == 0) {
            total = std::move(acc);
        } else {
            const Scope span(log, "stats.shard_merge");
            total.merge(acc);
        }
    }
    rrb::Measurement isolation;
    {
        const Scope span(log, "core.isolation");
        isolation = rrb::Session().isolation(scenario);
    }
    rrb::PwcetCampaignResult result;
    {
        const Scope span(log, "stats.fit");
        result = rrb::finalize_pwcet_campaign(total, isolation.exec_time,
                                              isolation.bus_requests,
                                              spec.exceedance);
    }
    if (ledger != nullptr) {
        rrb::Session session;
        session.jobs(full_width());
        ledger->record(same_bits(result, session.pwcet(scenario, spec)),
                       "traced campaign == Session::pwcet, bit for bit");
    }
    return trace;
}

/// Armed ÷ unarmed run_core time on the same run indices, plus the
/// closed-accounting and equal-finish checks of every armed run.
double trace_attribution(SpanLog& log, const rrb::Scenario& scenario,
                         Ledger& ledger) {
    const Scope group(log, "bench.attribution");
    const CampaignInputs in(scenario);
    HostedCampaign hosted = host_campaign(log, in, 1);
    rrb::Machine& m = *hosted.machine;
    bool closed = true;
    bool same = true;
    const std::uint64_t stride = std::max<std::uint64_t>(
        1, in.protocol.runs / kArmedSamples);
    for (std::size_t k = 0; k < kArmedSamples; ++k) {
        const std::uint64_t run = k * stride;
        const rrb::Cycle unarmed =
            traced_run(log, hosted, in, run, false, "machine.run_core_unarmed");
        m.arm_attribution();
        const rrb::Cycle armed =
            traced_run(log, hosted, in, run, true, "machine.run_core_armed");
        m.finalize_attribution();
        for (rrb::CoreId c = 0; c < in.config.num_cores; ++c) {
            closed = closed && m.attribution().total(c) == m.now();
        }
        m.disarm_attribution();
        same = same && armed == unarmed;
    }
    ledger.record(closed, "traced attribution: accounting closed");
    ledger.record(same, "traced attribution: armed == unarmed finish cycles");
    const std::vector<double> armed = log.durations("machine.run_core_armed");
    const std::vector<double> unarmed =
        log.durations("machine.run_core_unarmed");
    double armed_ns = 0.0;
    double unarmed_ns = 0.0;
    for (const double v : armed) armed_ns += v;
    for (const double v : unarmed) unarmed_ns += v;
    return armed_ns / unarmed_ns;
}

struct EngineTrace {
    double rate_1 = 0.0;
    double rate_n = 0.0;
    double busy_frac = 0.0;
    std::vector<double> shard_ns;  ///< jN, per shard: first fold to last
    obs::CounterSnapshot counters;  ///< jN reduce
};

/// engine::reduce_indexed_shards at --jobs 1 and --jobs N with a
/// benchmark-supplied fold that times every run it folds.
EngineTrace trace_engine(SpanLog& log, const rrb::Scenario& scenario,
                         Ledger& ledger) {
    const CampaignInputs in(scenario);
    const rrb::engine::ReducePlan plan =
        rrb::engine::ReducePlan::for_count(in.protocol.runs);
    const rrb::PwcetSpec spec;
    EngineTrace trace;
    for (const std::size_t jobs : {std::size_t{1}, full_width()}) {
        std::vector<std::uint64_t> first(plan.shards(), ~std::uint64_t{0});
        std::vector<std::uint64_t> last(plan.shards(), 0);
        std::vector<std::uint64_t> busy(plan.shards(), 0);
        // Each shard is folded whole by one worker, so each slot has one
        // writer; the pool's wait_idle orders the writes before the reads.
        const auto fold = [&](rrb::PwcetAccumulator& acc, std::uint64_t run) {
            const std::uint64_t t0 = now_ns();
            acc.add(run, rrb::detail::hwm_campaign_measure(
                             in.config, in.scua, in.contenders, in.protocol,
                             run, in.fingerprint));
            const std::uint64_t t1 = now_ns();
            const std::size_t shard = run / plan.shard_size;
            first[shard] = std::min(first[shard], t0);
            last[shard] = t1;
            busy[shard] += t1 - t0;
        };
        rrb::engine::EngineOptions options;
        options.jobs = jobs;
        std::vector<rrb::PwcetAccumulator> shards;
        const TelemetryOn telemetry;
        const obs::CounterSnapshot before =
            obs::TelemetryRegistry::instance().counters();
        const std::uint64_t start = now_ns();
        {
            const Scope span(log, jobs == 1 ? "engine.reduce_j1"
                                            : "engine.reduce_jN");
            shards = rrb::engine::reduce_indexed_shards(
                plan, {0, plan.shards()}, fold,
                rrb::PwcetAccumulator(spec.block_size), options);
        }
        const double wall = static_cast<double>(now_ns() - start);
        const double rate = static_cast<double>(in.protocol.runs) / wall * 1e9;
        if (jobs == 1) {
            trace.rate_1 = rate;
        } else {
            trace.rate_n = rate;
            trace.counters = obs::TelemetryRegistry::instance()
                                 .counters()
                                 .delta_since(before);
            double busy_ns = 0.0;
            for (std::size_t s = 0; s < plan.shards(); ++s) {
                busy_ns += static_cast<double>(busy[s]);
                trace.shard_ns.push_back(
                    static_cast<double>(last[s] - first[s]));
            }
            trace.busy_frac = busy_ns / (wall * static_cast<double>(jobs));

            rrb::PwcetAccumulator total = std::move(shards[0]);
            for (std::size_t s = 1; s < shards.size(); ++s) {
                total.merge(shards[s]);
            }
            const rrb::Measurement isolation =
                rrb::Session().isolation(scenario);
            rrb::Session session;
            session.jobs(jobs);
            ledger.record(
                same_bits(rrb::finalize_pwcet_campaign(
                              total, isolation.exec_time,
                              isolation.bus_requests, spec.exceedance),
                          session.pwcet(scenario, spec)),
                "engine reduce with a timing fold == Session::pwcet");
        }
    }
    return trace;
}

/// estimate_ubd taken apart from outside for one grid config: the
/// delta_nop calibration, the saturation probe, the k sweep of
/// isolation and contention runs, and the consensus period detection.
void trace_estimate(SpanLog& log, const EstimateConfig& cfg,
                    Ledger& ledger) {
    const Scope group(log, "bench.estimate");
    const rrb::MachineConfig config = cfg.config();
    const rrb::UbdEstimatorOptions opt = cfg.options();

    rrb::NopCalibration cal;
    for (int i = 0; i < kCalibrateReps; ++i) {
        const Scope span(log, "core.calibrate");
        cal = rrb::calibrate_delta_nop(config, 2048, 64, opt.nop_latency);
    }
    const std::vector<rrb::Program> contenders =
        rrb::make_rsk_contenders(config, opt.access, opt.unroll);
    {
        const Scope span(log, "core.saturation");
        std::unique_ptr<rrb::Machine> machine;
        {
            const Scope construct(log, "machine.construct");
            machine = std::make_unique<rrb::Machine>(config);
        }
        for (rrb::CoreId c = 1; c < config.num_cores; ++c) {
            rrb::Program contender = contenders[(c - 1) % contenders.size()];
            contender.iterations = opt.max_cycles_per_run;
            machine->load_program(c, contender);
            machine->warm_static_footprint(c);
        }
        static_cast<void>(machine->run(50'000));
    }

    // The estimator's sweep shape: one unroll factor sized so the
    // largest body fits the IL1, rsk-nop scua bodies at fixed bases.
    const std::uint64_t il1_instrs =
        config.core.il1_geometry.size_bytes / rrb::Program::kInstrBytes;
    const std::uint64_t largest_group =
        static_cast<std::uint64_t>(config.core.dl1_geometry.ways + 1) *
        (1 + opt.k_max);
    const auto unroll = static_cast<std::uint32_t>(std::min<std::uint64_t>(
        opt.unroll, std::max<std::uint64_t>(1, il1_instrs / largest_group)));
    rrb::RskParams params;
    params.dl1_geometry = config.core.dl1_geometry;
    params.il1_geometry = config.core.il1_geometry;
    params.access = opt.access;
    params.unroll = unroll;
    params.iterations = opt.rsk_iterations;
    params.nop_latency = opt.nop_latency;
    params.data_base = 0x0010'0000;
    params.code_base = 0x0000'0000;

    std::vector<double> dbus;
    std::uint64_t nr = 0;
    for (std::uint32_t k = 0; k <= opt.k_max; ++k) {
        const rrb::Program scua = rrb::make_rsk_nop(params, k);
        rrb::Measurement isolation;
        {
            const Scope span(log, "core.isolation_run");
            isolation = rrb::run_isolation(config, scua, 0,
                                           opt.max_cycles_per_run);
        }
        {
            // The construction run_contention pays inside, on its own.
            std::unique_ptr<rrb::Machine> probe;
            {
                const Scope span(log, "machine.construct");
                probe = std::make_unique<rrb::Machine>(config);
            }
        }
        rrb::Measurement contention;
        {
            const Scope span(log, "core.contention_run");
            contention = rrb::run_contention(config, scua, contenders, 0,
                                             opt.max_cycles_per_run);
        }
        if (k == 0) nr = isolation.bus_requests;
        dbus.push_back(static_cast<double>(contention.exec_time) -
                       static_cast<double>(isolation.exec_time));
    }
    const auto [lo, hi] = std::minmax_element(dbus.begin(), dbus.end());
    rrb::PeriodConsensus consensus;
    {
        const Scope span(log, "stats.period");
        consensus =
            rrb::consensus_period(dbus, (*hi - *lo) * opt.relative_tolerance);
    }
    // Period (nop steps) to cycles: the candidate whose predicted
    // per-request amplitude matches the measured one.
    const rrb::Cycle dn = cal.rounded();
    const double amplitude = nr == 0 ? 0.0 : (*hi - *lo) / static_cast<double>(nr);
    rrb::Cycle ubd = 0;
    double best = 1e300;
    for (rrb::Cycle g = 1; g <= dn; ++g) {
        if (dn % g != 0) continue;
        const rrb::Cycle candidate = consensus.period * g;
        const double error = std::abs(amplitude - static_cast<double>(candidate - g));
        if (error < best) {
            best = error;
            ubd = candidate;
        }
    }
    ledger.record(consensus.found() &&
                      ubd == rrb::ubd_eq1(config.num_cores,
                                          config.load_hit_service()),
                  "traced estimate " + cfg.name + ": ubd == ubd_eq1");
}

struct FarmTrace {
    double bytes_per_slice = 0.0;
};

/// The checkpoint round trip taken apart: every slice through
/// Session::checkpoint, then its checkpoint through each codec and file
/// step on its own; the fan-in by merge_pwcet_checkpoints and by
/// Session::merge; Session::resume after every 16th file is lost.
FarmTrace trace_farm(SpanLog& log, std::uint64_t seed,
                     const Workspace& workspace, Ledger& ledger) {
    const Scope group(log, "bench.farm");
    const rrb::Scenario scenario = cli_scenario(40, kFarmRuns, seed);
    const rrb::PwcetSpec spec;
    const fs::path dir = workspace.fresh("trace-farm");
    const fs::path copies = workspace.fresh("trace-farm-copies");
    rrb::Session session;
    for (int i = 0; i < kIsolationReps; ++i) {
        const Scope span(log, "core.isolation");
        static_cast<void>(session.isolation(scenario));
    }
    std::vector<std::string> paths;
    std::vector<rrb::PwcetCheckpoint> loaded;
    double bytes = 0.0;
    for (std::size_t i = 0; i < kFarmSlices; ++i) {
        paths.push_back((dir / ("slice-" + std::to_string(i) + ".ckpt")).string());
        rrb::PwcetCheckpoint checkpoint;
        {
            const Scope span(log, "core.checkpoint_slice");
            checkpoint = session.checkpoint(scenario, spec, {i, kFarmSlices},
                                            paths.back());
        }
        std::vector<std::uint8_t> encoded;
        {
            const Scope span(log, "stats.ckpt_encode");
            encoded = rrb::encode_pwcet_checkpoint(checkpoint);
        }
        bytes += static_cast<double>(encoded.size());
        {
            const Scope span(log, "stats.ckpt_decode");
            static_cast<void>(rrb::decode_pwcet_checkpoint(encoded));
        }
        {
            const Scope span(log, "stats.ckpt_save");
            rrb::save_pwcet_checkpoint(
                (copies / ("slice-" + std::to_string(i) + ".ckpt")).string(),
                checkpoint);
        }
        const Scope span(log, "stats.ckpt_load");
        loaded.push_back(rrb::load_pwcet_checkpoint(paths.back()));
    }
    rrb::MergedPwcetCampaign direct;
    {
        const Scope span(log, "stats.ckpt_merge");
        direct = rrb::merge_pwcet_checkpoints(std::move(loaded), paths);
    }
    rrb::MergedPwcetCampaign merged;
    {
        const Scope span(log, "core.merge");
        merged = session.merge(paths);
    }
    std::vector<std::string> kept;
    for (std::size_t i = 0; i < paths.size(); ++i) {
        if ((i + 1) % kFarmDeleteEvery == 0) {
            fs::remove(paths[i]);
        } else {
            kept.push_back(paths[i]);
        }
    }
    rrb::PwcetCampaignResult resumed;
    {
        const Scope span(log, "core.resume");
        resumed = session.resume(scenario, spec, kept);
    }
    ledger.record(same_bits(direct.result, merged.result) &&
                      same_bits(merged.result, resumed),
                  "traced farm: merged == resumed, bit for bit");
    return {bytes / static_cast<double>(kFarmSlices)};
}

struct SchedTrace {
    double run_s = 0.0;
    obs::CounterSnapshot counters;
};

SchedTrace trace_sched(SpanLog& log, std::uint64_t seed, Ledger& ledger) {
    const std::vector<rrb::BatchItem> items =
        rrb::sched::parse_batch_spec(batch_spec(seed));
    rrb::Session session;
    session.jobs(full_width());
    SchedTrace trace;
    rrb::BatchResult result;
    {
        const TelemetryOn telemetry;
        const obs::CounterSnapshot before =
            obs::TelemetryRegistry::instance().counters();
        const std::uint64_t start = now_ns();
        {
            const Scope span(log, "sched.batch");
            result = session.batch(items);
        }
        trace.run_s = static_cast<double>(now_ns() - start) * 1e-9;
        trace.counters =
            obs::TelemetryRegistry::instance().counters().delta_since(before);
    }
    bool all_ok = result.points.size() == items.size();
    for (const rrb::BatchPointResult& point : result.points) {
        all_ok = all_ok && point.ok;
    }
    const obs::CounterSnapshot& d = trace.counters;
    ledger.record(all_ok && d[obs::kSchedAffinityHits] + d[obs::kSchedSteals] ==
                                d[obs::kSchedDispatches] &&
                      d[obs::kSchedDispatches] == d[obs::kSchedItemsEnqueued],
                  "traced batch: every scenario ok, dispatch invariant holds");
    return trace;
}

/// `rrbtool pwcet` wall time minus the Session::pwcet call it wraps,
/// whose duration comes from the library's own "session.pwcet"
/// telemetry span; recorded as that span's child so the cli layer's
/// self time is the overhead.
std::vector<double> trace_cli(SpanLog& log, std::uint64_t seed,
                              Ledger& ledger) {
    std::vector<double> overhead;
    for (int i = 0; i < kCliReps; ++i) {
        obs::TelemetryRegistry& registry = obs::TelemetryRegistry::instance();
        const TelemetryOn telemetry;
        registry.reset();
        std::uint32_t id = 0;
        int code = 0;
        std::uint64_t start = now_ns();
        {
            const Scope span(log, "cli.run");
            id = span.id();
            code = run_cli({"pwcet", "--runs", std::to_string(kPwcetJ1Runs),
                            "--jobs", "1", "--seed",
                            std::to_string(derive_seed(seed, 9, i))});
        }
        const double wall = static_cast<double>(now_ns() - start);
        std::uint64_t session_ns = 0;
        for (const obs::SpanRecord& r : registry.spans()) {
            if (std::string_view(r.name) == "session.pwcet" && r.end_ns != 0) {
                session_ns = r.end_ns - r.begin_ns;
            }
        }
        ledger.record(code == 0 && session_ns > 0,
                      "traced cli: pwcet exit 0 with a session.pwcet span");
        log.add_child(id, "core.session_pwcet", session_ns);
        overhead.push_back(wall - static_cast<double>(session_ns));
    }
    return overhead;
}

/// Traced vs untraced j1 campaign rate on the same inputs: the tour's
/// own overhead. Uses a scratch span log so it leaves the layer
/// numbers alone.
double trace_overhead(std::uint64_t seed) {
    std::vector<double> traced;
    std::vector<double> untraced;
    for (int i = 0; i < kOverheadReps; ++i) {
        const std::uint64_t campaign_seed = derive_seed(seed, 10, i);
        const auto start = Clock::now();
        static_cast<void>(run_cli({"pwcet", "--runs",
                                   std::to_string(kPwcetJ1Runs), "--jobs", "1",
                                   "--seed", std::to_string(campaign_seed)}));
        untraced.push_back(seconds_since(start));
        SpanLog scratch;
        const auto traced_start = Clock::now();
        static_cast<void>(trace_campaign(
            scratch, cli_scenario(40, kPwcetJ1Runs, campaign_seed), 1,
            nullptr));
        traced.push_back(seconds_since(traced_start));
    }
    return median(traced) / median(untraced) - 1.0;
}

rrb::Scenario workload_scenario(Workload workload, std::size_t runs,
                                std::uint64_t seed) {
    const std::uint64_t iterations =
        workload == Workload::kAttribution ? kAttributionIterations : 40;
    return cli_scenario(iterations, runs, seed);
}

}  // namespace

void run_traced(Workload workload, std::uint64_t seed,
                const Workspace& workspace, const fs::path& spans_out,
                Ledger& ledger) {
    SpanLog log;
    const CampaignTrace campaign = trace_campaign(
        log, workload_scenario(workload, kTraceRuns, derive_seed(seed, 20, 0)),
        kDecodeReps, &ledger);
    const double attribution_overhead = trace_attribution(
        log,
        workload_scenario(workload, kTraceRuns, derive_seed(seed, 21, 0)),
        ledger);
    const EngineTrace engine = trace_engine(
        log, workload_scenario(workload, kEngineRuns, derive_seed(seed, 22, 0)),
        ledger);
    for (const EstimateConfig& cfg : estimate_grid()) {
        trace_estimate(log, cfg, ledger);
    }
    const FarmTrace farm =
        trace_farm(log, derive_seed(seed, 23, 0), workspace, ledger);
    const SchedTrace sched = trace_sched(log, derive_seed(seed, 24, 0), ledger);
    const std::vector<double> cli_overhead = trace_cli(log, seed, ledger);
    const double tracing_overhead = trace_overhead(seed);
    log.write_json(spans_out);

    const auto med = [&](const char* span) {
        return median(log.durations(span));
    };
    const std::vector<double> run_core = log.durations("machine.run_core");
    double run_core_ns = 0.0;
    for (const double v : run_core) run_core_ns += v;
    const double runs = static_cast<double>(campaign.runs);
    const obs::CounterSnapshot& e = engine.counters;
    const obs::CounterSnapshot& s = sched.counters;

    ledger.metric("machine.run_core_ns_p50", quantile(run_core, 0.5), "ns");
    ledger.metric("machine.run_core_ns_p99", quantile(run_core, 0.99), "ns");
    ledger.metric("machine.host_ns_per_kcycle",
                  run_core_ns / (campaign.cycles / 1000.0), "ns/kcycle");
    ledger.metric("machine.sim_cycles_per_run", campaign.cycles / runs,
                  "cycles");
    ledger.metric("machine.skip_ratio",
                  campaign.cycles_skipped / campaign.cycles, "ratio");
    ledger.metric("machine.events_skipped_per_run",
                  campaign.events_skipped / runs, "count");
    ledger.metric("machine.reset_ns", med("machine.reset"), "ns");
    ledger.metric("machine.warm_ns", med("machine.warm"), "ns");
    ledger.metric("machine.construct_ns", med("machine.construct"), "ns");
    ledger.metric("machine.attribution_overhead", attribution_overhead,
                  "ratio");
    ledger.metric("replay.decode_ns", med("replay.decode"), "ns");
    ledger.metric("replay.decodes",
                  static_cast<double>(e[obs::kReplayDecodes] +
                                      s[obs::kReplayDecodes]),
                  "count");
    ledger.metric("replay.replayed_frac",
                  static_cast<double>(e[obs::kReplayRuns] +
                                      s[obs::kReplayRuns]) /
                      static_cast<double>(e[obs::kRunsCompleted] +
                                          s[obs::kRunsCompleted]),
                  "ratio");
    ledger.metric("core.contention_run_ns", med("core.contention_run"), "ns");
    ledger.metric("core.calibrate_ns", med("core.calibrate"), "ns");
    ledger.metric("core.isolation_ns", med("core.isolation"), "ns");
    ledger.metric("core.snapshot_ns", med("core.snapshot"), "ns");
    const std::vector<double> slices = log.durations("core.checkpoint_slice");
    ledger.metric("core.checkpoint_slice_ns_p50", quantile(slices, 0.5), "ns");
    ledger.metric("core.checkpoint_slice_ns_p99", quantile(slices, 0.99),
                  "ns");
    ledger.metric("core.merge_ns", med("core.merge"), "ns");
    ledger.metric("core.resume_ns", med("core.resume"), "ns");
    ledger.metric("stats.fold_ns", med("stats.fold"), "ns");
    ledger.metric("stats.shard_merge_ns", med("stats.shard_merge"), "ns");
    ledger.metric("stats.fit_ns", med("stats.fit"), "ns");
    ledger.metric("stats.ckpt_encode_ns", med("stats.ckpt_encode"), "ns");
    ledger.metric("stats.ckpt_decode_ns", med("stats.ckpt_decode"), "ns");
    ledger.metric("stats.ckpt_save_ns", med("stats.ckpt_save"), "ns");
    ledger.metric("stats.ckpt_load_ns", med("stats.ckpt_load"), "ns");
    ledger.metric("stats.ckpt_merge_ns", med("stats.ckpt_merge"), "ns");
    ledger.metric("stats.ckpt_bytes", farm.bytes_per_slice, "B");
    ledger.metric("stats.period_ns", med("stats.period"), "ns");
    ledger.metric("engine.busy_frac", engine.busy_frac, "ratio");
    ledger.metric("engine.shard_ns_p50", quantile(engine.shard_ns, 0.5), "ns");
    ledger.metric("engine.shard_ns_p99", quantile(engine.shard_ns, 0.99),
                  "ns");
    ledger.metric("engine.scaling_eff",
                  engine.rate_n /
                      (static_cast<double>(full_width()) * engine.rate_1),
                  "ratio");
    ledger.metric("engine.lease_hit_ratio",
                  static_cast<double>(e[obs::kLeaseHits]) /
                      static_cast<double>(e[obs::kLeaseHits] +
                                          e[obs::kLeaseMisses]),
                  "ratio");
    ledger.metric("sched.run_s", sched.run_s, "s");
    ledger.metric("sched.idle_frac",
                  1.0 - static_cast<double>(s[obs::kWorkerBusyNs]) /
                            (sched.run_s * 1e9 *
                             static_cast<double>(full_width())),
                  "ratio");
    ledger.metric("sched.steal_frac",
                  static_cast<double>(s[obs::kSchedSteals]) /
                      static_cast<double>(s[obs::kSchedDispatches]),
                  "ratio");
    ledger.metric("cli.overhead_ns", median(cli_overhead), "ns");
    const std::map<std::string, double> self = log.self_ns_by_layer();
    for (const char* layer :
         {"machine", "replay", "core", "stats", "engine", "sched", "cli"}) {
        const auto it = self.find(layer);
        ledger.metric(std::string(layer) + ".self_s",
                      it == self.end() ? 0.0 : it->second * 1e-9, "s");
    }
    ledger.metric("trace.unaccounted_frac", log.uncovered_frac("bench.run"),
                  "ratio");
    ledger.metric("trace.overhead_frac", tracing_overhead, "ratio");
}

}  // namespace rrbbench
