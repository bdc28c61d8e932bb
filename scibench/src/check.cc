/**
 * @file
 * The check workload: the shape of `scifinder serve`.
 *
 * The assertion set is monitor::synthesize over the identified SCI of
 * a phase 1-3 artifact directory prepared once, untimed, by
 * prepareCheck(). Two client threads, each a closed loop, feed a
 * 2-shard monitor::CheckService. A session comes from one of three
 * sources:
 *   - a seeded fuzz::generate program simulated live through a
 *     SessionSink;
 *   - one of the 17 training streams replayed from the stored v2
 *     trace set;
 *   - a Table 1 bug trigger run live on the buggy processor, so that
 *     assertions fire.
 * Sessions are drawn in rounds; each round is a seeded permutation of
 * every source. After the timed loop every session's report is
 * compared byte for byte with a sequential AssertionMonitor's on the
 * same stream.
 */

#include <atomic>
#include <iostream>
#include <map>
#include <memory>
#include <thread>

#include "asm/assembler.hh"
#include "bugs/registry.hh"
#include "core/artifacts.hh"
#include "cpu/cpu.hh"
#include "fuzz/progen.hh"
#include "layers.hh"
#include "monitor/service.hh"
#include "pipeline.hh"
#include "sci/identify.hh"
#include "support/random.hh"
#include "trace/store.hh"
#include "tracer.hh"


namespace scibench {

using namespace scif;

namespace {

constexpr size_t kClients = 2;
constexpr size_t kShards = 2;
constexpr uint32_t kFuzzPrograms = 16;
/** Length of one alternating untraced/traced block of the traced run. */
constexpr double kBlockSeconds = 1.0;

std::string
artifactDir(const Options &o)
{
    return o.workdir + "/check-artifacts";
}

struct Source
{
    std::string name;
    const trace::TraceBuffer *replay = nullptr; ///< null = live
    assembler::Program program;
    cpu::CpuConfig config;
};

/** Everything the timed loop needs: the compiled set, the running
 *  service, and the session sources. */
struct Served
{
    std::shared_ptr<const monitor::CompiledAssertionSet> set;
    std::unique_ptr<monitor::CheckService> service;
    std::vector<trace::NamedTrace> replay;
    std::vector<Source> sources;
};

std::unique_ptr<Served>
setUp(const Options &o, Tracer *tr, uint64_t iter, Report &report,
      bool &ok)
{
    auto sv = std::make_unique<Served>();
    core::ArtifactPaths paths(artifactDir(o));
    invgen::InvariantSet model;
    sci::SciDatabase db;
    {
        Span s(tr, "core.artifacts.load", 0, iter);
        model = invgen::InvariantSet::loadBinary(paths.model());
        db = sci::SciDatabase::loadBinary(paths.sciDatabase());
    }
    std::vector<monitor::Assertion> assertions;
    {
        Span s(tr, "monitor.synthesize", 0, iter);
        assertions = monitor::synthesize(model, db.sciIndices());
    }
    ok &= report.expect(!assertions.empty(), "SCI assertions exist");
    {
        Span s(tr, "monitor.compile", 0, iter);
        sv->set = std::make_shared<const monitor::CompiledAssertionSet>(
            std::move(assertions));
    }
    monitor::ServiceConfig config;
    config.shards = kShards;
    sv->service = std::make_unique<monitor::CheckService>(sv->set, config);
    {
        Span s(tr, "trace.store.read", 0, iter);
        sv->replay = trace::TraceSetReader(paths.traces()).readAll(nullptr);
    }
    ok &= report.expect(sv->replay.size() == 17,
                        "17 stored training streams");

    for (const auto &nt : sv->replay) {
        Source src;
        src.name = "train:" + nt.name;
        src.replay = &nt.trace;
        sv->sources.push_back(std::move(src));
    }
    fuzz::GenConfig gen;
    uint64_t fuzzSeed = derive(o.seed, 3);
    for (uint32_t i = 0; i < kFuzzPrograms; ++i) {
        auto assembled =
            assembler::assemble(fuzz::generate(gen, fuzzSeed, i).source());
        ok &= report.expect(assembled.ok, "fuzz program assembles");
        Source src;
        src.name = "fuzz:" + std::to_string(i);
        src.program = std::move(assembled.program);
        src.config.memBytes = gen.memBytes;
        sv->sources.push_back(std::move(src));
    }
    for (const bugs::Bug *bug : bugs::table1()) {
        auto assembled = assembler::assemble(bug->trigger);
        ok &= report.expect(assembled.ok, "trigger assembles");
        Source src;
        src.name = "bug:" + bug->id;
        src.program = std::move(assembled.program);
        src.config = bug->config;
        src.config.mutations.add(bug->mutation);
        sv->sources.push_back(std::move(src));
    }
    return sv;
}

/** SessionSink's per-record posting, with the time spent in post()
 *  summed. */
class TimedSessionSink : public trace::TraceSink
{
  public:
    TimedSessionSink(monitor::CheckService &service,
                     monitor::CheckService::SessionId id, Tracer &tr)
        : service_(service), id_(id), tr_(tr)
    {}

    void
    record(const trace::Record &rec) override
    {
        int64_t t0 = tr_.now();
        service_.post(id_, rec);
        nanos_ += tr_.now() - t0;
    }

    int64_t nanos() const { return nanos_; }

  private:
    monitor::CheckService &service_;
    monitor::CheckService::SessionId id_;
    Tracer &tr_;
    int64_t nanos_ = 0;
};

monitor::SessionReport
serve(Served &sv, const Source &src, Tracer *tr, uint32_t parent,
      uint64_t iter)
{
    monitor::CheckService &service = *sv.service;
    if (!tr) {
        if (src.replay)
            return service.check(src.name, *src.replay);
        monitor::SessionSink sink(service, src.name);
        cpu::Cpu cpu(src.config);
        cpu.loadProgram(src.program);
        cpu.run(&sink);
        return sink.close();
    }
    Span session(tr, "monitor.session", parent, iter);
    monitor::CheckService::SessionId id = service.open(src.name);
    if (src.replay) {
        Span p(tr, "monitor.post");
        const auto &recs = src.replay->records();
        service.post(id, recs.data(), recs.size());
    } else {
        Span sim(tr, "cpu.sim");
        TimedSessionSink sink(service, id, *tr);
        cpu::Cpu cpu(src.config);
        cpu.loadProgram(src.program);
        cpu.run(&sink);
        // The per-record posts are too short to trace one by one: one
        // span of their summed time closes the simulation span.
        SpanRecord post;
        post.parent = sim.id();
        post.name = "monitor.post";
        post.iteration = iter;
        post.end = tr->now();
        post.start = post.end - sink.nanos();
        tr->add(std::move(post));
    }
    Span c(tr, "monitor.close");
    return service.close(id);
}

/** The reference: a sequential AssertionMonitor over the source's
 *  stream (live sources are simulated into a buffer first). */
trace::TraceBuffer
streamOf(const Source &src)
{
    if (src.replay)
        return *src.replay;
    trace::TraceBuffer buf;
    cpu::Cpu cpu(src.config);
    cpu.loadProgram(src.program);
    cpu.run(&buf);
    return buf;
}

/** What the loop keeps of a session: its timing and a fingerprint
 *  of every report field render() prints besides the session name. */
struct SessionResult
{
    uint32_t source = 0;
    double start = 0;
    double end = 0;
    uint64_t events = 0;
    uint64_t firings = 0;
    uint64_t fingerprint = 0;
};

uint64_t
fingerprint(const monitor::SessionReport &r)
{
    std::vector<uint64_t> fields{r.events, r.firings, r.hasFirst};
    if (r.hasFirst) {
        fields.push_back(r.first.assertion);
        fields.push_back(r.first.recordIndex);
        fields.push_back(r.first.point.id());
    }
    fields.insert(fields.end(), r.perAssertion.begin(),
                  r.perAssertion.end());
    return fnv1a(fields.data(), fields.size() * sizeof(uint64_t));
}

/** The sessions of a loop, plus each client's first full report per
 *  source for the render comparison. */
struct Sessions
{
    std::vector<SessionResult> all;
    std::vector<std::pair<uint32_t, monitor::SessionReport>> firsts;

    void
    append(Sessions &&other)
    {
        all.insert(all.end(), other.all.begin(), other.all.end());
        for (auto &f : other.firsts)
            firsts.push_back(std::move(f));
    }
};

/** Source of session @p k: round k / n is a seeded permutation of
 *  all n sources. */
uint32_t
sourceOf(uint64_t seed, uint64_t k, size_t n)
{
    Rng rng(derive(seed, 1000 + k / n));
    return uint32_t(rng.permutation(n)[k % n]);
}

/**
 * Run kClients closed-loop clients until @p deadline, continuing the
 * schedule at @p cursor. Sessions are traced (under @p parent) when
 * @p tr is set.
 */
Sessions
runClients(Served &sv, uint64_t seed, std::atomic<uint64_t> &cursor,
           double deadline, Tracer *tr, uint32_t parent, uint64_t iter)
{
    std::vector<Sessions> perClient(kClients);
    std::vector<std::thread> clients;
    for (size_t c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            Sessions &mine = perClient[c];
            std::vector<bool> seen(sv.sources.size());
            while (wallSeconds() < deadline) {
                SessionResult r;
                r.source =
                    sourceOf(seed, cursor.fetch_add(1), sv.sources.size());
                r.start = wallSeconds();
                monitor::SessionReport rep = serve(
                    sv, sv.sources[r.source], tr, parent, iter);
                r.end = wallSeconds();
                r.events = rep.events;
                r.firings = rep.firings;
                r.fingerprint = fingerprint(rep);
                mine.all.push_back(r);
                if (!seen[r.source]) {
                    seen[r.source] = true;
                    mine.firsts.emplace_back(r.source, std::move(rep));
                }
            }
        });
    }
    for (auto &t : clients)
        t.join();
    Sessions out;
    for (auto &s : perClient)
        out.append(std::move(s));
    return out;
}

/**
 * Compare the sessions with a sequential AssertionMonitor on the same
 * streams and account one unit per session. Each client's first
 * report of a source must render byte for byte like the sequential
 * one; every later session of that source must carry the same
 * fingerprint, so it renders identically too.
 */
void
verify(const Served &sv, const Sessions &sessions,
       const std::vector<trace::TraceBuffer> &streams, bool ok,
       Report &report)
{
    const auto &assertions = sv.set->assertions();
    std::vector<std::string> expected(sv.sources.size());
    for (size_t i = 0; i < sv.sources.size(); ++i) {
        monitor::AssertionMonitor mon(sv.set);
        for (const auto &rec : streams[i].records())
            mon.record(rec);
        expected[i] = monitor::sequentialReport(sv.sources[i].name, mon,
                                                streams[i].size())
                          .render(assertions);
    }
    std::map<uint32_t, uint64_t> verified; // source -> fingerprint
    for (const auto &[source, rep] : sessions.firsts) {
        bool same = report.expect(rep.render(assertions) == expected[source],
                                  "session " + sv.sources[source].name +
                                      " report differs from the "
                                      "sequential monitor's");
        auto [it, first] = verified.emplace(source, fingerprint(rep));
        if (!same || (!first && it->second != fingerprint(rep)))
            it->second = 0;
    }
    uint64_t firings = 0;
    for (const auto &s : sessions.all)
        firings += s.firings;
    ok &= report.expect(firings > 0, "bug triggers fire assertions");
    for (const auto &s : sessions.all) {
        auto it = verified.find(s.source);
        report.attempt(ok && it != verified.end() && it->second != 0 &&
                       it->second == s.fingerprint);
    }
}

/** The service and a sequential monitor on the same streams: events
 *  per second of each. */
std::pair<double, double>
serviceVsSequential(Served &sv, const std::vector<trace::TraceBuffer> &streams)
{
    uint64_t events = 0;
    for (const auto &s : streams)
        events += s.size();
    const int passes = 20;

    double t0 = wallSeconds();
    for (int p = 0; p < passes; ++p) {
        for (const auto &s : streams) {
            monitor::AssertionMonitor mon(sv.set);
            for (const auto &rec : s.records())
                mon.record(rec);
        }
    }
    double sequential = double(events) * passes / (wallSeconds() - t0);

    std::atomic<size_t> next{0};
    const size_t total = streams.size() * passes;
    t0 = wallSeconds();
    std::vector<std::thread> clients;
    for (size_t c = 0; c < kClients; ++c) {
        clients.emplace_back([&] {
            for (size_t k; (k = next.fetch_add(1)) < total;) {
                const auto &s = streams[k % streams.size()];
                sv.service->check("probe", s);
            }
        });
    }
    for (auto &t : clients)
        t.join();
    double service = double(events) * passes / (wallSeconds() - t0);
    return {service, sequential};
}

} // namespace

bool
prepareCheck(const Options &o)
{
    core::PipelineConfig cfg = pipelineConfig(o);
    cfg.runInference = false;
    cfg.artifactDir = makeDir(artifactDir(o));
    core::PipelineResult r = core::runPipeline(cfg);
    core::ArtifactPaths paths(cfg.artifactDir);
    Report scratch;
    return phase13Holds(r, paths.model(), paths.sciDatabase(), o, scratch);
}

void
runCheck(const Options &o, Report &report)
{
    core::ArtifactPaths paths(artifactDir(o));
    if (!report.expect(core::ArtifactPaths::exists(paths.sciDatabase()) &&
                           core::ArtifactPaths::exists(paths.traces()),
                       "check artifacts prepared in " + artifactDir(o)))
        return;
    std::unique_ptr<Tracer> tracer;
    if (o.trace)
        tracer = std::make_unique<Tracer>();

    bool ok = true;
    std::vector<double> setup;
    std::unique_ptr<Served> sv;
    for (int k = 0; k < kSetupRepeats; ++k) {
        sv.reset();
        double t0 = wallSeconds();
        sv = setUp(o, tracer.get(), kSetupIteration + k, report, ok);
        setup.push_back(wallSeconds() - t0);
    }
    const size_t perRound = sv->sources.size();
    std::vector<trace::TraceBuffer> streams;
    for (const auto &src : sv->sources)
        streams.push_back(streamOf(src));

    std::atomic<uint64_t> cursor{0};
    Sessions sessions;
    if (!o.trace) {
        // Throughput is per CPU second of the process: host CPU steal
        // stalls the client/shard handoffs of a wall-clock measure
        // several times over, while CPU time moves with the code.
        double start = wallSeconds();
        double cpu0 = processCpuSeconds();
        sessions = runClients(*sv, o.seed, cursor, start + o.seconds,
                              nullptr, 0, 0);
        double cpu = processCpuSeconds() - cpu0;
        uint64_t events = 0;
        for (const auto &s : sessions.all)
            events += s.events;
        const uint64_t n = sessions.all.size();
        report.add("setup_s", median(setup), "s", setup.size());
        report.add("run_s", cpu * double(perRound) / double(n), "s", n);
        report.add("events_per_s", double(events) / cpu, "1/s", n);
        report.add("peak_rss_mib", peakRssMib(), "MiB");
    } else {
        // Alternate untraced and traced blocks; each traced block is
        // one iteration of the per-layer report.
        std::vector<double> latency;
        double plainEvents = 0, plainWall = 0, plainCpu = 0;
        double tracedEvents = 0, tracedCpu = 0;
        std::vector<uint64_t> tracedIds;
        std::map<std::string, std::vector<double>> counters;
        const double start = wallSeconds();
        for (uint64_t block = 0;; ++block) {
            const bool traced = block % 2 == 1;
            monitor::ServiceTelemetry before = sv->service->telemetry();
            double t0 = wallSeconds();
            double c0 = processCpuSeconds();
            Sessions got;
            {
                Span root(traced ? tracer.get() : nullptr,
                          "bench.iteration", 0, block);
                got = runClients(*sv, o.seed, cursor, t0 + kBlockSeconds,
                                 traced ? tracer.get() : nullptr,
                                 root.id(), block);
            }
            double cpu = processCpuSeconds() - c0;
            double wall = wallSeconds() - t0;
            monitor::ServiceTelemetry after = sv->service->telemetry();
            uint64_t events = 0, live = 0;
            for (const auto &s : got.all) {
                events += s.events;
                if (!sv->sources[s.source].replay)
                    live += s.events;
                if (!traced)
                    latency.push_back((s.end - s.start) * 1e3);
            }
            if (!traced) {
                plainEvents += double(events);
                plainWall += wall;
                plainCpu += cpu;
            } else {
                tracedEvents += double(events);
                tracedCpu += cpu;
                tracedIds.push_back(block);
                double busy = 0, batches = 0;
                for (size_t i = 0; i < after.shards.size(); ++i) {
                    busy += after.shards[i].busySeconds -
                            before.shards[i].busySeconds;
                    batches += double(after.shards[i].batches -
                                      before.shards[i].batches);
                }
                counters["monitor.shard.busy_s"].push_back(busy);
                counters["monitor.shard.batches"].push_back(batches);
                counters["monitor.firings"].push_back(
                    double(after.firings - before.firings));
                counters["cpu.sim.records"].push_back(double(live));
            }
            sessions.append(std::move(got));
            if (!tracedIds.empty() && wallSeconds() - start >= o.seconds)
                break;
        }

        uint64_t highWater = 0;
        for (const auto &sh : sv->service->telemetry().shards)
            highWater = std::max(highWater, sh.queueHighWater);
        auto [serviceRate, sequentialRate] =
            serviceVsSequential(*sv, streams);

        std::vector<SpanRecord> spans = tracer->spans();
        reportSpans(spans, tracedIds, report);
        std::vector<uint64_t> setupIds;
        for (int k = 0; k < kSetupRepeats; ++k)
            setupIds.push_back(kSetupIteration + k);
        reportSpans(spans, setupIds, report);
        for (const auto &[name, values] : counters)
            report.add(name, median(values), "count", values.size());
        Percentiles lat = percentiles(latency, 90);
        if (lat.beyondUpper < 10)
            std::cerr << "scibench: only " << lat.beyondUpper
                      << " sessions beyond p90\n";
        report.add("monitor.session.p50_ms", lat.p50, "ms", lat.samples);
        report.add("monitor.session.p90_ms", lat.upper, "ms", lat.samples);
        report.add("monitor.wall_events_per_s", plainEvents / plainWall,
                   "1/s");
        report.add("monitor.queue.high_water", double(highWater), "count");
        report.add("monitor.service_events_per_s", serviceRate, "1/s");
        report.add("monitor.sequential_events_per_s", sequentialRate,
                   "1/s");
        report.add("monitor.service_vs_sequential",
                   serviceRate / sequentialRate, "ratio");
        report.add("bench.trace_overhead",
                   (plainEvents / plainCpu) / (tracedEvents / tracedCpu),
                   "ratio", tracedIds.size());
        tracer->writeChromeTrace(makeDir(o.workdir + "/check") +
                                 "/trace.json");
    }

    verify(*sv, sessions, streams, ok, report);
    conform(report, o.trace ? perLayerMetrics() : endToEndMetrics());
}

} // namespace scibench
