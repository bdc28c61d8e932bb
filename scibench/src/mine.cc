/**
 * @file
 * The pipeline workloads.
 *
 * mine          core::runPipeline in memory, phases 1-4, jobs 4.
 * mine-persist  core::runPipeline out of core (fresh artifact
 *               directory per iteration), phases 1-3, jobs 4.
 *
 * Both are closed loops: the next iteration starts when the previous
 * one has returned and been checked. The traced run alternates an
 * untraced runPipeline iteration with a traced one that makes the same
 * public calls runPipeline makes, one span around each, and checks
 * that it produces the same outputs.
 */

#include <filesystem>
#include <map>
#include <memory>

#include "asm/assembler.hh"
#include "bugs/registry.hh"
#include "core/artifacts.hh"
#include "invgen/invgen.hh"
#include "layers.hh"
#include "ml/elastic_net.hh"
#include "opt/passes.hh"
#include "pipeline.hh"
#include "sci/identify.hh"
#include "sci/infer.hh"
#include "support/random.hh"
#include "support/threadpool.hh"
#include "trace/capture.hh"
#include "trace/store.hh"
#include "tracer.hh"
#include "workloads/workloads.hh"

namespace fs = std::filesystem;

namespace scibench {

using namespace scif;

namespace {

// Phase 1-3 outputs recorded for the full corpus. They depend on no
// seed: the seed only reaches phase 4.
constexpr uint64_t kCorpusDigest = 0x38873224e7bc7b35;
constexpr uint64_t kModelDigest = 0x9bbf9445f10153ac;
constexpr uint64_t kSciDbDigest = 0xedafc11cfccb8ccc;

/** Seed of the simulated expert's validation corpus (runPipeline's). */
constexpr uint64_t kValidationSeed = 0x5eed;

uint64_t
summaryDigest(const core::PipelineResult &r)
{
    std::string text = "raw ";
    text += std::to_string(r.rawInvariants);
    text += " optimized ";
    text += std::to_string(r.model.size());
    text += '\n';
    for (const auto &res : r.database.results()) {
        text += res.bugId;
        text += ':';
        for (size_t idx : res.trueSci) {
            text += ' ';
            text += std::to_string(idx);
        }
        text += '\n';
    }
    for (size_t idx : r.identifiedSci()) {
        text += std::to_string(idx);
        text += ' ';
    }
    return fnv1a(text.data(), text.size());
}

uint64_t
inferredDigest(const sci::InferenceResult &inf)
{
    std::string text = std::to_string(inf.testAccuracy);
    text += ':';
    for (size_t idx : inf.inferredSci) {
        text += ' ';
        text += std::to_string(idx);
    }
    return fnv1a(text.data(), text.size());
}

/** The inputs the pipeline will run, assembled once each: the 17
 *  training programs, the validation corpus, the Table 1 triggers. */
double
setupOnce(Report &report, bool &ok)
{
    double t0 = wallSeconds();
    size_t failures = 0;
    for (const auto &w : workloads::all())
        failures += !assembler::assemble(w.source).ok;
    for (const auto &w :
         workloads::validationPrograms(24, kValidationSeed))
        failures += !assembler::assemble(w.source).ok;
    for (const bugs::Bug *b : bugs::table1())
        failures += !assembler::assemble(b->trigger).ok;
    double t1 = wallSeconds();
    ok &= report.expect(failures == 0, "every input program assembles");
    return t1 - t0;
}

/** Per-iteration counter samples of the traced run. */
using Counters = std::map<std::string, std::vector<double>>;

uint64_t
fileSize(const std::string &path)
{
    std::error_code ec;
    auto n = fs::file_size(path, ec);
    return ec ? 0 : uint64_t(n);
}

/** Phase 2 with one span per pass (opt::optimize's body). */
std::vector<opt::PassStats>
tracedOptimize(Tracer *tr, invgen::InvariantSet &model)
{
    Span s(tr, "opt.optimize");
    std::vector<expr::Invariant> invs = model.all();
    std::vector<opt::PassStats> stats;
    {
        Span p(tr, "opt.constant_propagation");
        stats.push_back(opt::constantPropagation(invs));
    }
    {
        Span p(tr, "opt.deducible_removal");
        stats.push_back(opt::deducibleRemoval(invs));
    }
    {
        Span p(tr, "opt.equivalence_removal");
        stats.push_back(opt::equivalenceRemoval(invs));
    }
    {
        Span p(tr, "opt.vacuity_removal");
        stats.push_back(opt::vacuityRemoval(invs));
    }
    model.assign(std::move(invs));
    return stats;
}

void
countPasses(const std::vector<opt::PassStats> &stats, Counters &counters)
{
    static const char *names[] = {"constant_propagation",
                                  "deducible_removal",
                                  "equivalence_removal",
                                  "vacuity_removal"};
    for (size_t i = 0; i < stats.size() && i < 4; ++i) {
        counters[std::string("opt.") + names[i] + ".removed"].push_back(
            double(stats[i].invariantsBefore - stats[i].invariantsAfter));
    }
}

/**
 * runPipeline's in-memory path (phases 1-4) as a sequence of public
 * module calls, one span around each.
 */
core::PipelineResult
tracedMine(const core::PipelineConfig &cfg, Tracer *tr, uint64_t iter,
           Counters &counters)
{
    core::PipelineResult r;
    Span root(tr, "bench.iteration", 0, iter);
    support::ThreadPool pool(cfg.jobs);

    std::vector<trace::NamedCapture> captures;
    {
        Span s(tr, "core.trace_generation");
        std::vector<const workloads::Workload *> list;
        for (const auto &w : workloads::all())
            list.push_back(&w);
        uint32_t parent = s.id();
        captures = support::parallelMap(
            &pool, list, [&](const workloads::Workload *w) {
                Span sim(tr, "cpu.sim", parent, iter);
                return trace::NamedCapture{w->name,
                                           workloads::runColumnar(*w)};
            });
    }
    uint64_t simRecords = 0;
    std::vector<const trace::ColumnarCapture *> caps;
    for (const auto &nc : captures) {
        caps.push_back(&nc.capture);
        r.traceRecords += nc.capture.size();
    }
    simRecords += r.traceRecords;
    r.traceBytes = r.traceRecords * sizeof(trace::Record);

    invgen::GenStats gen;
    {
        trace::ColumnSet cols = [&] {
            Span s(tr, "trace.seal");
            return trace::ColumnarCapture::seal(caps);
        }();
        Span s(tr, "invgen.generate");
        r.model = invgen::generate(std::move(cols), cfg.generation, &gen,
                                   &pool);
    }
    r.rawInvariants = r.model.size();
    r.rawVariables = r.model.variableCount();
    r.optimizationStats = tracedOptimize(tr, r.model);

    std::unique_ptr<sci::CompiledModel> compiled;
    {
        Span s(tr, "sci.compile");
        compiled = std::make_unique<sci::CompiledModel>(r.model);
    }
    std::vector<trace::TraceBuffer> corpus;
    {
        Span s(tr, "core.validation_corpus");
        uint32_t parent = s.id();
        auto programs = workloads::validationPrograms(
            cfg.validationPrograms, kValidationSeed);
        corpus = support::parallelMap(
            &pool, programs, [&](const workloads::Workload &w) {
                Span sim(tr, "cpu.sim", parent, iter);
                return workloads::run(w);
            });
    }
    for (const auto &t : corpus)
        simRecords += t.size();
    {
        Span s(tr, "sci.validation");
        r.validationViolations =
            sci::corpusViolations(*compiled, corpus, &pool);
    }
    {
        Span s(tr, "sci.identify");
        r.database = sci::identifyAll(*compiled, bugs::table1(),
                                      r.validationViolations, &pool);
    }
    {
        Span s(tr, "sci.infer");
        r.inference = sci::infer(r.model, r.database,
                                 r.validationViolations, cfg.inference);
    }

    counters["cpu.sim.records"].push_back(double(simRecords));
    counters["invgen.candidates"].push_back(double(gen.candidatesTried));
    counters["invgen.deduped"].push_back(double(gen.candidatesDeduped));
    counters["invgen.invariants"].push_back(double(r.rawInvariants));
    counters["sci.identified"].push_back(
        double(r.identifiedSci().size()));
    counters["sci.infer.accuracy"].push_back(r.inference.testAccuracy);
    countPasses(r.optimizationStats, counters);
    return r;
}

/**
 * runPipeline's out-of-core path (phases 1-3, artifacts persisted)
 * as a sequence of public module calls, one span around each.
 */
core::PipelineResult
tracedPersist(const core::PipelineConfig &cfg, Tracer *tr, uint64_t iter,
              Counters &counters)
{
    core::PipelineResult r;
    Span root(tr, "bench.iteration", 0, iter);
    support::ThreadPool pool(cfg.jobs);
    core::ArtifactPaths paths(cfg.artifactDir);
    paths.ensureDir();

    std::vector<const workloads::Workload *> list;
    std::vector<std::string> names;
    for (const auto &w : workloads::all()) {
        list.push_back(&w);
        names.push_back(w.name);
    }
    std::vector<uint64_t> counts;
    {
        // Simulation seals compressed chunks as it runs: cpu.sim and
        // trace.store.write interleave inside this one call.
        Span s(tr, "core.trace_generation");
        counts = trace::buildTraceSetParallel(
            paths.traces(), cfg.traceChunkRecords, names,
            [&](size_t i, trace::TraceSink &sink) {
                workloads::runInto(*list[i], {}, false, &sink);
            },
            &pool);
    }
    for (uint64_t n : counts)
        r.traceRecords += n;
    r.traceBytes = r.traceRecords * sizeof(trace::Record);

    invgen::GenStats gen;
    {
        // Streams the chunks back: includes trace.store.read.
        Span s(tr, "invgen.generate");
        trace::TraceSetReader reader(paths.traces());
        r.model = invgen::generateStreaming(reader, cfg.generation, &gen,
                                            &pool);
    }
    r.rawInvariants = r.model.size();
    r.rawVariables = r.model.variableCount();
    {
        Span s(tr, "core.artifacts.save");
        r.model.saveBinary(paths.rawModel());
    }
    r.optimizationStats = tracedOptimize(tr, r.model);
    {
        Span s(tr, "core.artifacts.save");
        r.model.saveBinary(paths.model());
    }

    std::unique_ptr<sci::CompiledModel> compiled;
    {
        Span s(tr, "sci.compile");
        compiled = std::make_unique<sci::CompiledModel>(r.model);
    }
    std::vector<uint64_t> validationCounts;
    {
        Span s(tr, "core.validation_corpus");
        validationCounts = workloads::validationCorpusToStore(
            paths.validation(), cfg.validationPrograms, kValidationSeed,
            &pool, false, cfg.traceChunkRecords);
    }
    {
        Span s(tr, "sci.validation");
        trace::TraceSetReader validation(paths.validation());
        r.validationViolations =
            sci::corpusViolations(*compiled, validation, &pool);
    }
    {
        Span s(tr, "sci.identify");
        r.database = sci::identifyAll(*compiled, bugs::table1(),
                                      r.validationViolations, &pool);
    }
    {
        Span s(tr, "core.artifacts.save");
        core::saveIndexSet(paths.violations(), r.validationViolations);
        r.database.saveBinary(paths.sciDatabase());
    }

    uint64_t raw = r.traceRecords;
    for (uint64_t n : validationCounts)
        raw += n;
    raw *= sizeof(trace::Record);
    uint64_t stored =
        fileSize(paths.traces()) + fileSize(paths.validation());
    counters["cpu.sim.records"].push_back(double(raw / sizeof(trace::Record)));
    counters["trace.store.bytes"].push_back(double(stored));
    counters["trace.store.raw_bytes"].push_back(double(raw));
    counters["trace.store.compress_ratio"].push_back(
        raw ? double(stored) / double(raw) : 0.0);
    counters["core.artifacts.bytes"].push_back(
        double(fileSize(paths.rawModel()) + fileSize(paths.model()) +
               fileSize(paths.violations()) +
               fileSize(paths.sciDatabase())));
    counters["invgen.candidates"].push_back(double(gen.candidatesTried));
    counters["invgen.deduped"].push_back(double(gen.candidatesDeduped));
    counters["invgen.invariants"].push_back(double(r.rawInvariants));
    counters["sci.identified"].push_back(
        double(r.identifiedSci().size()));
    countPasses(r.optimizationStats, counters);
    return r;
}

/**
 * The elastic-net fit alone: sci::infer's training matrix rebuilt
 * from the public feature extractor and split seed, then one
 * ml::fitElasticNet call. Returns false when the fit differs from
 * the one inside @p r.
 */
bool
probeFit(const core::PipelineResult &r, const core::PipelineConfig &cfg,
         Tracer *tr)
{
    std::vector<size_t> labeled;
    std::vector<int> labels;
    for (size_t idx : r.database.sciIndices()) {
        labeled.push_back(idx);
        labels.push_back(0);
    }
    for (size_t idx : r.database.nonSciIndices()) {
        labeled.push_back(idx);
        labels.push_back(1);
    }
    Rng rng(cfg.inference.seed);
    std::vector<size_t> perm = rng.permutation(labeled.size());
    size_t trainCount =
        size_t(double(labeled.size()) * cfg.inference.trainFraction);
    ml::FeatureExtractor features;
    ml::Matrix X(trainCount, features.size());
    std::vector<int> y(trainCount);
    for (size_t i = 0; i < trainCount; ++i) {
        auto x = features.extract(r.model.all()[labeled[perm[i]]]);
        for (size_t j = 0; j < x.size(); ++j)
            X.at(i, j) = x[j];
        y[i] = labels[perm[i]];
    }
    ml::LogisticModel fit;
    {
        Span s(tr, "ml.fit", 0, kProbeIteration);
        fit = ml::fitElasticNet(X, y, cfg.inference.net);
    }
    return fit.beta == r.inference.model.beta &&
           fit.intercept == r.inference.model.intercept;
}

/**
 * The trace-store layer alone: simulate the training and validation
 * programs into buffers (cpu.sim), write them as one v2 trace set
 * (trace.store.write), and read it back (trace.store.read). The
 * pipeline interleaves all three inside single library calls.
 * Returns false when the written training streams differ from the
 * pipeline's traces.bin (digest @p tracesDigest).
 */
bool
probeStore(const core::PipelineConfig &cfg, const std::string &dir,
           uint64_t tracesDigest, Tracer *tr)
{
    support::ThreadPool pool(cfg.jobs);
    std::vector<workloads::Workload> programs;
    for (const auto &w : workloads::all())
        programs.push_back(w);
    std::vector<trace::TraceBuffer> buffers;
    {
        Span s(tr, "cpu.sim", 0, kProbeIteration);
        buffers = support::parallelMap(
            &pool, programs,
            [](const workloads::Workload &w) { return workloads::run(w); });
    }
    std::vector<std::string> names;
    for (const auto &w : programs)
        names.push_back(w.name);
    std::string path = dir + "/probe-traces.bin";
    {
        Span s(tr, "trace.store.write", 0, kProbeIteration);
        trace::buildTraceSetParallel(
            path, cfg.traceChunkRecords, names,
            [&](size_t i, trace::TraceSink &sink) {
                for (const auto &rec : buffers[i].records())
                    sink.record(rec);
            },
            &pool);
    }
    std::vector<trace::NamedTrace> back;
    {
        Span s(tr, "trace.store.read", 0, kProbeIteration);
        back = trace::TraceSetReader(path).readAll(&pool);
    }
    bool same = back.size() == buffers.size();
    for (size_t i = 0; same && i < back.size(); ++i)
        same = back[i].trace.size() == buffers[i].size();
    return same && fileDigest(path) == tracesDigest;
}

void
runPipelineWorkload(const Options &o, Report &report, bool persist)
{
    const std::string work =
        makeDir(o.workdir + (persist ? "/mine-persist" : "/mine"));
    bool setupOk = true;
    std::vector<double> setup;
    for (int k = 0; k < kSetupRepeats; ++k)
        setup.push_back(setupOnce(report, setupOk));

    core::PipelineConfig cfg = pipelineConfig(o);
    cfg.runInference = !persist;
    std::unique_ptr<Tracer> tracer;
    if (o.trace)
        tracer = std::make_unique<Tracer>();

    std::vector<double> untraced, traced, cpuSeconds, util;
    Counters counters;
    uint64_t events = 0;
    std::map<uint64_t, uint64_t> inferred; // inference seed -> digest
    core::PipelineResult lastTraced;
    core::PipelineConfig lastTracedCfg;
    uint64_t lastTracesDigest = 0;
    std::vector<uint64_t> tracedIds;

    const double start = wallSeconds();
    for (uint64_t iter = 0;; ++iter) {
        const bool tracedTurn = o.trace && iter % 2 == 1;
        const std::string dir = work + "/iter-" + std::to_string(iter);
        if (persist)
            cfg.artifactDir = dir;
        // A traced run pairs each traced iteration with the untraced
        // one before it on the same inference seed.
        seedInference(cfg, o.seed,
                      (o.trace ? iter / 2 : iter) % kInferenceSeeds);

        double c0 = processCpuSeconds();
        double t0 = wallSeconds();
        core::PipelineResult r;
        if (!tracedTurn)
            r = core::runPipeline(cfg);
        else if (persist)
            r = tracedPersist(cfg, tracer.get(), iter, counters);
        else
            r = tracedMine(cfg, tracer.get(), iter, counters);
        double t1 = wallSeconds();
        double c1 = processCpuSeconds();

        if (tracedTurn) {
            traced.push_back(t1 - t0);
            tracedIds.push_back(iter);
        } else {
            untraced.push_back(t1 - t0);
            cpuSeconds.push_back(c1 - c0);
            util.push_back((c1 - c0) / ((t1 - t0) * double(cfg.jobs)));
            events += r.traceRecords;
        }

        // Output checks, outside the timed region.
        bool ok = setupOk;
        std::string modelPath, dbPath;
        if (persist) {
            core::ArtifactPaths paths(dir);
            modelPath = paths.model();
            dbPath = paths.sciDatabase();
            if (tracedTurn)
                lastTracesDigest = fileDigest(paths.traces());
        } else {
            modelPath = work + "/model.bin";
            dbPath = work + "/scidb.bin";
            r.model.saveBinary(modelPath);
            r.database.saveBinary(dbPath);
            uint64_t d = inferredDigest(r.inference);
            auto [it, first] = inferred.emplace(cfg.inference.seed, d);
            ok &= report.expect(first || it->second == d,
                                "every iteration of one inference seed "
                                "infers the same set");
        }
        ok &= phase13Holds(r, modelPath, dbPath, o, report);
        report.attempt(ok);
        if (persist)
            fs::remove_all(dir);
        if (tracedTurn) {
            lastTraced = std::move(r);
            lastTracedCfg = cfg;
        }

        bool enough = !untraced.empty() && (!o.trace || !traced.empty());
        if (enough && wallSeconds() - start >= o.seconds)
            break;
    }

    if (!o.trace) {
        double run = median(untraced);
        report.add("setup_s", median(setup), "s", setup.size());
        report.add("run_s", run, "s", untraced.size());
        report.add("events_per_s",
                   double(events) / double(untraced.size()) / run, "1/s",
                   untraced.size());
        report.add("peak_rss_mib", peakRssMib(), "MiB");
        conform(report, endToEndMetrics());
        return;
    }

    // Probes time layers the pipeline interleaves inside one call.
    bool probeOk = persist ? probeStore(cfg, work, lastTracesDigest,
                                        tracer.get())
                           : probeFit(lastTraced, lastTracedCfg,
                                      tracer.get());
    report.attempt(report.expect(probeOk, "probe reproduces the "
                                          "pipeline's output"));
    fs::remove(work + "/probe-traces.bin");

    std::vector<SpanRecord> spans = tracer->spans();
    reportSpans(spans, tracedIds, report);
    reportSpans(spans, {kProbeIteration}, report);
    for (const auto &[name, values] : counters)
        report.add(name, median(values), "count", values.size());
    report.add("core.cpu_s", median(cpuSeconds), "s", cpuSeconds.size());
    report.add("core.parallel_util", median(util), "ratio", util.size());
    report.add("bench.trace_overhead", median(traced) / median(untraced),
               "ratio", traced.size());
    tracer->writeChromeTrace(work + "/trace.json");
    conform(report, perLayerMetrics());
}

} // namespace

core::PipelineConfig
pipelineConfig(const Options &options)
{
    core::PipelineConfig cfg;
    cfg.jobs = kJobs;
    seedInference(cfg, options.seed, 0);
    return cfg;
}

void
seedInference(core::PipelineConfig &cfg, uint64_t seed, uint64_t k)
{
    cfg.inference.seed = derive(seed, 1 + 2 * k);
    cfg.inference.net.seed = derive(seed, 2 + 2 * k);
}

std::string
makeDir(const std::string &dir)
{
    fs::create_directories(dir);
    return dir;
}

bool
phase13Holds(const core::PipelineResult &r, const std::string &modelPath,
             const std::string &dbPath, const Options &o, Report &report)
{
    size_t detected = 0;
    bool b2 = false;
    for (const auto &res : r.database.results()) {
        detected += res.detected();
        if (res.bugId == "b2")
            b2 = res.detected();
    }
    bool ok = report.expect(r.database.results().size() == 17 &&
                                detected == 16 && !b2,
                            "16 of 17 Table 1 bugs have SCI, b2 none "
                            "(got " +
                                std::to_string(detected) + ")");
    uint64_t expected = kCorpusDigest;
    if (!o.expectDigest.empty())
        expected = std::stoull(o.expectDigest, nullptr, 16);
    uint64_t got = summaryDigest(r);
    ok &= report.expect(got == expected,
                        "phase 1-3 digest " + hex(got) + " != recorded " +
                            hex(expected));
    uint64_t model = fileDigest(modelPath);
    ok &= report.expect(model == kModelDigest,
                        "model artifact digest " + hex(model) +
                            " != recorded " + hex(kModelDigest));
    uint64_t db = fileDigest(dbPath);
    ok &= report.expect(db == kSciDbDigest,
                        "SCI database artifact digest " + hex(db) +
                            " != recorded " + hex(kSciDbDigest));
    return ok;
}

void
runMine(const Options &options, Report &report)
{
    runPipelineWorkload(options, report, false);
}

void
runMinePersist(const Options &options, Report &report)
{
    runPipelineWorkload(options, report, true);
}

} // namespace scibench
