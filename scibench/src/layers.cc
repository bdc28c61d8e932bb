#include "layers.hh"

#include <iostream>
#include <map>

namespace scibench {

const std::vector<MetricSpec> &
endToEndMetrics()
{
    static const std::vector<MetricSpec> specs{
        {"setup_s", "s"},
        {"run_s", "s"},
        {"events_per_s", "1/s"},
        {"peak_rss_mib", "MiB"},
    };
    return specs;
}

const std::vector<MetricSpec> &
perLayerMetrics()
{
    static const std::vector<MetricSpec> specs{
        {"bench.trace_overhead", "ratio"},
        {"bench.iteration.busy_s", "s"},
        {"bench.iteration.self_s", "s"},
        {"core.trace_generation.busy_s", "s"},
        {"core.trace_generation.self_s", "s"},
        {"core.validation_corpus.busy_s", "s"},
        {"core.validation_corpus.self_s", "s"},
        {"core.artifacts.save_s", "s"},
        {"core.artifacts.save.self_s", "s"},
        {"core.artifacts.load_s", "s"},
        {"core.artifacts.load.self_s", "s"},
        {"core.artifacts.bytes", "bytes"},
        {"core.cpu_s", "s"},
        {"core.parallel_util", "ratio"},
        {"cpu.sim.busy_s", "s"},
        {"cpu.sim.self_s", "s"},
        {"cpu.sim.records", "count"},
        {"trace.seal.busy_s", "s"},
        {"trace.seal.self_s", "s"},
        {"trace.store.write_s", "s"},
        {"trace.store.write.self_s", "s"},
        {"trace.store.read_s", "s"},
        {"trace.store.read.self_s", "s"},
        {"trace.store.bytes", "bytes"},
        {"trace.store.raw_bytes", "bytes"},
        {"trace.store.compress_ratio", "ratio"},
        {"invgen.generate.busy_s", "s"},
        {"invgen.generate.self_s", "s"},
        {"invgen.candidates", "count"},
        {"invgen.deduped", "count"},
        {"invgen.invariants", "count"},
        {"opt.optimize.busy_s", "s"},
        {"opt.optimize.self_s", "s"},
        {"opt.constant_propagation.busy_s", "s"},
        {"opt.constant_propagation.self_s", "s"},
        {"opt.constant_propagation.removed", "count"},
        {"opt.deducible_removal.busy_s", "s"},
        {"opt.deducible_removal.self_s", "s"},
        {"opt.deducible_removal.removed", "count"},
        {"opt.equivalence_removal.busy_s", "s"},
        {"opt.equivalence_removal.self_s", "s"},
        {"opt.equivalence_removal.removed", "count"},
        {"opt.vacuity_removal.busy_s", "s"},
        {"opt.vacuity_removal.self_s", "s"},
        {"opt.vacuity_removal.removed", "count"},
        {"sci.compile.busy_s", "s"},
        {"sci.compile.self_s", "s"},
        {"sci.validation.busy_s", "s"},
        {"sci.validation.self_s", "s"},
        {"sci.identify.busy_s", "s"},
        {"sci.identify.self_s", "s"},
        {"sci.identified", "count"},
        {"sci.infer.busy_s", "s"},
        {"sci.infer.self_s", "s"},
        {"sci.infer.accuracy", "ratio"},
        {"ml.fit.busy_s", "s"},
        {"ml.fit.self_s", "s"},
        {"monitor.synthesize.busy_s", "s"},
        {"monitor.synthesize.self_s", "s"},
        {"monitor.compile.busy_s", "s"},
        {"monitor.compile.self_s", "s"},
        {"monitor.session.busy_s", "s"},
        {"monitor.session.self_s", "s"},
        {"monitor.session.p50_ms", "ms"},
        {"monitor.session.p90_ms", "ms"},
        {"monitor.wall_events_per_s", "1/s"},
        {"monitor.post.wait_s", "s"},
        {"monitor.post.self_s", "s"},
        {"monitor.close.wait_s", "s"},
        {"monitor.close.self_s", "s"},
        {"monitor.shard.busy_s", "s"},
        {"monitor.shard.batches", "count"},
        {"monitor.queue.high_water", "count"},
        {"monitor.firings", "count"},
        {"monitor.service_vs_sequential", "ratio"},
        {"monitor.service_events_per_s", "1/s"},
        {"monitor.sequential_events_per_s", "1/s"},
    };
    return specs;
}

std::string
busyMetric(const std::string &span)
{
    static const std::map<std::string, std::string> alias{
        {"trace.store.write", "trace.store.write_s"},
        {"trace.store.read", "trace.store.read_s"},
        {"core.artifacts.save", "core.artifacts.save_s"},
        {"core.artifacts.load", "core.artifacts.load_s"},
        {"monitor.post", "monitor.post.wait_s"},
        {"monitor.close", "monitor.close.wait_s"},
    };
    auto it = alias.find(span);
    return it == alias.end() ? span + ".busy_s" : it->second;
}

void
reportSpans(const std::vector<SpanRecord> &spans,
            const std::vector<uint64_t> &ids, Report &report)
{
    if (ids.empty())
        return;
    std::map<uint64_t, size_t> slot;
    for (size_t i = 0; i < ids.size(); ++i)
        slot[ids[i]] = i;
    std::map<uint32_t, double> selfOf = selfTimes(spans);
    std::map<std::string, std::vector<double>> busy, self;
    for (const auto &s : spans) {
        auto it = slot.find(s.iteration);
        if (it == slot.end())
            continue;
        auto &b = busy[s.name];
        auto &f = self[s.name];
        b.resize(ids.size());
        f.resize(ids.size());
        b[it->second] += double(s.end - s.start) / 1e9;
        f[it->second] += selfOf[s.id];
    }
    for (const auto &[name, values] : busy) {
        std::string b = busyMetric(name);
        std::string s = name + ".self_s";
        if (!report.find(b))
            report.add(b, median(values), "s", values.size());
        if (!report.find(s))
            report.add(s, median(self[name]), "s", values.size());
    }
}

void
conform(Report &report, const std::vector<MetricSpec> &catalog)
{
    Report out;
    for (const auto &spec : catalog) {
        const Metric *m = report.find(spec.name);
        if (m)
            out.add(m->name, m->value, spec.unit, m->samples);
        else
            out.add(spec.name, 0.0, spec.unit, 0);
    }
    for (const auto &m : report.metrics()) {
        if (!out.find(m.name))
            std::cerr << "scibench: metric " << m.name
                      << " is not in the catalog; dropped\n";
    }
    report.replaceMetrics(out.metrics());
}

} // namespace scibench
