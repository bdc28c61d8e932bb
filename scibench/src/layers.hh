/**
 * @file
 * The benchmark's metric catalog and the span-to-metric reduction.
 *
 * Untraced runs report the end-to-end metrics; traced runs report the
 * per-layer ones. Every metric is emitted on every workload: a layer
 * a workload never enters reports 0 (no work), which is the
 * prediction "flat on" in README.md.
 *
 * A span named X reports X.busy_s (summed durations) and X.self_s
 * (summed self times) per iteration; a few spans carry the busy name
 * the metric map uses instead (trace.store.write -> trace.store.write_s,
 * monitor.post -> monitor.post.wait_s, ...). The reported value is the
 * median over the traced iterations.
 */

#ifndef SCIBENCH_LAYERS_HH
#define SCIBENCH_LAYERS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "report.hh"
#include "tracer.hh"

namespace scibench {

struct MetricSpec
{
    const char *name;
    const char *unit;
};

const std::vector<MetricSpec> &endToEndMetrics();
const std::vector<MetricSpec> &perLayerMetrics();

/** Iteration ids reserved for spans outside the timed iterations:
 *  set-up repetition k is kSetupIteration + k. */
constexpr uint64_t kSetupIteration = uint64_t(1) << 30;
constexpr uint64_t kProbeIteration = uint64_t(1) << 31;

/** The busy-time metric name of span @p span. */
std::string busyMetric(const std::string &span);

/**
 * Add X.busy_s / X.self_s for every span name seen in @p ids, as the
 * median of the per-iteration totals (an iteration without the span
 * counts 0). Names already in @p report are left alone, so the timed
 * iterations take precedence over setup and probe spans.
 */
void reportSpans(const std::vector<SpanRecord> &spans,
                 const std::vector<uint64_t> &ids, Report &report);

/**
 * Restrict @p report to one catalog: metrics outside it are dropped
 * (with a note on standard error), missing ones are added as 0.
 */
void conform(Report &report, const std::vector<MetricSpec> &catalog);

} // namespace scibench

#endif // SCIBENCH_LAYERS_HH
