/**
 * @file
 * Tests of the benchmark's own machinery: span nesting and self-time
 * arithmetic, percentile-with-sample-count reporting, and error
 * accounting (a wrong expected digest fails every unit and the run).
 */

#include <gtest/gtest.h>

#include <thread>

#include "layers.hh"
#include "report.hh"
#include "tracer.hh"

namespace scibench {
namespace {

SpanRecord
span(uint32_t id, uint32_t parent, const char *name, int64_t start,
     int64_t end, uint64_t iteration = 0)
{
    SpanRecord r;
    r.id = id;
    r.parent = parent;
    r.name = name;
    r.start = start;
    r.end = end;
    r.iteration = iteration;
    return r;
}

TEST(Tracer, SelfTimeSubtractsTheUnionOfChildren)
{
    // Two overlapping children (parallel workers) cover [10, 60] of
    // the root; a grandchild covers [15, 20] of the first child.
    std::vector<SpanRecord> spans{
        span(1, 0, "root", 0, 100'000'000),
        span(2, 1, "a", 10'000'000, 40'000'000),
        span(3, 1, "b", 30'000'000, 60'000'000),
        span(4, 2, "c", 15'000'000, 20'000'000),
    };
    auto self = selfTimes(spans);
    EXPECT_DOUBLE_EQ(self[1], 0.050);
    EXPECT_DOUBLE_EQ(self[2], 0.025);
    EXPECT_DOUBLE_EQ(self[3], 0.030);
    EXPECT_DOUBLE_EQ(self[4], 0.005);
}

TEST(Tracer, ChildOutsideItsParentIsClipped)
{
    std::vector<SpanRecord> spans{
        span(1, 0, "root", 10, 20),
        span(2, 1, "late", 15, 40),
    };
    auto self = selfTimes(spans);
    EXPECT_DOUBLE_EQ(self[1], 5e-9);
    EXPECT_DOUBLE_EQ(self[2], 25e-9);
}

TEST(Tracer, ScopedSpansNestAndCarryTheIteration)
{
    Tracer tr;
    uint32_t outerId = 0, innerId = 0, workerId = 0;
    {
        Span outer(&tr, "outer", 0, 7);
        outerId = outer.id();
        {
            Span inner(&tr, "inner");
            innerId = inner.id();
            EXPECT_EQ(inner.iteration(), 7u);
        }
        std::thread worker([&] {
            Span w(&tr, "worker", outerId, 7);
            workerId = w.id();
        });
        worker.join();
    }
    Span after(&tr, "after");
    auto spans = tr.spans();
    ASSERT_EQ(spans.size(), 3u);
    for (const auto &s : spans) {
        EXPECT_LE(s.start, s.end);
        EXPECT_EQ(s.iteration, 7u);
        if (s.id == innerId || s.id == workerId)
            EXPECT_EQ(s.parent, outerId);
        else
            EXPECT_EQ(s.parent, 0u);
    }
    EXPECT_NE(innerId, workerId);
}

TEST(Tracer, NullTracerRecordsNothing)
{
    Span s(nullptr, "off");
    EXPECT_EQ(s.id(), 0u);
    Tracer tr;
    {
        Span on(&tr, "on");
        Span off(nullptr, "off");
    }
    ASSERT_EQ(tr.spans().size(), 1u);
    EXPECT_EQ(tr.spans()[0].parent, 0u);
}

TEST(Tracer, TotalsAndMediansPerIteration)
{
    // Iteration 1 runs "x" twice (3 + 1 s), iterations 2 and 3 once
    // (2 s, 10 s); iteration 3 also has a 4 s child "y" inside "x".
    std::vector<SpanRecord> spans{
        span(1, 0, "x", 0, 3'000'000'000, 1),
        span(2, 0, "x", 0, 1'000'000'000, 1),
        span(3, 0, "x", 0, 2'000'000'000, 2),
        span(4, 0, "x", 0, 10'000'000'000, 3),
        span(5, 4, "y", 0, 4'000'000'000, 3),
    };
    Report report;
    reportSpans(spans, {1, 2, 3}, report);
    ASSERT_NE(report.find("x.busy_s"), nullptr);
    // Per-iteration busy totals {4, 2, 10}, self totals {4, 2, 6}.
    EXPECT_DOUBLE_EQ(report.find("x.busy_s")->value, 4.0);
    EXPECT_EQ(report.find("x.busy_s")->samples, 3u);
    EXPECT_DOUBLE_EQ(report.find("x.self_s")->value, 4.0);
    // "y" ran in one of three iterations: median of {0, 0, 4}.
    EXPECT_DOUBLE_EQ(report.find("y.busy_s")->value, 0.0);
}

TEST(Tracer, BusyMetricAliases)
{
    EXPECT_EQ(busyMetric("monitor.post"), "monitor.post.wait_s");
    EXPECT_EQ(busyMetric("trace.store.write"), "trace.store.write_s");
    EXPECT_EQ(busyMetric("sci.infer"), "sci.infer.busy_s");
}

TEST(Percentiles, MedianAndNearestRankWithSampleCount)
{
    std::vector<double> v;
    for (int i = 100; i >= 1; --i)
        v.push_back(i);
    Percentiles p = percentiles(v, 90);
    EXPECT_EQ(p.samples, 100u);
    EXPECT_DOUBLE_EQ(p.p50, 50.5);
    EXPECT_DOUBLE_EQ(p.upper, 90);
    EXPECT_EQ(p.beyondUpper, 10u);

    Percentiles small = percentiles({3, 1, 2}, 90);
    EXPECT_EQ(small.samples, 3u);
    EXPECT_DOUBLE_EQ(small.p50, 2);
    EXPECT_DOUBLE_EQ(small.upper, 3);
    EXPECT_EQ(small.beyondUpper, 0u);

    EXPECT_DOUBLE_EQ(percentile({}, 50), 0);
    EXPECT_DOUBLE_EQ(median({4, 1}), 2.5);
}

TEST(Report, RendersEveryMetricWithUnitAndSampleCount)
{
    Report r;
    r.attempt(true);
    r.add("run_s", 1.25, "s", 9);
    Options o;
    o.workload = "mine";
    std::string text = r.render(o);
    EXPECT_NE(text.find("run_s"), std::string::npos);
    EXPECT_NE(text.find("(n=9)"), std::string::npos);
    std::string last = text.substr(text.rfind('\n', text.size() - 2) + 1);
    EXPECT_EQ(last, "{\"correct\": true, \"attempted\": 1, \"failed\": 0, "
                    "\"metrics\": {\"run_s\": {\"value\": 1.25, "
                    "\"unit\": \"s\"}}}\n");
}

TEST(Report, ConformAddsMissingAndDropsUnknownMetrics)
{
    Report r;
    r.add("run_s", 2, "s");
    r.add("not_in_catalog", 1, "s");
    conform(r, endToEndMetrics());
    EXPECT_EQ(r.metrics().size(), endToEndMetrics().size());
    EXPECT_EQ(r.find("not_in_catalog"), nullptr);
    EXPECT_DOUBLE_EQ(r.find("run_s")->value, 2);
    EXPECT_DOUBLE_EQ(r.find("setup_s")->value, 0);
}

TEST(ErrorAccounting, FailedUnitsSetTheRateAndTheExitCode)
{
    Report r;
    EXPECT_EQ(r.exitCode(), 1); // nothing attempted is not a pass
    r.attempt(true);
    EXPECT_EQ(r.exitCode(), 0);
    EXPECT_DOUBLE_EQ(r.errorRate(), 0);
    r.attempt(false);
    EXPECT_DOUBLE_EQ(r.errorRate(), 0.5);
    EXPECT_EQ(r.exitCode(), 1);
}

TEST(ErrorAccounting, WrongExpectedDigestFailsEveryIteration)
{
    Options o;
    o.workload = "mine";
    o.seconds = 0.01; // one iteration
    o.workdir = ::testing::TempDir() + "scibench-test-work";
    o.expectDigest = "1";
    Report r;
    ASSERT_TRUE(runWorkload(o, r));
    EXPECT_GE(r.attempted(), 1u);
    EXPECT_DOUBLE_EQ(r.errorRate(), 1.0);
    EXPECT_NE(r.exitCode(), 0);
    EXPECT_NE(r.render(o).find("\"correct\": false"), std::string::npos);
}

} // namespace
} // namespace scibench
