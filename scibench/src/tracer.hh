/**
 * @file
 * In-memory span tracer for the benchmark's traced run.
 *
 * A span is a named, timed interval recorded by the benchmark's own
 * code around a call into one layer's public API. Spans nest: each
 * records the span that caused it (the enclosing span on the same
 * thread, or an explicit parent handed to a worker task) and the
 * iteration it belongs to. Spans are kept in memory and written out
 * once, at exit, as Chrome trace-event JSON.
 *
 * A span's self time is its duration minus the part of its interval
 * that its children cover; children running in parallel on other
 * threads are merged as an interval union, so self time never goes
 * negative and never double-counts.
 */

#ifndef SCIBENCH_TRACER_HH
#define SCIBENCH_TRACER_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace scibench {

/** One completed span. Times are nanoseconds since the tracer
 *  started. */
struct SpanRecord
{
    uint32_t id = 0;
    uint32_t parent = 0;    ///< 0 = root
    std::string name;
    int64_t start = 0;
    int64_t end = 0;
    uint64_t iteration = 0;
    uint32_t thread = 0;
};

class Tracer
{
  public:
    Tracer();

    /** Start a span; returns its id (never 0). */
    uint32_t begin(const char *name, uint32_t parent, uint64_t iteration);

    /** Close span @p id. */
    void end(uint32_t id);

    /** Add an already-measured span, attributed to the calling
     *  thread; returns its id. */
    uint32_t add(SpanRecord rec);

    /** Nanoseconds since the tracer started. */
    int64_t now() const;

    /** Snapshot of every completed span, in completion order. */
    std::vector<SpanRecord> spans() const;

    /** Write every span as Chrome trace-event JSON. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    std::chrono::steady_clock::time_point origin_;
    mutable std::mutex mutex_;
    std::vector<SpanRecord> done_;
    std::map<uint32_t, SpanRecord> open_;
    uint32_t nextId_ = 1;
};

/**
 * RAII span. A null tracer makes it a no-op, so untraced runs pay
 * one branch. Without an explicit parent the span nests under the
 * innermost open Span of the calling thread and inherits its
 * iteration.
 */
class Span
{
  public:
    Span(Tracer *tracer, const char *name);
    Span(Tracer *tracer, const char *name, uint32_t parent,
         uint64_t iteration);
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** This span's id (0 when tracing is off). */
    uint32_t id() const { return id_; }
    uint64_t iteration() const { return iteration_; }

  private:
    Tracer *tracer_;
    uint32_t id_ = 0;
    uint64_t iteration_ = 0;
    Span *outer_ = nullptr;
};

/** Self time (seconds) of every span, keyed by span id. */
std::map<uint32_t, double> selfTimes(const std::vector<SpanRecord> &spans);

} // namespace scibench

#endif // SCIBENCH_TRACER_HH
