/**
 * @file
 * Benchmark options, result accounting and output.
 *
 * A run attempts a number of units (pipeline iterations or checking
 * sessions); a unit fails when any output check on it fails, and
 * error_rate is failed / attempted. The last line of standard output
 * is one JSON object with the keys correct, attempted, failed and
 * metrics; the lines before it print every metric by name with its
 * unit and sample count.
 */

#ifndef SCIBENCH_REPORT_HH
#define SCIBENCH_REPORT_HH

#include <cstdint>
#include <string>
#include <vector>

namespace scibench {

class Tracer;

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Scratch directory for artifacts and the trace file. */
    std::string workdir = ".scibench";
    /** Replaces the recorded corpus digest, in hex (tests of the
     *  error accounting use a wrong one). */
    std::string expectDigest;
};

struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
    uint64_t samples = 1;
};

/** Median and upper percentile of a sample, with its count. */
struct Percentiles
{
    double p50 = 0;
    double upper = 0;
    uint64_t samples = 0;
    uint64_t beyondUpper = 0; ///< samples strictly above upper
};

/** Nearest-rank percentile @p p (0 < p <= 100) of @p values. */
double percentile(std::vector<double> values, double p);

/** Median of @p values (mean of the two middle ones when even). */
double median(std::vector<double> values);

/** p50 and p@p upper with the count of samples beyond the latter. */
Percentiles percentiles(const std::vector<double> &values, double upper);

class Report
{
  public:
    /** Record one attempted unit and whether all its checks held. */
    void attempt(bool ok);

    /** Record a failed check with a message on standard error; the
     *  caller decides which unit it fails. */
    bool expect(bool condition, const std::string &what);

    void add(std::string name, double value, std::string unit,
             uint64_t samples = 1);

    uint64_t attempted() const { return attempted_; }
    uint64_t failed() const { return failed_; }
    double errorRate() const;
    const std::vector<Metric> &metrics() const { return metrics_; }
    const Metric *find(const std::string &name) const;
    void replaceMetrics(std::vector<Metric> metrics)
    {
        metrics_ = std::move(metrics);
    }

    /** Process exit code: 0 only when every unit passed. */
    int exitCode() const;

    /** Human-readable metric lines followed by the JSON line. */
    std::string render(const Options &options) const;

  private:
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
    std::vector<Metric> metrics_;
};

/** FNV-1a 64 over @p data, chained from @p seed. */
uint64_t fnv1a(const void *data, size_t size,
               uint64_t seed = 0xcbf29ce484222325ull);

/** FNV-1a 64 of a file's bytes; 0 when it cannot be read. */
uint64_t fileDigest(const std::string &path);

std::string hex(uint64_t v);

/** Process peak resident set, MiB. */
double peakRssMib();

/** Process CPU time (user + system), seconds. */
double processCpuSeconds();

/** Seconds on the steady clock since an arbitrary origin. */
double wallSeconds();

/** Derive an independent 64-bit value from @p seed and a stream id
 *  (splitmix64). */
uint64_t derive(uint64_t seed, uint64_t stream);

// Workload entry points (mine.cc, check.cc).
void runMine(const Options &options, Report &report);
void runMinePersist(const Options &options, Report &report);
void runCheck(const Options &options, Report &report);

/** The untimed phase 1-3 run the check workload loads its assertion
 *  set and replay streams from; false when its outputs are wrong. */
bool prepareCheck(const Options &options);

/** Dispatch on options.workload; false for an unknown name. */
bool runWorkload(const Options &options, Report &report);

/** Names of the known workloads. */
const std::vector<std::string> &workloadNames();

} // namespace scibench

#endif // SCIBENCH_REPORT_HH
