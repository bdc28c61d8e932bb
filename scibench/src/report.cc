#include "report.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <iostream>
#include <sstream>
#include <sys/resource.h>

namespace scibench {

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    double rank = std::ceil(p / 100.0 * double(values.size()));
    size_t index = rank < 1 ? 0 : size_t(rank) - 1;
    return values[std::min(index, values.size() - 1)];
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : (values[n / 2 - 1] + values[n / 2]) / 2;
}

Percentiles
percentiles(const std::vector<double> &values, double upper)
{
    Percentiles out;
    out.samples = values.size();
    out.p50 = median(values);
    out.upper = percentile(values, upper);
    for (double v : values)
        out.beyondUpper += v > out.upper;
    return out;
}

void
Report::attempt(bool ok)
{
    ++attempted_;
    failed_ += !ok;
}

bool
Report::expect(bool condition, const std::string &what)
{
    if (!condition)
        std::cerr << "scibench: check failed: " << what << "\n";
    return condition;
}

void
Report::add(std::string name, double value, std::string unit,
            uint64_t samples)
{
    for (auto &m : metrics_) {
        if (m.name == name) {
            m = Metric{std::move(name), value, std::move(unit), samples};
            return;
        }
    }
    metrics_.push_back(
        Metric{std::move(name), value, std::move(unit), samples});
}

double
Report::errorRate() const
{
    return attempted_ ? double(failed_) / double(attempted_) : 1.0;
}

const Metric *
Report::find(const std::string &name) const
{
    for (const auto &m : metrics_) {
        if (m.name == name)
            return &m;
    }
    return nullptr;
}

int
Report::exitCode() const
{
    return attempted_ > 0 && failed_ == 0 ? 0 : 1;
}

std::string
Report::render(const Options &options) const
{
    std::ostringstream out;
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "workload %s  seed %llu  trace %d  seconds %g\n",
                  options.workload.c_str(),
                  (unsigned long long)options.seed, options.trace ? 1 : 0,
                  options.seconds);
    out << buf;
    for (const auto &m : metrics_) {
        std::snprintf(buf, sizeof buf, "  %-34s %16.6g %-6s (n=%llu)\n",
                      m.name.c_str(), m.value, m.unit.c_str(),
                      (unsigned long long)m.samples);
        out << buf;
    }
    std::snprintf(buf, sizeof buf,
                  "  %-34s %16.6g %-6s (%llu of %llu units failed)\n",
                  "error_rate", errorRate(), "ratio",
                  (unsigned long long)failed_,
                  (unsigned long long)attempted_);
    out << buf;

    out << "{\"correct\": " << (exitCode() == 0 ? "true" : "false")
        << ", \"attempted\": " << attempted_
        << ", \"failed\": " << failed_ << ", \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
        const Metric &m = metrics_[i];
        double v = std::isfinite(m.value) ? m.value : 0.0;
        std::snprintf(buf, sizeof buf,
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      i ? ", " : "", m.name.c_str(), v, m.unit.c_str());
        out << buf;
    }
    out << "}}\n";
    return out.str();
}

uint64_t
fnv1a(const void *data, size_t size, uint64_t seed)
{
    const auto *p = static_cast<const unsigned char *>(data);
    uint64_t h = seed;
    for (size_t i = 0; i < size; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

uint64_t
fileDigest(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return 0;
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    return fnv1a(bytes.data(), bytes.size());
}

std::string
hex(uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx", (unsigned long long)v);
    return buf;
}

double
peakRssMib()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;
}

double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) / 1e9;
}

double
wallSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

uint64_t
derive(uint64_t seed, uint64_t stream)
{
    uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names{"mine", "mine-persist",
                                                "check"};
    return names;
}

bool
runWorkload(const Options &options, Report &report)
{
    if (options.workload == "mine")
        runMine(options, report);
    else if (options.workload == "mine-persist")
        runMinePersist(options, report);
    else if (options.workload == "check")
        runCheck(options, report);
    else
        return false;
    return true;
}

} // namespace scibench
