#include "tracer.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>

namespace scibench {

namespace {

thread_local Span *tlsCurrent = nullptr;

uint32_t
threadIndex()
{
    static std::atomic<uint32_t> next{0};
    thread_local uint32_t index = next.fetch_add(1);
    return index;
}

/** JSON string body with the characters span names could contain
 *  escaped. */
std::string
escaped(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

} // namespace

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {}

int64_t
Tracer::now() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
}

uint32_t
Tracer::begin(const char *name, uint32_t parent, uint64_t iteration)
{
    SpanRecord rec;
    rec.parent = parent;
    rec.name = name;
    rec.iteration = iteration;
    rec.thread = threadIndex();
    rec.start = now();
    std::lock_guard<std::mutex> lock(mutex_);
    rec.id = nextId_++;
    uint32_t id = rec.id;
    open_.emplace(id, std::move(rec));
    return id;
}

void
Tracer::end(uint32_t id)
{
    int64_t t = now();
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = open_.find(id);
    if (it == open_.end())
        return;
    it->second.end = t;
    done_.push_back(std::move(it->second));
    open_.erase(it);
}

uint32_t
Tracer::add(SpanRecord rec)
{
    rec.thread = threadIndex();
    std::lock_guard<std::mutex> lock(mutex_);
    rec.id = nextId_++;
    done_.push_back(rec);
    return rec.id;
}

std::vector<SpanRecord>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return done_;
}

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    std::vector<SpanRecord> all = spans();
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\"traceEvents\":[\n");
    for (size_t i = 0; i < all.size(); ++i) {
        const SpanRecord &s = all[i];
        std::fprintf(f,
                     "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                     "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                     "\"id\":%u,\"parent\":%u,\"iteration\":%llu}}%s\n",
                     escaped(s.name).c_str(), s.thread,
                     double(s.start) / 1e3,
                     double(s.end - s.start) / 1e3, s.id, s.parent,
                     (unsigned long long)s.iteration,
                     i + 1 < all.size() ? "," : "");
    }
    std::fprintf(f, "],\"displayTimeUnit\":\"ms\"}\n");
    return std::fclose(f) == 0;
}

Span::Span(Tracer *tracer, const char *name) : tracer_(tracer)
{
    if (!tracer_)
        return;
    outer_ = tlsCurrent;
    iteration_ = outer_ ? outer_->iteration_ : 0;
    id_ = tracer_->begin(name, outer_ ? outer_->id_ : 0, iteration_);
    tlsCurrent = this;
}

Span::Span(Tracer *tracer, const char *name, uint32_t parent,
           uint64_t iteration)
    : tracer_(tracer), iteration_(iteration)
{
    if (!tracer_)
        return;
    outer_ = tlsCurrent;
    id_ = tracer_->begin(name, parent, iteration_);
    tlsCurrent = this;
}

Span::~Span()
{
    if (!tracer_)
        return;
    tracer_->end(id_);
    tlsCurrent = outer_;
}

std::map<uint32_t, double>
selfTimes(const std::vector<SpanRecord> &spans)
{
    std::map<uint32_t, std::vector<const SpanRecord *>> children;
    for (const auto &s : spans) {
        if (s.parent)
            children[s.parent].push_back(&s);
    }
    std::map<uint32_t, double> self;
    for (const auto &s : spans) {
        std::vector<std::pair<int64_t, int64_t>> cover;
        auto it = children.find(s.id);
        if (it != children.end()) {
            for (const SpanRecord *c : it->second) {
                int64_t lo = std::max(s.start, c->start);
                int64_t hi = std::min(s.end, c->end);
                if (hi > lo)
                    cover.emplace_back(lo, hi);
            }
        }
        std::sort(cover.begin(), cover.end());
        int64_t covered = 0, runLo = 0, runHi = 0;
        bool open = false;
        for (const auto &[lo, hi] : cover) {
            if (open && lo <= runHi) {
                runHi = std::max(runHi, hi);
                continue;
            }
            if (open)
                covered += runHi - runLo;
            runLo = lo;
            runHi = hi;
            open = true;
        }
        if (open)
            covered += runHi - runLo;
        self[s.id] = double(s.end - s.start - covered) / 1e9;
    }
    return self;
}

} // namespace scibench
