#include "sim/stats.hh"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <iomanip>
#include <limits>

#include "sim/logging.hh"

namespace ts
{

namespace
{

thread_local StatSet* gActiveStats = nullptr;

std::vector<double>
log2Bounds()
{
    // 0, 1, 2, 4, ... 2^46: covers cycle-valued samples of any
    // realistic run with <2x relative bucket error.
    std::vector<double> b;
    b.push_back(0.0);
    for (int e = 0; e <= 46; ++e)
        b.push_back(static_cast<double>(std::uint64_t{1} << e));
    return b;
}

} // namespace

std::uint64_t
StatSet::freshId()
{
    static std::atomic<std::uint64_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
}

StatSet::StatSet(const StatSet& o)
    : values_(o.values_), hists_(o.hists_), histsDirty_(o.histsDirty_)
{
}

StatSet::StatSet(StatSet&& o) noexcept
    : values_(std::move(o.values_)), hists_(std::move(o.hists_)),
      histsDirty_(o.histsDirty_)
{
    o.id_ = freshId();
}

StatSet&
StatSet::operator=(const StatSet& o)
{
    if (this != &o) {
        values_ = o.values_;
        hists_ = o.hists_;
        histsDirty_ = o.histsDirty_;
        id_ = freshId();
    }
    return *this;
}

StatSet&
StatSet::operator=(StatSet&& o) noexcept
{
    if (this != &o) {
        values_ = std::move(o.values_);
        hists_ = std::move(o.hists_);
        histsDirty_ = o.histsDirty_;
        id_ = freshId();
        o.id_ = freshId();
    }
    return *this;
}

StatSet*
StatSet::active()
{
    return gActiveStats;
}

void
StatSet::setActive(StatSet* s)
{
    gActiveStats = s;
}

std::string
jsonEscape(const std::string& s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
jsonNumber(double value)
{
    if (!std::isfinite(value))
        return "null";
    // Shortest round-trip form.  to_chars never emits a leading '+'
    // and uses scientific notation only when it is shorter, so the
    // output is a deterministic function of the value alone.
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof(buf), value);
    TS_ASSERT(res.ec == std::errc());
    return std::string(buf, res.ptr);
}

void
StatSet::set(const std::string& name, double value)
{
    values_[name] = value;
}

void
StatSet::add(const std::string& name, double value)
{
    values_[name] += value;
}

void
StatSet::sample(const std::string& name, double value)
{
    hists_[name].sample(value);
    histsDirty_ = true;
}

const Histogram*
StatSet::histogram(const std::string& name) const
{
    auto it = hists_.find(name);
    return it == hists_.end() ? nullptr : &it->second;
}

std::vector<std::string>
StatSet::histogramNames() const
{
    std::vector<std::string> out;
    out.reserve(hists_.size());
    for (const auto& [name, h] : hists_)
        out.push_back(name);
    return out;
}

void
StatSet::sync() const
{
    if (!histsDirty_)
        return;
    for (const auto& [name, h] : hists_) {
        values_[name + ".count"] = static_cast<double>(h.count());
        values_[name + ".mean"] = h.mean();
        values_[name + ".min"] = h.min();
        values_[name + ".max"] = h.max();
        values_[name + ".p50"] = h.percentile(0.50);
        values_[name + ".p95"] = h.percentile(0.95);
        values_[name + ".p99"] = h.percentile(0.99);
    }
    histsDirty_ = false;
}

bool
StatSet::has(const std::string& name) const
{
    sync();
    return values_.count(name) != 0;
}

double
StatSet::get(const std::string& name) const
{
    sync();
    auto it = values_.find(name);
    if (it == values_.end())
        fatal("unknown statistic '", name, "'");
    return it->second;
}

double
StatSet::getOr(const std::string& name, double fallback) const
{
    sync();
    auto it = values_.find(name);
    return it == values_.end() ? fallback : it->second;
}

double
StatSet::sumPrefix(const std::string& prefix) const
{
    sync();
    double sum = 0.0;
    for (auto it = values_.lower_bound(prefix); it != values_.end(); ++it) {
        if (it->first.compare(0, prefix.size(), prefix) != 0)
            break;
        sum += it->second;
    }
    return sum;
}

std::vector<std::pair<std::string, double>>
StatSet::matchPrefix(const std::string& prefix) const
{
    sync();
    std::vector<std::pair<std::string, double>> out;
    for (auto it = values_.lower_bound(prefix); it != values_.end(); ++it) {
        if (it->first.compare(0, prefix.size(), prefix) != 0)
            break;
        out.emplace_back(it->first, it->second);
    }
    return out;
}

std::size_t
StatSet::size() const
{
    sync();
    return values_.size();
}

void
StatSet::dump(std::ostream& os) const
{
    sync();
    for (const auto& [name, value] : values_)
        os << std::left << std::setw(48) << name << " " << value << "\n";
}

void
StatSet::dumpJson(std::ostream& os,
                  const std::string& excludePrefix) const
{
    sync();
    os << "{";
    bool first = true;
    for (const auto& [name, value] : values_) {
        if (!excludePrefix.empty() &&
            name.compare(0, excludePrefix.size(), excludePrefix) == 0)
            continue;
        os << (first ? "\n" : ",\n") << "  \"" << jsonEscape(name)
           << "\": " << jsonNumber(value);
        first = false;
    }
    os << "\n}\n";
}

Histogram::Histogram() : Histogram(log2Bounds()) {}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1, 0)
{
    TS_ASSERT(std::is_sorted(bounds_.begin(), bounds_.end()));
}

void
Histogram::sample(double v)
{
    std::size_t i = 0;
    while (i < bounds_.size() && v > bounds_[i])
        ++i;
    ++buckets_[i];
    if (count_ == 0)
        min_ = v;
    else
        min_ = std::min(min_, v);
    ++count_;
    sum_ += v;
    max_ = std::max(max_, v);
}

double
Histogram::mean() const
{
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

double
Histogram::percentile(double q) const
{
    if (count_ == 0)
        return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    const double target = q * static_cast<double>(count_);
    double cum = 0.0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        if (buckets_[i] == 0)
            continue;
        const double next = cum + static_cast<double>(buckets_[i]);
        if (next >= target) {
            const double lo = i == 0 ? 0.0 : bounds_[i - 1];
            const double hi =
                i < bounds_.size() ? bounds_[i] : max_;
            const double frac =
                (target - cum) / static_cast<double>(buckets_[i]);
            const double v = lo + frac * (hi - lo);
            return std::clamp(v, min_, max_);
        }
        cum = next;
    }
    return max_;
}

void
Histogram::mergeFrom(const Histogram& o)
{
    TS_ASSERT(bounds_ == o.bounds_,
              "merging histograms with different bucket boundaries");
    if (o.count_ == 0)
        return;
    min_ = count_ == 0 ? o.min_ : std::min(min_, o.min_);
    max_ = std::max(max_, o.max_);
    count_ += o.count_;
    sum_ += o.sum_;
    for (std::size_t i = 0; i < buckets_.size(); ++i)
        buckets_[i] += o.buckets_[i];
}

void
Histogram::report(StatSet& stats, const std::string& prefix) const
{
    reportSummary(stats, prefix);
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        stats.set(prefix + ".bucket" + std::to_string(i),
                  static_cast<double>(buckets_[i]));
    }
}

void
Histogram::reportSummary(StatSet& stats, const std::string& prefix) const
{
    stats.set(prefix + ".count", static_cast<double>(count_));
    stats.set(prefix + ".mean", mean());
    stats.set(prefix + ".min", min());
    stats.set(prefix + ".max", max_);
    stats.set(prefix + ".p50", percentile(0.50));
    stats.set(prefix + ".p95", percentile(0.95));
    stats.set(prefix + ".p99", percentile(0.99));
}

} // namespace ts
