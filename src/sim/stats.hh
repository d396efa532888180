/**
 * @file
 * Lightweight statistics collection.
 *
 * Components own plain counters and report them into a StatSet, a
 * hierarchical name -> value map that experiments query and dump.
 *
 * Beyond scalar counters, a StatSet collects *distributions*: call
 * sample(name, v) repeatedly and the set maintains a log-bucketed
 * Histogram per name, surfacing derived statistics (count, mean, min,
 * max, p50, p95, p99) as ordinary dotted-path values so dumps, JSON
 * output, and prefix queries see them transparently.
 *
 * Hot probe sites sample through a StatProbe member, which holds the
 * set it samples into (a run's set is its Simulator's, see
 * Simulator::stats) and looks its histogram up once.
 */

#ifndef TS_SIM_STATS_HH
#define TS_SIM_STATS_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace ts
{

class StatSet;

/**
 * A bucketed histogram for distribution-style statistics (e.g.
 * per-task latencies, packet latencies).  Default-constructed
 * histograms use logarithmic (power-of-two) buckets, which cover the
 * full dynamic range of cycle-valued samples with bounded error;
 * explicit bucket boundaries remain available for fixed-range uses.
 */
class Histogram
{
  public:
    /** Log-bucketed histogram: boundaries 0, 1, 2, 4, ... 2^46. */
    Histogram();

    /** Create with the given bucket boundaries (ascending). */
    explicit Histogram(std::vector<double> bounds);

    /** Record one sample. */
    void sample(double v);

    /** Number of samples recorded so far. */
    std::uint64_t count() const { return count_; }

    /** Mean of all samples. */
    double mean() const;

    /** Smallest sample seen (0 when empty). */
    double min() const { return count_ == 0 ? 0.0 : min_; }

    /** Largest sample seen (0 when empty). */
    double max() const { return max_; }

    /**
     * Approximate quantile @p q in [0, 1], interpolated linearly
     * within the containing bucket and clamped to [min, max].  With
     * log buckets the relative error is bounded by the bucket ratio.
     */
    double percentile(double q) const;

    /** Count in bucket i (the final bucket is overflow). */
    std::uint64_t bucket(std::size_t i) const { return buckets_.at(i); }

    /** Number of buckets, including the overflow bucket. */
    std::size_t numBuckets() const { return buckets_.size(); }

    /** Report buckets and moments into a StatSet under a prefix. */
    void report(StatSet& stats, const std::string& prefix) const;

    /** Report only derived statistics (count/mean/min/max/p50/p95/
     *  p99), not raw buckets, under a prefix. */
    void reportSummary(StatSet& stats, const std::string& prefix) const;

    /**
     * Accumulate another histogram with identical bucket boundaries.
     * Bucket counts, count, and sum add; min/max combine.  For
     * integral samples below 2^53 (every cycle-valued probe) the
     * merged moments equal those of sampling the union directly.
     */
    void mergeFrom(const Histogram& o);

  private:
    std::vector<double> bounds_;
    std::vector<std::uint64_t> buckets_;
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/** A flat, ordered collection of named statistic values. */
class StatSet
{
  public:
    /** Record (or overwrite) a statistic under a dotted path. */
    void set(const std::string& name, double value);

    /** Add to a statistic, creating it at zero if absent. */
    void add(const std::string& name, double value);

    /**
     * Record one sample of the distribution @p name (log-bucketed).
     * Derived statistics appear as `<name>.count`, `.mean`, `.min`,
     * `.max`, `.p50`, `.p95`, `.p99` in every read/dump.
     */
    void sample(const std::string& name, double value);

    /**
     * The histogram behind distribution @p name, created empty if
     * absent, for a StatProbe to sample directly.  The reference
     * stays valid until the set is cleared, assigned to or
     * destroyed; the caller must call markSampled() after sampling
     * through it.
     */
    Histogram& probeHistogram(const std::string& name)
    {
        return hists_[name];
    }

    /** Note that a histogram was sampled outside sample(). */
    void markSampled() { histsDirty_ = true; }

    /** The histogram behind a sampled distribution, or nullptr. */
    const Histogram* histogram(const std::string& name) const;

    /** All sampled distribution names, sorted. */
    std::vector<std::string> histogramNames() const;

    /** Whether a statistic with this exact name exists. */
    bool has(const std::string& name) const;

    /** Value of a statistic; fatal if absent. */
    double get(const std::string& name) const;

    /** Value of a statistic, or fallback if absent. */
    double getOr(const std::string& name, double fallback) const;

    /** Sum of every statistic whose name starts with the prefix. */
    double sumPrefix(const std::string& prefix) const;

    /** All (name, value) pairs whose name starts with the prefix. */
    std::vector<std::pair<std::string, double>>
    matchPrefix(const std::string& prefix) const;

    /** Pretty-print every statistic, one per line. */
    void dump(std::ostream& os) const;

    /** Write every statistic as one flat JSON object (dotted-path
     *  keys, escaped), full double precision, sorted by name.
     *  Non-finite values serialize as null.  Keys starting with
     *  @p excludePrefix are omitted (used to drop non-deterministic
     *  host-side `sim.host.*` counters from byte-compared dumps). */
    void dumpJson(std::ostream& os,
                  const std::string& excludePrefix = "") const;

    /** Remove all statistics. */
    void
    clear()
    {
        values_.clear();
        hists_.clear();
        histsDirty_ = false;
    }

    /** Number of statistics recorded (including derived ones). */
    std::size_t size() const;

  private:
    /** Materialize derived histogram statistics into values_. */
    void sync() const;

    mutable std::map<std::string, double> values_;
    std::map<std::string, Histogram> hists_;
    mutable bool histsDirty_ = false;
};

/**
 * A handle on one distribution of a StatSet fixed at construction.
 * The string-keyed lookup runs once, on the first sample, instead of
 * once per sample, so a component holding a probe as a member can
 * sample on its hot path (per packet, per DRAM request, per task)
 * without building a key; a probe that never samples adds no key.
 * The set must outlive the probe and must not be cleared or assigned
 * to while the probe samples into it.
 */
class StatProbe
{
  public:
    StatProbe(StatSet& set, std::string name)
        : set_(&set), name_(std::move(name))
    {}

    void
    sample(double value)
    {
        if (hist_ == nullptr)
            hist_ = &set_->probeHistogram(name_);
        hist_->sample(value);
        set_->markSampled();
    }

  private:
    StatSet* set_;
    std::string name_;
    Histogram* hist_ = nullptr;
};

/** Escape a string for use inside a JSON string literal. */
std::string jsonEscape(const std::string& s);

/**
 * Canonical JSON rendering of a double: the shortest decimal string
 * that round-trips to exactly the same value (std::to_chars), so a
 * dump -> parse -> dump cycle is byte-idempotent and byte-compares /
 * cache keys are reproducible across invocations.  Non-finite values
 * render as "null" (JSON has no NaN/inf).
 */
std::string jsonNumber(double value);

} // namespace ts

#endif // TS_SIM_STATS_HH
