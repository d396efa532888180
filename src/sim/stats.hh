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
 * During a simulation run one StatSet may be made *active* (see
 * StatSet::setActive), mirroring the tracer's activation model; probe
 * sites then sample through a StatProbe member without plumbing a
 * StatSet reference through every component.
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
    StatSet() = default;

    // Copies and moves give both sides a fresh identity: a StatProbe
    // bound to either must look its histogram up again.
    StatSet(const StatSet& o);
    StatSet(StatSet&& o) noexcept;
    StatSet& operator=(const StatSet& o);
    StatSet& operator=(StatSet&& o) noexcept;

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
     * stays valid while id() is unchanged; the caller must call
     * markSampled() after sampling through it.
     */
    Histogram& probeHistogram(const std::string& name)
    {
        return hists_[name];
    }

    /** Note that a histogram was sampled outside sample(). */
    void markSampled() { histsDirty_ = true; }

    /**
     * Identity of this set's histogram storage, unique within the
     * process; it changes whenever references handed out by
     * probeHistogram() may dangle (clear, copy, move).
     */
    std::uint64_t id() const { return id_; }

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
        id_ = freshId();
    }

    /** Number of statistics recorded (including derived ones). */
    std::size_t size() const;

    /**
     * The StatSet receiving this thread's StatProbe samples, or
     * nullptr.  The active pointer is thread_local: each thread runs
     * at most one simulation at a time, and concurrent Delta
     * instances on different threads collect samples independently.
     * Delta::run activates its result set for the duration of the
     * simulation.
     */
    static StatSet* active();

    /** Make @p s the calling thread's sampling sink (nullptr
     *  deactivates). */
    static void setActive(StatSet* s);

  private:
    /** Materialize derived histogram statistics into values_. */
    void sync() const;

    static std::uint64_t freshId();

    mutable std::map<std::string, double> values_;
    std::map<std::string, Histogram> hists_;
    mutable bool histsDirty_ = false;
    std::uint64_t id_ = freshId();
};

/**
 * A handle on one distribution of the active run StatSet.  The
 * string-keyed lookup runs once per StatSet instead of once per
 * sample, so a component holding a probe as a member can sample on
 * its hot path (per packet, per DRAM request, per task) without
 * building a key.  Samples are dropped while no set is active.
 */
class StatProbe
{
  public:
    explicit StatProbe(std::string name) : name_(std::move(name)) {}

    void
    sample(double value)
    {
        StatSet* s = StatSet::active();
        if (s == nullptr)
            return;
        if (s->id() != setId_) {
            hist_ = &s->probeHistogram(name_);
            setId_ = s->id();
        }
        hist_->sample(value);
        s->markSampled();
    }

  private:
    std::string name_;
    std::uint64_t setId_ = 0; ///< StatSet ids start at 1
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

/** Whether a run StatSet is collecting samples (guard for probe
 *  sites with work to do before they can sample). */
inline bool
statsOn()
{
    return StatSet::active() != nullptr;
}

} // namespace ts

#endif // TS_SIM_STATS_HH
