/**
 * @file
 * Host-side wall-time profiler for the simulation core.
 *
 * Attributes wall-nanoseconds to what the *host* spends them on:
 * event dispatch, ticking each component class (lanes vs NoC vs DRAM
 * vs dispatcher), channel commits, idle fast-forward bookkeeping, and
 * quiescence checks.  The breakdown is reported as
 * `sim.host.profile.*` (excluded from byte-compared dumps like every
 * `sim.host.*` counter) and rendered by `delta-report` as the "Host
 * hotspots" section — the measurement that tells us which component
 * class the host spends its time on.
 *
 * Profiling is opt-in (DeltaConfig::hostProfile, default off): the
 * instrumented sections take two steady_clock reads per section per
 * executed cycle, which is far too expensive to leave on.  When no
 * profiler is attached the hooks are single null-pointer branches.
 *
 * Header-only so ts_sim can use it without a link-time dependency on
 * the obs library.
 */

#ifndef TS_OBS_HOST_PROFILER_HH
#define TS_OBS_HOST_PROFILER_HH

#include <chrono>
#include <cstdint>
#include <string>

#include "sim/stats.hh"
#include "sim/types.hh"

namespace ts::obs
{

class HostProfiler
{
  public:
    using Clock = std::chrono::steady_clock;

    /** Wall-time buckets; Tick* buckets split by component class. */
    enum Bucket : unsigned
    {
        Events,         ///< EventQueue::fireUpTo
        TickLane,       ///< lanes and their sub-components
        TickNoc,        ///< routers
        TickDram,       ///< main memory + memory node
        TickDispatcher, ///< the task dispatcher
        TickOther,      ///< anything unclassified
        Commit,         ///< channel commit + observer wakes
        FastForward,    ///< idle-skip target math + timed wakes
        Quiescence,     ///< incremental/naive quiescence checks
        kBuckets
    };

    static Clock::time_point now() { return Clock::now(); }

    void
    add(unsigned bucket, Clock::time_point from, Clock::time_point to)
    {
        ns_[bucket] += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(to -
                                                                 from)
                .count());
    }

    std::uint64_t ns(unsigned bucket) const { return ns_[bucket]; }

    std::uint64_t
    totalNs() const
    {
        std::uint64_t t = 0;
        for (unsigned b = 0; b < kBuckets; ++b)
            t += ns_[b];
        return t;
    }

    /** Tick bucket for a component, by its diagnostic name. */
    static Bucket
    tickBucketForName(const std::string& name)
    {
        if (name.rfind("lane", 0) == 0)
            return TickLane;
        if (name.rfind("noc.", 0) == 0)
            return TickNoc;
        if (name == "main_memory" || name == "memnode")
            return TickDram;
        if (name == "dispatcher")
            return TickDispatcher;
        return TickOther;
    }

    /** Stat-key suffix of a bucket (sim.host.profile.<suffix>Ns). */
    static const char*
    bucketKey(unsigned bucket)
    {
        switch (bucket) {
        case Events:
            return "events";
        case TickLane:
            return "tickLane";
        case TickNoc:
            return "tickNoc";
        case TickDram:
            return "tickDram";
        case TickDispatcher:
            return "tickDispatcher";
        case TickOther:
            return "tickOther";
        case Commit:
            return "commit";
        case FastForward:
            return "fastForward";
        case Quiescence:
            return "quiescence";
        }
        return "?";
    }

    /** Emit every bucket as sim.host.profile.<bucket>Ns. */
    void
    reportStats(StatSet& stats) const
    {
        for (unsigned b = 0; b < kBuckets; ++b)
            stats.set(std::string("sim.host.profile.") +
                          bucketKey(b) + "Ns",
                      static_cast<double>(ns_[b]));
    }

  private:
    std::uint64_t ns_[kBuckets] = {};
};

} // namespace ts::obs

#endif // TS_OBS_HOST_PROFILER_HH
