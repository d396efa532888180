/**
 * @file
 * Time-series sampler: snapshots a configurable set of probes every N
 * simulated cycles into a compact columnar timeline.
 *
 * Sample points are *weak* events on the simulator's event queue, so
 * they fire at exact simulated ticks in both execution modes (the
 * fast-forward loop stops at weak ticks; the naive loop reaches every
 * tick anyway) without keeping the simulation alive or perturbing it:
 * a sampled run's `delta.*` stats are bit-identical to an unsampled
 * one, and the timeline itself is bit-identical across `-j1`/`-jN`
 * and `--no-fast-forward`.
 *
 * Probes come in two flavours.  A *counter* probe reads a cumulative
 * value (e.g. a lane's busy-cycle bucket); the report emits
 * per-interval deltas so the rendered waterfall shows occupancy per
 * slice.  A *gauge* probe reads an instantaneous value (queue depths,
 * packets in flight) emitted as-is.
 *
 * Emitted keys (all under `delta.timeline.`):
 *   delta.timeline.interval       sampling interval in cycles
 *   delta.timeline.samples        number of samples taken
 *   delta.timeline.t.<k>          simulated tick of sample k
 *   delta.timeline.<series>.<k>   value of a series at sample k
 * where <k> is a zero-padded 5-digit index so lexicographic key order
 * equals sample order.
 */

#ifndef TS_OBS_TIMELINE_HH
#define TS_OBS_TIMELINE_HH

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "sim/stats.hh"
#include "sim/types.hh"

namespace ts
{
class Simulator;
}

namespace ts::obs
{

struct TimelineConfig
{
    /** Sampling interval in simulated cycles; 0 disables sampling. */
    Tick interval = 0;

    /** Stop sampling after this many samples (the final quiescence
     *  sample is always appended). */
    std::size_t maxSamples = 512;

    /**
     * Comma-separated probe-group subset ("lanes,ready,noc,dram");
     * empty means every group.  Unknown names are ignored — the
     * grid vocabulary validates upstream.
     */
    std::string series;
};

class Timeline
{
  public:
    Timeline(Simulator& sim, TimelineConfig cfg);

    /** Whether a probe group passes the config's series filter. */
    bool wants(const std::string& group) const;

    /** Register a cumulative-counter probe (reported as deltas). */
    void addCounter(const std::string& group, std::string series,
                    std::function<double()> read);

    /** Register an instantaneous-gauge probe (reported as-is). */
    void addGauge(const std::string& group, std::string series,
                  std::function<double()> read);

    /** Take the t=0 sample and arm the first weak sample event. */
    void start();

    /**
     * Append a final sample at the current tick (end of run), unless
     * the armed cadence already sampled this exact tick.
     */
    void finalSample();

    /** Number of samples taken so far. */
    std::size_t samples() const { return at_.size(); }

    /** Emit the columnar timeline into @p stats. */
    void report(StatSet& stats) const;

  private:
    struct Probe
    {
        std::string series;
        std::function<double()> read;
        bool counter = false;
    };

    void addProbe(const std::string& group, std::string series,
                  std::function<double()> read, bool counter);
    void sample();
    void arm();

    Simulator& sim_;
    TimelineConfig cfg_;
    std::vector<std::string> groups_; // parsed series filter
    std::vector<Probe> probes_;
    std::vector<Tick> at_;
    std::vector<std::vector<double>> values_; // [probe][sample]
};

} // namespace ts::obs

#endif // TS_OBS_TIMELINE_HH
