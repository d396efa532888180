/**
 * @file
 * Cycle-level tracing: Chrome trace-event / Perfetto-compatible
 * timeline output for the whole accelerator.
 *
 * A Tracer turns component activity into a JSON event stream that
 * loads directly into Perfetto (https://ui.perfetto.dev) or
 * chrome://tracing.  Simulated cycles map 1:1 onto trace microseconds.
 *
 * Event model:
 *  - every component gets its own *track* (a "thread" in the trace),
 *    keyed by its diagnostic name;
 *  - duration events ("B"/"E") mark spans such as task execution or a
 *    stream in flight; spans nest on a track;
 *  - complete events ("X") mark spans whose end is known at emit time
 *    (e.g. a DRAM access of fixed service latency);
 *  - instant events ("i") mark decisions (dispatch, pipe activation,
 *    packet injection);
 *  - counter events ("C") sample numeric series (queue depths,
 *    per-lane cycle classes).
 *
 * Cost model: a run's Simulator holds its tracer
 * (Simulator::setTracer), and components reach it through
 * Ticked::tracer() or their Simulator, which return nullptr unless an
 * enabled tracer is attached.  Instrumentation sites guard with
 * `if (auto* t = tracer())`, a load-and-branch when tracing is off.
 * A traced run produces bit-identical simulation results.
 *
 * DeltaConfig::trace carries the configuration, which the --trace
 * flag fills in through the options layer (src/driver/options.hh).
 */

#ifndef TS_TRACE_TRACE_HH
#define TS_TRACE_TRACE_HH

#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace ts
{

namespace trace
{

/** Tracer configuration (a member of DeltaConfig). */
struct TracerConfig
{
    bool enabled = false;
    std::string path = "ts_trace.json";
    /** Process name shown in the Perfetto UI. */
    std::string processName = "delta";
};

/** Track handle; returned by Tracer::track(). */
using TrackId = std::uint32_t;

/**
 * The event sink: formats and buffers Chrome trace events and writes
 * them to a JSON file.  Events are streamed through a growable buffer
 * that is flushed to disk in large chunks, so long runs do not
 * accumulate memory proportional to event count.
 */
class Tracer
{
  public:
    explicit Tracer(TracerConfig cfg);
    ~Tracer();

    Tracer(const Tracer&) = delete;
    Tracer& operator=(const Tracer&) = delete;

    bool enabled() const { return enabled_; }
    const std::string& path() const { return cfg_.path; }

    /** Advance trace time; called once per simulated cycle. */
    void setNow(Tick now) { now_ = now; }

    /** Current trace time in cycles. */
    Tick now() const { return now_; }

    /**
     * Get-or-create the track for a component name.  Tracks appear as
     * named threads; creation order fixes UI sort order.
     */
    TrackId track(const std::string& name);

    /** Begin a span on a track ("B"). @p args is a JSON object body
     *  such as `"uid":3` (may be empty). */
    void begin(TrackId tid, const char* name, std::string args = {});

    /** End the innermost open span on a track ("E"). */
    void end(TrackId tid);

    /** A span with a known duration ("X"), starting at @p start. */
    void complete(TrackId tid, Tick start, Tick dur, const char* name,
                  std::string args = {});

    /** A point event on a track ("i"). */
    void instant(TrackId tid, const char* name, std::string args = {});

    /** Sample one numeric series ("C"); series share a chart when
     *  they share @p name, distinguished by @p series. */
    void counter(const char* name, const char* series, double value);

    /** Number of events emitted so far. */
    std::uint64_t events() const { return events_; }

    /** Flush buffered events and close the JSON document; fatal()
     *  when the file cannot be written.  Safe to call more than
     *  once; the destructor closes an unfinished document and only
     *  warns on a write error. */
    void finish();

  private:
    /** finish() without the error report: false on a write error. */
    bool closeDocument();
    void emitPrefix(char ph, Tick ts, TrackId tid);
    void header();
    void maybeFlush();

    TracerConfig cfg_;
    bool enabled_ = false;
    bool finished_ = false;
    Tick now_ = 0;
    std::ofstream out_;
    std::string buf_;
    std::map<std::string, TrackId> tracks_;
    TrackId nextTrack_ = 1;
    std::uint64_t events_ = 0;
};

namespace detail
{

inline void
argsInto(std::ostringstream&)
{
}

template <typename V, typename... Rest>
void
argsInto(std::ostringstream& os, const char* key, const V& v,
         const Rest&... rest)
{
    os << '"' << key << "\":";
    if constexpr (std::is_convertible_v<V, std::string>) {
        os << '"' << v << '"';
    } else {
        os << +v; // promote char-sized integers to numbers
    }
    if constexpr (sizeof...(rest) > 0)
        os << ',';
    argsInto(os, rest...);
}

} // namespace detail

/**
 * Build a JSON object body from key/value pairs:
 *   trace::args("uid", 3, "lane", 1) -> `"uid":3,"lane":1`
 * Values may be arithmetic or string-like.  Only call under a
 * tracer guard; the formatting is not free.
 */
template <typename... KV>
std::string
args(const KV&... kv)
{
    std::ostringstream os;
    detail::argsInto(os, kv...);
    return os.str();
}

} // namespace trace

} // namespace ts

#endif // TS_TRACE_TRACE_HH
