/**
 * @file
 * Declarative grid settings for the delta-sweep CLI: the
 * `key = value` vocabulary of grid files and `--set` flags, plus the
 * assembly of a SweepSpec from parsed settings.
 *
 * One parser serves both entry points, so a grid file and the
 * equivalent flags mean exactly the same sweep.
 */

#ifndef TS_DRIVER_GRID_HH
#define TS_DRIVER_GRID_HH

#include <cstdint>
#include <string>
#include <vector>

#include "driver/options.hh"
#include "driver/sweep.hh"

namespace ts
{
namespace driver
{

/** Everything a grid can configure besides the shared options. */
struct GridSettings
{
    std::string configs;   ///< preset list ("" = static,delta)
    std::vector<std::uint64_t> seeds;
    std::vector<double> scales;
    std::uint32_t lanes = 8;
    std::string baseline;
    std::string out;
    bool quiet = false;

    std::string cacheDir;            ///< run cache ("" = off)
    std::uint64_t cacheCapBytes = 0; ///< cache budget (0 = unbounded)
    bool dryRun = false;             ///< expand + predict, no runs
};

/** Split a comma-separated list, trimming surrounding whitespace and
 *  dropping empty entries. */
std::vector<std::string> splitList(const std::string& list);

/** Parse comma-separated non-negative integer seeds (fatal on bad
 *  or empty input). */
std::vector<std::uint64_t> parseSeedList(const std::string& list);

/** Parse comma-separated positive scales (fatal on bad or empty
 *  input). */
std::vector<double> parseScaleList(const std::string& list);

/** Parse a lane count in 1..62 (fatal otherwise). */
std::uint32_t parseLanes(const std::string& s);

/** Parse a byte count with optional K/M/G suffix (fatal on bad
 *  input). */
std::uint64_t parseCapBytes(const std::string& s);

/**
 * Apply one `key = value` grid setting.  Shared keys write into
 * @p opt, grid keys into @p grid; an unknown key is fatal listing
 * every valid one.  The same vocabulary backs grid files and the
 * delta-sweep flags.
 */
void applyGridKey(const std::string& key, const std::string& value,
                  RunOptions& opt, GridSettings& grid);

/**
 * Print the whole grid-key vocabulary — every key, the values it
 * accepts, and what it does — generated from the same table
 * applyGridKey dispatches on (so the listing can never go stale).
 * Backs `delta-sweep --list-grid-keys`.
 */
void printGridKeys(std::ostream& os);

/** Read a `key = value` grid file ('#' comments, blank lines ok). */
void loadGridFile(const std::string& path, RunOptions& opt,
                  GridSettings& grid);

/**
 * Assemble the SweepSpec that @p opt and @p grid describe (empty
 * workload selection = the whole suite; progress is left off for the
 * caller to decide).  Fatal on invalid combinations, mirroring the
 * Sweep constructor's validation.
 */
SweepSpec buildSweepSpec(const RunOptions& opt,
                         const GridSettings& grid);

} // namespace driver
} // namespace ts

#endif // TS_DRIVER_GRID_HH
