/**
 * @file
 * A minimal recursive-descent JSON reader for the analysis tools.
 *
 * Just enough JSON to ingest the simulator's own outputs — flat
 * StatSet dumps, the bench wrapper objects written under
 * --bench-json, and Perfetto/chrome trace-event files.  Not a
 * general-purpose parser: numbers are doubles, objects are ordered
 * maps, and duplicate keys keep the first value.
 */

#ifndef TS_ANALYSIS_JSON_HH
#define TS_ANALYSIS_JSON_HH

#include <map>
#include <string>
#include <vector>

namespace ts
{
namespace analysis
{

/** A parsed JSON value (tagged union over the standard kinds). */
struct Json
{
    enum class Kind
    {
        Null,
        Bool,
        Num,
        Str,
        Arr,
        Obj
    };

    Kind kind = Kind::Null;
    bool b = false;
    double num = 0.0;
    std::string str;
    std::vector<Json> arr;
    std::map<std::string, Json> obj;

    bool isObj() const { return kind == Kind::Obj; }
    bool isArr() const { return kind == Kind::Arr; }
    bool isNum() const { return kind == Kind::Num; }

    bool has(const std::string& key) const { return obj.count(key) != 0; }
    const Json& at(const std::string& key) const { return obj.at(key); }
};

/**
 * Parse @p text as one JSON document.
 * @return false on malformed input (out is then partial).
 */
bool parseJson(const std::string& text, Json& out);

} // namespace analysis
} // namespace ts

#endif // TS_ANALYSIS_JSON_HH
