/**
 * @file
 * In-memory span log for the benchmark's traced runs.
 *
 * A span is one call into a layer: its name, start and end on the
 * steady clock, the span that caused it, and a few attributes. Spans
 * are kept in memory (one mutex, appended from any thread) and written
 * out as one JSON array when the run ends, so recording costs a clock
 * read and a vector push, never I/O on the measured path.
 */

#ifndef PERFBENCH_SPANS_HPP
#define PERFBENCH_SPANS_HPP

#include <chrono>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Microseconds of @p t since the process-wide epoch. */
inline double
sinceEpochUs(Clock::time_point t)
{
    static const Clock::time_point epoch = Clock::now();
    return std::chrono::duration<double, std::micro>(t - epoch).count();
}

/** Seconds elapsed since @p t0. */
inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

class SpanLog
{
  public:
    /** Reserve an id for a span that will be recorded later. */
    std::uint64_t newId()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return next_id_++;
    }

    /** Record a finished span. */
    void record(std::uint64_t id, std::uint64_t parent,
                const std::string &name, Clock::time_point start,
                Clock::time_point end,
                ringsim::util::JsonValue attrs =
                    ringsim::util::JsonValue::object())
    {
        ringsim::util::JsonValue s = ringsim::util::JsonValue::object();
        s.set("id", ringsim::util::JsonValue::integer(id));
        s.set("parent", ringsim::util::JsonValue::integer(parent));
        s.set("name", ringsim::util::JsonValue::string(name));
        s.set("start_us",
              ringsim::util::JsonValue::number(sinceEpochUs(start)));
        s.set("end_us", ringsim::util::JsonValue::number(sinceEpochUs(end)));
        s.set("attrs", std::move(attrs));
        std::lock_guard<std::mutex> lock(mutex_);
        spans_.push_back(std::move(s));
    }

    /** Write every recorded span to @p path as one JSON array. */
    bool writeTo(const std::string &path) const
    {
        ringsim::util::JsonValue all = ringsim::util::JsonValue::array();
        {
            std::lock_guard<std::mutex> lock(mutex_);
            for (const ringsim::util::JsonValue &s : spans_)
                all.append(s);
        }
        std::ofstream out(path);
        out << all.dump() << "\n";
        return static_cast<bool>(out);
    }

  private:
    mutable std::mutex mutex_;
    std::uint64_t next_id_ = 1;
    std::vector<ringsim::util::JsonValue> spans_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HPP
