/**
 * @file
 * Shared output helpers for the benchmark harness: every bench prints
 * a banner, a paper-vs-measured table, and a verdict line, so the
 * whole harness can be eyeballed (or grepped) in one pass. The perf
 * benches also emit self-describing JSON records (Record) that
 * tools/check_perf_regression.py reads without any per-metric list.
 */

#ifndef QRA_BENCH_BENCH_UTIL_HH
#define QRA_BENCH_BENCH_UTIL_HH

#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/strings.hh"

namespace qra {
namespace bench {

/** Seconds elapsed since @p start (for throughput measurements). */
inline double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Print the bench banner. */
inline void
banner(const std::string &artefact, const std::string &description)
{
    std::printf("==============================================="
                "=================\n");
    std::printf("%s — %s\n", artefact.c_str(), description.c_str());
    std::printf("==============================================="
                "=================\n");
}

/** Print one aligned row of label / paper / measured / note. */
inline void
row(const std::string &label, const std::string &paper,
    const std::string &measured, const std::string &note = "")
{
    std::printf("  %-28s %14s %14s   %s\n", label.c_str(),
                paper.c_str(), measured.c_str(), note.c_str());
}

/** Print the table header for row(). */
inline void
rowHeader()
{
    std::printf("  %-28s %14s %14s\n", "", "paper", "measured");
}

/** Print a free-form note line. */
inline void
note(const std::string &text)
{
    std::printf("  %s\n", text.c_str());
}

/** Print the final verdict: does the measured shape match? */
inline void
verdict(bool ok, const std::string &claim)
{
    std::printf("  -> %s: %s\n\n", ok ? "SHAPE OK" : "SHAPE MISMATCH",
                claim.c_str());
}

/**
 * One self-describing perf record, printed as a single JSON line:
 *
 *   {"bench":B,"section":S,<identity fields>,
 *    "metrics":{NAME:{"value":V,"better":"higher"|"lower"[,"min"|"max":X]}}}
 *
 * Every top-level key except "metrics" identifies the record (what
 * was measured); each metric declares which direction is better and,
 * optionally, an absolute bound its current value must respect. Host
 * facts and numbers derivable from another metric stay out.
 */
class Record
{
  public:
    Record(const std::string &bench, const std::string &section)
        : head_("{\"bench\":\"" + bench + "\",\"section\":\"" + section +
                "\"")
    {}

    /** Add a string identity field. */
    Record &
    id(const std::string &key, const std::string &value)
    {
        head_ += ",\"" + key + "\":\"" + value + "\"";
        return *this;
    }

    /** Add a numeric identity field. */
    Record &
    id(const std::string &key, double value)
    {
        head_ += ",\"" + key + "\":" + number(value, 10);
        return *this;
    }

    /** Add a metric where larger values are better. */
    Record &
    higher(const std::string &name, double value)
    {
        metrics_.push_back({name, value, "higher"});
        return *this;
    }

    /** Add a metric where smaller values are better. */
    Record &
    lower(const std::string &name, double value)
    {
        metrics_.push_back({name, value, "lower"});
        return *this;
    }

    /** Bound the last metric added: its value must stay >= @p bound. */
    Record &
    min(double bound)
    {
        metrics_.back().bound = ",\"min\":" + number(bound, 6);
        return *this;
    }

    /** Bound the last metric added: its value must stay <= @p bound. */
    Record &
    max(double bound)
    {
        metrics_.back().bound = ",\"max\":" + number(bound, 6);
        return *this;
    }

    /** Print the record as one JSON line on stdout. */
    void
    emit() const
    {
        std::string line = head_ + ",\"metrics\":{";
        for (std::size_t i = 0; i < metrics_.size(); ++i) {
            const Metric &m = metrics_[i];
            line += (i ? ",\"" : "\"") + m.name + "\":{\"value\":" +
                    number(m.value, 6) + ",\"better\":\"" + m.better +
                    "\"" + m.bound + "}";
        }
        std::printf("%s}}\n", line.c_str());
    }

  private:
    struct Metric
    {
        std::string name;
        double value;
        const char *better;
        std::string bound = {};
    };

    /** A JSON number (null when not finite, which JSON cannot hold). */
    static std::string
    number(double value, int digits)
    {
        if (!std::isfinite(value))
            return "null";
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.*g", digits, value);
        return buf;
    }

    std::string head_;
    std::vector<Metric> metrics_;
};

} // namespace bench
} // namespace qra

#endif // QRA_BENCH_BENCH_UTIL_HH
