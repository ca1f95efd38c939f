/**
 * @file
 * MetricsRegistry: named counters and histograms with lock-free
 * thread-local shards and a deterministic snapshot.
 *
 * The registry is the runtime's one metrics sink. Components register
 * a metric once (find-or-register by name, returning a small handle)
 * and update it through the handle on their hot paths. Updates go to
 * a per-thread shard — a fixed-capacity array of relaxed atomics the
 * owning thread increments without locks — and a snapshot merges all
 * shards. Counters and histogram buckets are integer sums, so the
 * merged totals are identical no matter how work was distributed
 * across threads: metrics are deterministic under any thread count,
 * exactly like the engine's counts.
 *
 * Cost model: every update helper first reads one relaxed atomic
 * (`metricsEnabled()`); when telemetry is off that branch is the
 * entire cost — no locks, no allocation, no clock reads. When on, an
 * update is one TLS lookup plus one relaxed atomic add.
 */

#ifndef QRA_OBS_METRICS_HH
#define QRA_OBS_METRICS_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

namespace qra {
namespace obs {

namespace detail {
/** Process-wide telemetry switches (relaxed reads on hot paths). */
extern std::atomic<bool> gMetricsEnabled;
extern std::atomic<bool> gTracingEnabled;
} // namespace detail

/** True when metric updates are being recorded. */
inline bool
metricsEnabled()
{
    return detail::gMetricsEnabled.load(std::memory_order_relaxed);
}

/** Turn metric recording on or off (off = zero-cost updates). */
void setMetricsEnabled(bool enabled);

/** True when trace spans are being recorded (see trace.hh). */
inline bool
tracingEnabled()
{
    return detail::gTracingEnabled.load(std::memory_order_relaxed);
}

/** Turn span recording on or off (off = zero-cost spans). */
void setTracingEnabled(bool enabled);

/** True when either metrics or tracing is on. */
inline bool
anyEnabled()
{
    return metricsEnabled() || tracingEnabled();
}

/** Invalid-handle sentinel. */
inline constexpr std::uint32_t kInvalidMetric = 0xffffffffu;

/** Handle to a registered counter (an index; cheap to copy). */
struct CounterHandle
{
    std::uint32_t id = kInvalidMetric;
};

/** Handle to a registered histogram. */
struct HistogramHandle
{
    std::uint32_t id = kInvalidMetric;
};

/** Merged state of one histogram at snapshot time. */
struct HistogramSnapshot
{
    /** Inclusive upper bounds; a final +inf bucket is implicit. */
    std::vector<std::uint64_t> bounds;
    /** bounds.size() + 1 bucket counts. */
    std::vector<std::uint64_t> buckets;
    std::uint64_t count = 0;
    /** Integer sum of observed values (deterministic merge). */
    std::uint64_t sum = 0;
    /** Valid only when count > 0. */
    std::uint64_t min = 0;
    std::uint64_t max = 0;

    double mean() const
    {
        return count == 0 ? 0.0
                          : static_cast<double>(sum) /
                                static_cast<double>(count);
    }
};

/** Deterministic point-in-time view of every registered metric. */
struct MetricsSnapshot
{
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, HistogramSnapshot> histograms;

    /** Single JSON object (the --metrics=FILE schema). */
    std::string toJson() const;

    /** Human-readable table for terminal output. */
    std::string str() const;
};

/** Named-metric registry with thread-local shards (see file doc). */
class MetricsRegistry
{
  public:
    static constexpr std::size_t kMaxCounters = 128;
    static constexpr std::size_t kMaxHistograms = 32;
    /** Total bucket/aggregate slots shared by all histograms. */
    static constexpr std::size_t kMaxHistogramSlots = 1024;

    MetricsRegistry();
    ~MetricsRegistry() = default;

    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    /** The process-wide registry every instrumented component uses. */
    static MetricsRegistry &global();

    /**
     * Find or register a counter. Registration is idempotent by name
     * and cheap enough for function-local static handles.
     * @throws ValueError once kMaxCounters distinct names exist.
     */
    CounterHandle counter(std::string_view name);

    /**
     * Find or register a histogram with inclusive upper @p bounds
     * (ascending; values above the last bound land in an overflow
     * bucket). Empty bounds = the default latency scale, powers of 4
     * from 1us to ~17s in nanoseconds. Re-registration with different
     * bounds keeps the first definition.
     */
    HistogramHandle histogram(std::string_view name,
                              std::vector<std::uint64_t> bounds = {});

    /** Add @p n to a counter (thread-local shard, lock-free). */
    void add(CounterHandle handle, std::uint64_t n = 1);

    /** Record @p value into a histogram's thread-local shard. */
    void observe(HistogramHandle handle, std::uint64_t value);

    /**
     * Merge every shard into a deterministic snapshot. Safe to call
     * concurrently with updates (relaxed reads), but values are only
     * guaranteed complete once the instrumented work has quiesced.
     */
    MetricsSnapshot snapshot() const;

    /** Zero every value; definitions stay registered. Tests only. */
    void reset();

  private:
    /** One thread's slice of every counter/histogram. */
    struct Shard
    {
        std::array<std::atomic<std::uint64_t>, kMaxCounters> counters{};
        /**
         * Histogram slots: per histogram, bucket counts followed by
         * sum and (value+1)-encoded min/max (0 = unset), at the
         * offset the registry assigned.
         */
        std::array<std::atomic<std::uint64_t>, kMaxHistogramSlots>
            slots{};
    };

    struct HistogramDef
    {
        std::string name;
        std::vector<std::uint64_t> bounds;
        /** First slot of this histogram's block in every shard. */
        std::size_t slot0 = 0;
    };

    /** This thread's shard, creating and caching it on first use. */
    Shard &localShard();
    Shard &localShardSlow();

    mutable std::mutex mutex_;
    std::vector<std::string> counterNames_;
    /**
     * Fixed-capacity so a racing observe() can read a published
     * definition without the lock: entries are written once, under
     * the lock, before their handle escapes, and never move.
     */
    std::array<HistogramDef, kMaxHistograms> histograms_;
    std::size_t histogramCount_ = 0;
    std::size_t slotsUsed_ = 0;
    std::vector<std::unique_ptr<Shard>> shards_;
    std::unordered_map<std::thread::id, Shard *> shardByThread_;
    /** Unique per registry instance; keys the TLS shard cache. */
    std::uint64_t registryId_;
};

/** Add to a counter of the global registry iff metrics are on. */
inline void
count(CounterHandle handle, std::uint64_t n = 1)
{
    if (metricsEnabled())
        MetricsRegistry::global().add(handle, n);
}

/** Observe into a histogram of the global registry iff metrics on. */
inline void
observe(HistogramHandle handle, std::uint64_t value)
{
    if (metricsEnabled())
        MetricsRegistry::global().observe(handle, value);
}

} // namespace obs
} // namespace qra

#endif // QRA_OBS_METRICS_HH
