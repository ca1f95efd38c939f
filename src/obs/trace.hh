/**
 * @file
 * Tracer: per-job span trees recorded into per-thread ring buffers,
 * exportable as Chrome trace-event JSON (loads in Perfetto /
 * chrome://tracing) and as a JSON-lines event stream.
 *
 * Events are fixed-size POD records — names and argument keys are
 * copied into inline buffers, so recording never allocates. Each
 * thread appends to its own preallocated ring (oldest events are
 * overwritten when it fills), and export
 * merges all rings sorted by timestamp. Timestamps come from one
 * steady clock epoch shared by every thread, so per-thread event
 * streams are monotonic and cross-thread spans line up.
 *
 * Span vocabulary used by the runtime (categories in parentheses):
 *   prepare (queue)        one JobQueue preparation (cache miss path)
 *   pass:<name> (compile)  one compile-pass execution
 *   shard (engine)         one shard's backend run, args shots/wait_ns
 *   wave (engine, async)   one shot wave of a job, begin at launch
 *   wave_merge (engine)    shard-order merge of a finished wave
 *   stopping_eval (engine) stopping-rule evaluation after a wave
 *                          (enabled rule or progress stream only)
 *   sampled_run (sim)      one sampled state-vector run
 *
 * Recording is guarded by obs::tracingEnabled(): a disabled span is
 * one relaxed atomic load and nothing else.
 */

#ifndef QRA_OBS_TRACE_HH
#define QRA_OBS_TRACE_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics.hh" // tracingEnabled()

namespace qra {
namespace obs {

/** One span argument: a short key and a numeric value. */
using TraceArg = std::pair<const char *, std::uint64_t>;
using TraceArgs = std::initializer_list<TraceArg>;

/** Fixed-size trace record (POD; recording never allocates). */
struct TraceEvent
{
    static constexpr std::size_t kNameLen = 40;
    static constexpr std::size_t kCatLen = 12;
    static constexpr std::size_t kKeyLen = 12;

    char name[kNameLen] = {};
    char cat[kCatLen] = {};
    /** Chrome phase: X complete, b/e async begin/end. */
    char ph = 'X';
    std::uint32_t tid = 0;
    /** Nanoseconds since the tracer epoch. */
    std::uint64_t tsNs = 0;
    /** Complete events only. */
    std::uint64_t durNs = 0;
    /** Async events only: begin/end pairs share an id. */
    std::uint64_t id = 0;
    char argKey[2][kKeyLen] = {{}, {}};
    std::uint64_t argVal[2] = {0, 0};
    std::uint8_t numArgs = 0;
};

/** Per-thread ring-buffer trace recorder (see file doc). */
class Tracer
{
  public:
    using Clock = std::chrono::steady_clock;

    static constexpr std::size_t kDefaultRingCapacity = 16384;

    /** Smallest accepted ring capacity: below this a ring thrashes
        (wraps within a single job). setRingCapacity clamps up to it,
        with a warning. */
    static constexpr std::size_t kMinRingCapacity = 16;

    Tracer();

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** The process-wide tracer every instrumented component uses. */
    static Tracer &global();

    /**
     * Events retained per thread before the ring wraps. Takes effect
     * for rings created after the call; existing rings keep their
     * size. Call before recording starts. Values below
     * kMinRingCapacity (16) are clamped up to it and logged as a
     * warning — the request is not honoured silently.
     */
    void setRingCapacity(std::size_t capacity);

    /** Drop every recorded event. */
    void clear();

    /** Nanoseconds since the tracer epoch, monotonic. */
    std::uint64_t nowNs() const { return toNs(Clock::now()); }

    /** Convert an externally captured steady time to epoch ns. */
    std::uint64_t toNs(Clock::time_point t) const
    {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                t - epoch_)
                .count());
    }

    /** Fresh id for an async begin/end pair. */
    std::uint64_t nextAsyncId()
    {
        return nextAsyncId_.fetch_add(1, std::memory_order_relaxed);
    }

    /** Append @p event to the calling thread's ring (tid is set). */
    void record(TraceEvent event);

    /** Record a complete ('X') span from explicit begin/end times. */
    void recordComplete(const char *cat, std::string_view name,
                        Clock::time_point begin, Clock::time_point end,
                        TraceArgs args = {});

    /** Record an async begin ('b') event at now. */
    void recordAsyncBegin(const char *cat, std::string_view name,
                          std::uint64_t id, TraceArgs args = {});

    /** Record an async end ('e') event at now. */
    void recordAsyncEnd(const char *cat, std::string_view name,
                        std::uint64_t id, TraceArgs args = {});

    /** All recorded events, sorted by (tsNs, tid, dur desc). */
    std::vector<TraceEvent> collect() const;

    /**
     * Chrome trace-event JSON ({"traceEvents":[...]}), one event per
     * line inside the array. Opens directly in Perfetto.
     */
    void writeChromeJson(std::ostream &os) const;

    /** One JSON object per line per event (the stream wire format). */
    void writeJsonLines(std::ostream &os) const;

  private:
    struct Ring
    {
        explicit Ring(std::size_t capacity, std::uint32_t tid_value)
            : events(capacity), tid(tid_value)
        {
        }
        std::vector<TraceEvent> events;
        std::size_t next = 0;
        std::size_t size = 0;
        std::uint32_t tid = 0;
        /** Uncontended except during export/clear. */
        mutable std::mutex mutex;
    };

    Ring &localRing();
    Ring &localRingSlow();

    mutable std::mutex mutex_;
    std::vector<std::unique_ptr<Ring>> rings_;
    std::unordered_map<std::thread::id, Ring *> ringByThread_;
    Clock::time_point epoch_;
    std::size_t ringCapacity_ = kDefaultRingCapacity;
    std::atomic<std::uint64_t> nextAsyncId_{1};
    std::uint64_t tracerId_;
};

/**
 * RAII complete-span over the global tracer. When tracing is off the
 * constructor is one relaxed atomic load and the destructor a no-op.
 */
class Span
{
  public:
    Span(const char *cat, std::string_view name, TraceArgs args = {});
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    TraceEvent event_{};
    Tracer::Clock::time_point begin_{};
    bool active_ = false;
};

/**
 * A span that always measures wall-clock time (two steady-clock
 * reads) and publishes a trace event only when tracing is on. The
 * compile pipeline uses it as the single source of per-pass timing:
 * PassStats.seconds is read back from this span, whether or not the
 * event was recorded.
 */
class TimedSpan
{
  public:
    TimedSpan(const char *cat, std::string_view name,
              TraceArgs args = {});
    ~TimedSpan();

    TimedSpan(const TimedSpan &) = delete;
    TimedSpan &operator=(const TimedSpan &) = delete;

    void arg(const char *key, std::uint64_t value);

    /** Stop the clock (idempotent) and return elapsed seconds. */
    double stop();

  private:
    TraceEvent event_{};
    Tracer::Clock::time_point begin_;
    double seconds_ = -1.0;
};

/** Guarded free helpers over the global tracer. */
inline void
asyncBegin(const char *cat, std::string_view name, std::uint64_t id,
           TraceArgs args = {})
{
    if (tracingEnabled())
        Tracer::global().recordAsyncBegin(cat, name, id, args);
}

inline void
asyncEnd(const char *cat, std::string_view name, std::uint64_t id,
         TraceArgs args = {})
{
    if (tracingEnabled())
        Tracer::global().recordAsyncEnd(cat, name, id, args);
}

inline void
complete(const char *cat, std::string_view name,
         Tracer::Clock::time_point begin, Tracer::Clock::time_point end,
         TraceArgs args = {})
{
    if (tracingEnabled())
        Tracer::global().recordComplete(cat, name, begin, end, args);
}

} // namespace obs
} // namespace qra

#endif // QRA_OBS_TRACE_HH
