/**
 * @file
 * Tracer: event recording and collection order, ring-buffer wrap
 * semantics, Chrome/JSON-lines export shape, span guards, and the
 * engine's counts staying bit-identical with tracing on or off.
 */

#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "circuit/circuit.hh"
#include "obs/trace.hh"
#include "runtime/execution_engine.hh"
#include "sim/result.hh"

using namespace qra;
using obs::TraceEvent;
using obs::Tracer;

namespace {

/** Restores the global telemetry switches on scope exit. */
struct TelemetryGuard
{
    TelemetryGuard()
    {
        obs::setMetricsEnabled(false);
        obs::setTracingEnabled(false);
        Tracer::global().clear();
    }
    ~TelemetryGuard()
    {
        obs::setMetricsEnabled(false);
        obs::setTracingEnabled(false);
        Tracer::global().clear();
    }
};

/** Record a zero-length complete span at now: the plainest event. */
void
mark(Tracer &tracer, const char *cat, std::string_view name,
     obs::TraceArgs args = {})
{
    const auto now = Tracer::Clock::now();
    tracer.recordComplete(cat, name, now, now, args);
}

TEST(Tracer, CompleteEventRoundTrips)
{
    Tracer tracer;
    const auto begin = Tracer::Clock::now();
    const auto end = begin + std::chrono::microseconds(12);
    tracer.recordComplete("unit", "myspan", begin, end,
                          {{"shots", 42}, {"wave", 3}});
    const auto events = tracer.collect();
    ASSERT_EQ(events.size(), 1u);
    const TraceEvent &ev = events[0];
    EXPECT_STREQ(ev.name, "myspan");
    EXPECT_STREQ(ev.cat, "unit");
    EXPECT_EQ(ev.ph, 'X');
    EXPECT_EQ(ev.durNs, 12000u);
    ASSERT_EQ(ev.numArgs, 2);
    EXPECT_STREQ(ev.argKey[0], "shots");
    EXPECT_EQ(ev.argVal[0], 42u);
    EXPECT_STREQ(ev.argKey[1], "wave");
    EXPECT_EQ(ev.argVal[1], 3u);
}

TEST(Tracer, LongNamesAreTruncatedNotOverflowed)
{
    Tracer tracer;
    const std::string long_name(3 * TraceEvent::kNameLen, 'n');
    mark(tracer, "category-name-way-too-long", long_name);
    const auto events = tracer.collect();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(std::string(events[0].name).size(),
              TraceEvent::kNameLen - 1);
    EXPECT_EQ(std::string(events[0].cat).size(),
              TraceEvent::kCatLen - 1);
}

TEST(Tracer, CollectSortsGloballyAndPerThreadMonotonic)
{
    Tracer tracer;
    std::vector<std::thread> workers;
    for (int t = 0; t < 4; ++t)
        workers.emplace_back([&tracer] {
            for (int i = 0; i < 50; ++i)
                mark(tracer, "unit", "tick");
        });
    for (auto &w : workers)
        w.join();

    const auto events = tracer.collect();
    ASSERT_EQ(events.size(), 200u);
    std::map<std::uint32_t, std::uint64_t> last_per_thread;
    std::uint64_t last = 0;
    for (const TraceEvent &ev : events) {
        EXPECT_GE(ev.tsNs, last);
        last = ev.tsNs;
        const auto it = last_per_thread.find(ev.tid);
        if (it != last_per_thread.end()) {
            EXPECT_GE(ev.tsNs, it->second);
        }
        last_per_thread[ev.tid] = ev.tsNs;
    }
    EXPECT_EQ(last_per_thread.size(), 4u);
}

TEST(Tracer, AsyncBeginEndShareAnId)
{
    Tracer tracer;
    const std::uint64_t id = tracer.nextAsyncId();
    EXPECT_NE(id, tracer.nextAsyncId());
    tracer.recordAsyncBegin("unit", "wave", id, {{"wave", 1}});
    tracer.recordAsyncEnd("unit", "wave", id);
    const auto events = tracer.collect();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].ph, 'b');
    EXPECT_EQ(events[1].ph, 'e');
    EXPECT_EQ(events[0].id, id);
    EXPECT_EQ(events[1].id, id);
    EXPECT_LE(events[0].tsNs, events[1].tsNs);
}

TEST(Tracer, RingWrapKeepsNewestEvents)
{
    Tracer tracer;
    tracer.setRingCapacity(16); // 16 is the enforced minimum
    for (std::uint64_t i = 0; i < 40; ++i)
        mark(tracer, "unit", "tick", {{"i", i}});
    const auto events = tracer.collect();
    ASSERT_EQ(events.size(), 16u);
    for (std::size_t i = 0; i < events.size(); ++i)
        EXPECT_EQ(events[i].argVal[0], 24 + i); // oldest survivor first
}

TEST(Tracer, ChromeJsonHasTraceEventShape)
{
    Tracer tracer;
    const auto begin = Tracer::Clock::now();
    tracer.recordComplete("unit", "spanx", begin,
                          begin + std::chrono::nanoseconds(1500));
    const std::uint64_t id = tracer.nextAsyncId();
    tracer.recordAsyncBegin("unit", "async", id);
    tracer.recordAsyncEnd("unit", "async", id);

    std::ostringstream os;
    tracer.writeChromeJson(os);
    const std::string json = os.str();
    EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"e\""), std::string::npos);
    EXPECT_NE(json.find("\"dur\":1.500"), std::string::npos);
    EXPECT_NE(json.find("]}"), std::string::npos);

    // One event object per line; comma-separated except the last.
    std::istringstream lines(json);
    std::string line;
    std::size_t event_lines = 0;
    while (std::getline(lines, line))
        if (line.rfind("{\"name\":", 0) == 0)
            ++event_lines;
    EXPECT_EQ(event_lines, 3u);
}

TEST(Tracer, JsonLinesMatchesCollectedEvents)
{
    Tracer tracer;
    for (int i = 0; i < 5; ++i)
        mark(tracer, "unit", "tick", {{"i", 7}});
    std::ostringstream os;
    tracer.writeJsonLines(os);
    std::istringstream lines(os.str());
    std::string line;
    std::size_t count = 0;
    while (std::getline(lines, line)) {
        EXPECT_EQ(line.front(), '{');
        EXPECT_EQ(line.back(), '}');
        EXPECT_NE(line.find("\"ts_ns\":"), std::string::npos);
        EXPECT_NE(line.find("\"i\":7"), std::string::npos);
        ++count;
    }
    EXPECT_EQ(count, tracer.collect().size());
}

TEST(Span, RecordsOnlyWhenTracingEnabled)
{
    TelemetryGuard guard;
    {
        obs::Span span("unit", "invisible");
    }
    EXPECT_TRUE(Tracer::global().collect().empty());

    obs::setTracingEnabled(true);
    {
        obs::Span span("unit", "visible", {{"shots", 10}, {"extra", 1}});
    }
    obs::setTracingEnabled(false);
    const auto events = Tracer::global().collect();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_STREQ(events[0].name, "visible");
    ASSERT_EQ(events[0].numArgs, 2);
    EXPECT_EQ(events[0].argVal[0], 10u);
    EXPECT_STREQ(events[0].argKey[1], "extra");
}

TEST(TimedSpan, MeasuresEvenWhenTracingDisabled)
{
    TelemetryGuard guard;
    obs::TimedSpan span("unit", "timed");
    volatile std::uint64_t sink = 0;
    for (std::uint64_t i = 0; i < 50000; ++i)
        sink = sink + i;
    const double seconds = span.stop();
    EXPECT_GT(seconds, 0.0);
    EXPECT_DOUBLE_EQ(span.stop(), seconds); // idempotent
    EXPECT_TRUE(Tracer::global().collect().empty());
}

TEST(Engine, CountsBitIdenticalWithTelemetryOnAndOff)
{
    TelemetryGuard guard;
    Circuit circuit(3, 3, "trace_identity");
    circuit.h(0);
    circuit.cx(0, 1);
    circuit.ry(0.7, 2);
    circuit.measureAll();

    runtime::EngineOptions options;
    options.threads = 2;
    options.shardShots = 128;
    runtime::ExecutionEngine engine(options);

    const Result plain = engine.run(circuit, 512, "statevector", 5);

    obs::setMetricsEnabled(true);
    obs::setTracingEnabled(true);
    const Result traced = engine.run(circuit, 512, "statevector", 5);
    obs::setMetricsEnabled(false);
    obs::setTracingEnabled(false);

    EXPECT_EQ(traced.rawCounts(), plain.rawCounts());
    // The traced run must actually have recorded shard spans.
    bool saw_shard = false;
    for (const TraceEvent &ev : Tracer::global().collect())
        if (std::string(ev.name) == "shard")
            saw_shard = true;
    EXPECT_TRUE(saw_shard);
}

} // namespace
