/**
 * @file
 * MetricsRegistry: deterministic snapshots under any thread count,
 * histogram bucket semantics, capacity limits, and the zero-cost
 * (allocation-free) disabled path shared with the tracer.
 */

#include <atomic>
#include <cstdlib>
#include <new>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

using namespace qra;
using obs::MetricsRegistry;

// Global allocation counter for the disabled-path test: the claim is
// that telemetry updates with telemetry off never reach the heap.
namespace {
std::atomic<std::size_t> g_allocations{0};
} // namespace

void *
operator new(std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

// GCC 12 inlines the replaced operator new and delete into their
// callers and then reports this std::free as freeing memory from
// operator new (-Wmismatched-new-delete). It is a false positive: both
// replacements above and below use the malloc family, so each pair
// matches. The pragma covers only these two definitions.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}
#pragma GCC diagnostic pop

namespace {

/**
 * A fixed workload — 1200 counter increments and histogram
 * observations with a deterministic value pattern — split across
 * @p num_threads threads, on a fresh registry.
 */
obs::MetricsSnapshot
runWorkload(std::size_t num_threads)
{
    MetricsRegistry reg;
    const auto items = reg.counter("work.items");
    const auto latency =
        reg.histogram("work.latency", {10, 100, 1000});

    constexpr std::size_t kTotal = 1200;
    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < num_threads; ++t) {
        const std::size_t begin = kTotal * t / num_threads;
        const std::size_t end = kTotal * (t + 1) / num_threads;
        workers.emplace_back([&, begin, end] {
            for (std::size_t i = begin; i < end; ++i) {
                reg.add(items, 1);
                reg.observe(latency, (i * 7) % 1500);
            }
        });
    }
    for (auto &w : workers)
        w.join();
    return reg.snapshot();
}

TEST(MetricsRegistry, RegistrationIsIdempotentByName)
{
    MetricsRegistry reg;
    EXPECT_EQ(reg.counter("a").id, reg.counter("a").id);
    EXPECT_NE(reg.counter("a").id, reg.counter("b").id);
    EXPECT_EQ(reg.histogram("h").id, reg.histogram("h").id);
}

TEST(MetricsRegistry, CountersAccumulateAndSnapshot)
{
    MetricsRegistry reg;
    const auto c = reg.counter("events");
    reg.add(c, 5);
    reg.add(c);
    const auto snap = reg.snapshot();
    ASSERT_TRUE(snap.counters.count("events"));
    EXPECT_EQ(snap.counters.at("events"), 6u);
}

TEST(MetricsRegistry, SnapshotIsDeterministicAcrossThreadCounts)
{
    const auto s1 = runWorkload(1);
    for (std::size_t threads : {4u, 8u}) {
        const auto sn = runWorkload(threads);
        EXPECT_EQ(sn.counters, s1.counters) << threads << " threads";
        ASSERT_TRUE(sn.histograms.count("work.latency"));
        const auto &a = s1.histograms.at("work.latency");
        const auto &b = sn.histograms.at("work.latency");
        EXPECT_EQ(b.buckets, a.buckets) << threads << " threads";
        EXPECT_EQ(b.count, a.count);
        EXPECT_EQ(b.sum, a.sum);
        EXPECT_EQ(b.min, a.min);
        EXPECT_EQ(b.max, a.max);
    }
}

TEST(MetricsRegistry, HistogramBucketBoundariesAreInclusive)
{
    MetricsRegistry reg;
    const auto h = reg.histogram("lat", {10, 100, 1000});
    // One value per interesting position: below, on, and just above
    // each inclusive upper bound, plus the overflow bucket.
    for (std::uint64_t v : {5, 10, 11, 100, 101, 1000, 1001})
        reg.observe(h, v);
    const auto snap = reg.snapshot();
    const auto &hist = snap.histograms.at("lat");
    ASSERT_EQ(hist.bounds, (std::vector<std::uint64_t>{10, 100, 1000}));
    ASSERT_EQ(hist.buckets.size(), 4u);
    EXPECT_EQ(hist.buckets,
              (std::vector<std::uint64_t>{2, 2, 2, 1}));
    EXPECT_EQ(hist.count, 7u);
    EXPECT_EQ(hist.sum, 5u + 10 + 11 + 100 + 101 + 1000 + 1001);
    EXPECT_EQ(hist.min, 5u);
    EXPECT_EQ(hist.max, 1001u);
}

TEST(MetricsRegistry, DefaultLatencyBoundsArePowersOfFour)
{
    MetricsRegistry reg;
    const auto h = reg.histogram("latency.default");
    reg.observe(h, 1);
    const auto snap = reg.snapshot();
    const auto &hist = snap.histograms.at("latency.default");
    ASSERT_FALSE(hist.bounds.empty());
    EXPECT_EQ(hist.bounds.front(), 1000u);
    EXPECT_EQ(hist.bounds.back(), 16'777'216'000ull); // 1us * 4^12
    for (std::size_t i = 1; i < hist.bounds.size(); ++i)
        EXPECT_EQ(hist.bounds[i], hist.bounds[i - 1] * 4);
    EXPECT_EQ(hist.buckets.size(), hist.bounds.size() + 1);
}

TEST(MetricsRegistry, CounterCapacityIsEnforced)
{
    MetricsRegistry reg;
    for (std::size_t i = 0; i < MetricsRegistry::kMaxCounters; ++i)
        reg.counter("c" + std::to_string(i));
    EXPECT_THROW(reg.counter("one-too-many"), ValueError);
    // Existing names still resolve after the failed registration.
    EXPECT_EQ(reg.counter("c0").id, 0u);
}

TEST(MetricsRegistry, HistogramBoundsMustAscend)
{
    MetricsRegistry reg;
    EXPECT_THROW(reg.histogram("bad", {100, 10}), ValueError);
}

TEST(MetricsRegistry, ResetZeroesValuesButKeepsDefinitions)
{
    MetricsRegistry reg;
    const auto c = reg.counter("events");
    const auto h = reg.histogram("lat", {10});
    reg.add(c, 3);
    reg.observe(h, 7);
    reg.reset();
    const auto snap = reg.snapshot();
    EXPECT_EQ(snap.counters.at("events"), 0u);
    EXPECT_EQ(snap.histograms.at("lat").count, 0u);
    EXPECT_EQ(reg.counter("events").id, c.id);
}

TEST(MetricsRegistry, SnapshotJsonHasAllSections)
{
    MetricsRegistry reg;
    reg.add(reg.counter("c"), 1);
    reg.observe(reg.histogram("h", {10}), 3);
    const std::string json = reg.snapshot().toJson();
    EXPECT_NE(json.find("\"counters\""), std::string::npos);
    EXPECT_NE(json.find("\"histograms\""), std::string::npos);
    EXPECT_NE(json.find("\"bounds\""), std::string::npos);
}

TEST(MetricsRegistry, DisabledPathIsInvisibleAndAllocationFree)
{
    auto &reg = MetricsRegistry::global();
    const auto c = reg.counter("test.disabled.counter");
    const auto h = reg.histogram("test.disabled.hist");

    // Warm the thread-local shard so the loop below measures the
    // steady state, not first-touch setup.
    obs::setMetricsEnabled(true);
    obs::count(c);
    obs::setMetricsEnabled(false);
    obs::setTracingEnabled(false);
    const std::uint64_t before = reg.snapshot().counters.at("test.disabled.counter");

    const std::size_t allocs0 =
        g_allocations.load(std::memory_order_relaxed);
    for (int i = 0; i < 1000; ++i) {
        obs::count(c, 2);
        obs::observe(h, 12345);
        obs::Span span("test", "disabled_span", {{"i", 1}});
    }
    const std::size_t allocs1 =
        g_allocations.load(std::memory_order_relaxed);

    EXPECT_EQ(allocs1 - allocs0, 0u)
        << "disabled telemetry path reached the heap";
    EXPECT_EQ(reg.snapshot().counters.at("test.disabled.counter"), before);
}

} // namespace
