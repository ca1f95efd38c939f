#include "obs/metrics.hh"

#include <algorithm>
#include <sstream>

#include "common/error.hh"

namespace qra {
namespace obs {

namespace detail {
std::atomic<bool> gMetricsEnabled{false};
std::atomic<bool> gTracingEnabled{false};
} // namespace detail

void
setMetricsEnabled(bool enabled)
{
    detail::gMetricsEnabled.store(enabled, std::memory_order_relaxed);
}

void
setTracingEnabled(bool enabled)
{
    detail::gTracingEnabled.store(enabled, std::memory_order_relaxed);
}

namespace {

/** Per-histogram aggregate slots appended after the buckets. */
constexpr std::size_t kSumSlot = 0;
constexpr std::size_t kMinSlot = 1;
constexpr std::size_t kMaxSlot = 2;
constexpr std::size_t kAggregateSlots = 3;

/** Default latency bounds: powers of 4 from 1us to ~17s, in ns. */
std::vector<std::uint64_t>
defaultLatencyBounds()
{
    std::vector<std::uint64_t> bounds;
    for (std::uint64_t b = 1000; b <= 64'000'000'000ull; b *= 4)
        bounds.push_back(b);
    return bounds;
}

std::uint64_t
nextRegistryId()
{
    static std::atomic<std::uint64_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
}

/**
 * The calling thread's cached (registry id -> shard) mapping. One
 * entry per thread: a thread that alternates between registries
 * (tests) falls back to the registry's thread-id map, never losing
 * its existing shard.
 */
struct TlsShardRef
{
    std::uint64_t registryId = 0;
    void *shard = nullptr;
};
thread_local TlsShardRef tls_shard;

} // namespace

MetricsRegistry::MetricsRegistry() : registryId_(nextRegistryId())
{
}

MetricsRegistry &
MetricsRegistry::global()
{
    static MetricsRegistry registry;
    return registry;
}

CounterHandle
MetricsRegistry::counter(std::string_view name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = 0; i < counterNames_.size(); ++i)
        if (counterNames_[i] == name)
            return {static_cast<std::uint32_t>(i)};
    if (counterNames_.size() >= kMaxCounters)
        throw ValueError("MetricsRegistry: counter capacity (" +
                         std::to_string(kMaxCounters) + ") exhausted");
    counterNames_.emplace_back(name);
    return {static_cast<std::uint32_t>(counterNames_.size() - 1)};
}

HistogramHandle
MetricsRegistry::histogram(std::string_view name,
                           std::vector<std::uint64_t> bounds)
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = 0; i < histogramCount_; ++i)
        if (histograms_[i].name == name)
            return {static_cast<std::uint32_t>(i)};
    if (bounds.empty())
        bounds = defaultLatencyBounds();
    if (!std::is_sorted(bounds.begin(), bounds.end()))
        throw ValueError("MetricsRegistry: histogram bounds must be "
                         "ascending");
    const std::size_t slots =
        bounds.size() + 1 + kAggregateSlots;
    if (histogramCount_ >= kMaxHistograms ||
        slotsUsed_ + slots > kMaxHistogramSlots)
        throw ValueError(
            "MetricsRegistry: histogram capacity exhausted");
    HistogramDef &def = histograms_[histogramCount_];
    def.name = std::string(name);
    def.bounds = std::move(bounds);
    def.slot0 = slotsUsed_;
    slotsUsed_ += slots;
    return {static_cast<std::uint32_t>(histogramCount_++)};
}

MetricsRegistry::Shard &
MetricsRegistry::localShard()
{
    if (tls_shard.registryId == registryId_)
        return *static_cast<Shard *>(tls_shard.shard);
    return localShardSlow();
}

MetricsRegistry::Shard &
MetricsRegistry::localShardSlow()
{
    std::lock_guard<std::mutex> lock(mutex_);
    Shard *&slot = shardByThread_[std::this_thread::get_id()];
    if (slot == nullptr) {
        shards_.push_back(std::make_unique<Shard>());
        slot = shards_.back().get();
    }
    tls_shard.registryId = registryId_;
    tls_shard.shard = slot;
    return *slot;
}

void
MetricsRegistry::add(CounterHandle handle, std::uint64_t n)
{
    if (handle.id == kInvalidMetric)
        return;
    localShard().counters[handle.id].fetch_add(
        n, std::memory_order_relaxed);
}

void
MetricsRegistry::observe(HistogramHandle handle, std::uint64_t value)
{
    if (handle.id == kInvalidMetric)
        return;
    Shard &shard = localShard();
    // The definition was fully written (under the lock) before its
    // handle escaped, it never moves (fixed-capacity array) and is
    // never mutated after publication — lock-free read.
    const HistogramDef &def = histograms_[handle.id];
    const std::vector<std::uint64_t> &bounds = def.bounds;
    // Inclusive upper bounds: value <= bounds[i] -> bucket i; above
    // the last bound -> overflow bucket.
    std::size_t bucket = std::lower_bound(bounds.begin(), bounds.end(),
                                          value) -
                         bounds.begin();
    const std::size_t base = def.slot0;
    shard.slots[base + bucket].fetch_add(1,
                                         std::memory_order_relaxed);
    const std::size_t agg = base + bounds.size() + 1;
    shard.slots[agg + kSumSlot].fetch_add(value,
                                          std::memory_order_relaxed);
    // Only the owning thread writes its shard's min/max, so a
    // load-compare-store without CAS is race-free.
    const std::uint64_t encoded = value + 1; // 0 = unset
    const std::uint64_t cur_min =
        shard.slots[agg + kMinSlot].load(std::memory_order_relaxed);
    if (cur_min == 0 || encoded < cur_min)
        shard.slots[agg + kMinSlot].store(encoded,
                                          std::memory_order_relaxed);
    const std::uint64_t cur_max =
        shard.slots[agg + kMaxSlot].load(std::memory_order_relaxed);
    if (cur_max == 0 || encoded > cur_max)
        shard.slots[agg + kMaxSlot].store(encoded,
                                          std::memory_order_relaxed);
}

MetricsSnapshot
MetricsRegistry::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    MetricsSnapshot snap;
    for (std::size_t i = 0; i < counterNames_.size(); ++i) {
        std::uint64_t total = 0;
        for (const auto &shard : shards_)
            total += shard->counters[i].load(
                std::memory_order_relaxed);
        snap.counters[counterNames_[i]] = total;
    }
    for (std::size_t h = 0; h < histogramCount_; ++h) {
        const HistogramDef &def = histograms_[h];
        HistogramSnapshot hist;
        hist.bounds = def.bounds;
        hist.buckets.assign(def.bounds.size() + 1, 0);
        const std::size_t agg = def.slot0 + def.bounds.size() + 1;
        std::uint64_t min_encoded = 0;
        std::uint64_t max_encoded = 0;
        for (const auto &shard : shards_) {
            for (std::size_t b = 0; b < hist.buckets.size(); ++b)
                hist.buckets[b] += shard->slots[def.slot0 + b].load(
                    std::memory_order_relaxed);
            hist.sum += shard->slots[agg + kSumSlot].load(
                std::memory_order_relaxed);
            const std::uint64_t smin = shard->slots[agg + kMinSlot]
                                           .load(std::memory_order_relaxed);
            if (smin != 0 &&
                (min_encoded == 0 || smin < min_encoded))
                min_encoded = smin;
            const std::uint64_t smax = shard->slots[agg + kMaxSlot]
                                           .load(std::memory_order_relaxed);
            if (smax > max_encoded)
                max_encoded = smax;
        }
        for (const std::uint64_t b : hist.buckets)
            hist.count += b;
        if (hist.count > 0) {
            hist.min = min_encoded - 1;
            hist.max = max_encoded - 1;
        }
        snap.histograms[def.name] = std::move(hist);
    }
    return snap;
}

void
MetricsRegistry::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &shard : shards_) {
        for (auto &c : shard->counters)
            c.store(0, std::memory_order_relaxed);
        for (auto &s : shard->slots)
            s.store(0, std::memory_order_relaxed);
    }
}

namespace {

void
appendJsonEscaped(std::ostringstream &os, const std::string &s)
{
    for (const char c : s) {
        if (c == '"' || c == '\\')
            os << '\\';
        os << c;
    }
}

} // namespace

std::string
MetricsSnapshot::toJson() const
{
    std::ostringstream os;
    os << "{\"counters\":{";
    bool first = true;
    for (const auto &[name, value] : counters) {
        if (!first)
            os << ",";
        first = false;
        os << "\"";
        appendJsonEscaped(os, name);
        os << "\":" << value;
    }
    os << "},\"histograms\":{";
    first = true;
    for (const auto &[name, hist] : histograms) {
        if (!first)
            os << ",";
        first = false;
        os << "\"";
        appendJsonEscaped(os, name);
        os << "\":{\"bounds\":[";
        for (std::size_t i = 0; i < hist.bounds.size(); ++i)
            os << (i > 0 ? "," : "") << hist.bounds[i];
        os << "],\"buckets\":[";
        for (std::size_t i = 0; i < hist.buckets.size(); ++i)
            os << (i > 0 ? "," : "") << hist.buckets[i];
        os << "],\"count\":" << hist.count << ",\"sum\":" << hist.sum
           << ",\"min\":" << hist.min << ",\"max\":" << hist.max
           << "}";
    }
    os << "}}";
    return os.str();
}

std::string
MetricsSnapshot::str() const
{
    std::ostringstream os;
    os << "counters:\n";
    for (const auto &[name, value] : counters)
        os << "  " << name << " = " << value << "\n";
    os << "histograms:\n";
    for (const auto &[name, hist] : histograms) {
        os << "  " << name << ": count=" << hist.count
           << " sum=" << hist.sum;
        if (hist.count > 0)
            os << " min=" << hist.min << " mean=" << hist.mean()
               << " max=" << hist.max;
        os << "\n";
    }
    return os.str();
}

} // namespace obs
} // namespace qra
