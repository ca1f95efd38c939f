#include "sim/kernels/traversal.hh"

#include "math/types.hh"
#include "obs/metrics.hh"

namespace qra {
namespace kernels {

namespace {

constexpr std::size_t kDefaultBlockBytes = std::size_t{1} << 20;
constexpr std::size_t kMinBlockBytes = std::size_t{1} << 12;

std::size_t
floorPow2(std::size_t value)
{
    std::size_t p = 1;
    while (p <= value / 2)
        p *= 2;
    return p;
}

/** Per-thread override (EngineOptions::cacheBlockBytes per shard). */
thread_local std::size_t tBlockBytes = 0;

} // namespace

std::size_t
cacheBlockBytes()
{
    return tBlockBytes != 0 ? tBlockBytes : kDefaultBlockBytes;
}

CacheBlockScope::CacheBlockScope(std::size_t bytes)
    : saved_(tBlockBytes)
{
    if (bytes != 0)
        tBlockBytes =
            floorPow2(bytes < kMinBlockBytes ? kMinBlockBytes : bytes);
}

CacheBlockScope::~CacheBlockScope()
{
    tBlockBytes = saved_;
}

std::uint64_t
blockedTile(std::uint64_t count, std::size_t resident_per_index,
            std::uint64_t max_bit)
{
    const std::size_t block = cacheBlockBytes();
    // Stride between the two (or four) resident halves of one pair
    // group: when it exceeds the cache budget, a contiguous compact
    // split streams through far-apart windows, so the walk tiles.
    if (max_bit * sizeof(Complex) <= block)
        return 0;
    const std::uint64_t tile =
        std::max<std::uint64_t>(std::uint64_t{1} << 10,
                                block / (resident_per_index *
                                         sizeof(Complex)));
    return count > tile ? tile : 0;
}

namespace detail {

void
countBlockedWalk()
{
    if (!obs::metricsEnabled())
        return;
    static const obs::CounterHandle handle =
        obs::MetricsRegistry::global().counter(
            "sim.kernels.traversal.blocked");
    obs::count(handle);
}

} // namespace detail

} // namespace kernels
} // namespace qra
