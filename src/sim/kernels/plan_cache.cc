#include "sim/kernels/plan_cache.hh"

#include "common/hash.hh"
#include "obs/metrics.hh"

namespace qra {
namespace kernels {

namespace {

thread_local PlanCache *tls_cache = nullptr;

/**
 * Global-registry mirrors of the per-instance Stats counters: the
 * instance accessors stay the per-cache source of truth (tests run
 * many caches per process), the registry aggregates across them.
 */
struct CacheMetrics
{
    obs::CounterHandle hits;
    obs::CounterHandle misses;
    obs::CounterHandle evictions;
};

const CacheMetrics &
cacheMetrics()
{
    static const CacheMetrics metrics = []() {
        obs::MetricsRegistry &reg = obs::MetricsRegistry::global();
        CacheMetrics m;
        m.hits = reg.counter("plan_cache.hits");
        m.misses = reg.counter("plan_cache.misses");
        m.evictions = reg.counter("plan_cache.evictions");
        return m;
    }();
    return metrics;
}

std::uint64_t
planKey(const Circuit &circuit, int fusion)
{
    return fnv1aMix64(circuit.hash(),
                      static_cast<std::uint64_t>(fusion) + 1);
}

/** planKey() plus the noise model's semantic fingerprint. */
std::uint64_t
noisyPlanKey(const Circuit &circuit, const NoiseModel *noise, int fusion)
{
    return fnv1aMix64(planKey(circuit, fusion),
                      noise != nullptr ? noise->fingerprint() : 0);
}

} // namespace

PlanCache *
currentPlanCache()
{
    return tls_cache;
}

PlanCacheScope::PlanCacheScope(PlanCache *cache) : saved_(tls_cache)
{
    tls_cache = cache;
}

PlanCacheScope::~PlanCacheScope()
{
    tls_cache = saved_;
}

template <typename T>
std::shared_ptr<const T>
PlanCache::tally(typename Memo<T>::Lookup found)
{
    if (found.hit) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        obs::count(cacheMetrics().hits);
    } else {
        misses_.fetch_add(1, std::memory_order_relaxed);
        obs::count(cacheMetrics().misses);
    }
    if (found.evicted != 0) {
        evictions_.fetch_add(found.evicted, std::memory_order_relaxed);
        obs::count(cacheMetrics().evictions, found.evicted);
    }
    return std::move(found.value);
}

std::shared_ptr<const ExecutablePlan>
PlanCache::plan(const Circuit &circuit, int fusion)
{
    if (fusion < 0)
        fusion = currentFusionLevel();
    return tally<ExecutablePlan>(
        plans_.get(planKey(circuit, fusion), [&]() {
            return std::make_shared<const ExecutablePlan>(
                ExecutablePlan::compile(circuit, fusion));
        }));
}

std::shared_ptr<const TrajectoryPlan>
PlanCache::trajectoryPlan(const Circuit &circuit,
                          const NoiseModel *noise, int fusion)
{
    if (fusion < 0)
        fusion = currentFusionLevel();
    const std::uint64_t key = noisyPlanKey(circuit, noise, fusion);
    return tally<TrajectoryPlan>(trajectoryPlans_.get(key, [&]() {
        return std::make_shared<const TrajectoryPlan>(
            TrajectoryPlan::compile(circuit, noise, fusion));
    }));
}

std::shared_ptr<const SampledDistribution>
PlanCache::sampledDistribution(
    const Circuit &circuit, int fusion,
    const std::function<std::shared_ptr<const SampledDistribution>()>
        &build)
{
    if (fusion < 0)
        fusion = currentFusionLevel();
    return tally<SampledDistribution>(
        sampled_.get(planKey(circuit, fusion), build));
}

std::shared_ptr<const DensityDistribution>
PlanCache::densityDistribution(
    const Circuit &circuit, const NoiseModel *noise, int fusion,
    const std::function<std::shared_ptr<const DensityDistribution>()>
        &build)
{
    if (fusion < 0)
        fusion = currentFusionLevel();
    return tally<DensityDistribution>(densityDistributions_.get(
        noisyPlanKey(circuit, noise, fusion), build));
}

PlanCache::Stats
PlanCache::stats() const
{
    Stats stats;
    stats.hits = hits_.load(std::memory_order_relaxed);
    stats.misses = misses_.load(std::memory_order_relaxed);
    stats.evictions = evictions_.load(std::memory_order_relaxed);
    return stats;
}

} // namespace kernels
} // namespace qra
