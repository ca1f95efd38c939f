#include "sim/kernels/plan_cache.hh"

#include <chrono>

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

template <typename T, typename BuildFn>
std::shared_ptr<const T>
PlanCache::lookup(Store<T> &store, std::uint64_t key, BuildFn &&build)
{
    auto &map = store.map;
    std::promise<std::shared_ptr<const T>> promise;
    bool owner = false;
    std::uint64_t my_id = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = map.find(key);
        if (it != map.end()) {
            // NEVER block on a still-building slot: the caller may be
            // a pool task that the builder's parallelFor help-loop
            // nested on top of the builder's own stack — waiting here
            // would deadlock the frame that must fulfil the promise.
            // A racing caller builds a private (bit-identical) copy
            // instead; only the completed artifact counts as a hit.
            if (it->second.future.wait_for(std::chrono::seconds(0)) ==
                std::future_status::ready) {
                ++stats_.hits;
                obs::count(cacheMetrics().hits);
                return it->second.future.get();
            }
            ++stats_.misses;
            obs::count(cacheMetrics().misses);
        } else {
            ++stats_.misses;
            obs::count(cacheMetrics().misses);
            my_id = ++nextId_;
            map.emplace(key,
                        typename Store<T>::Entry{
                            my_id, promise.get_future().share()});
            store.order.emplace_back(key, my_id);
            owner = true;
            // FIFO bound: a long-lived queue sweeping many noise
            // points must not grow without limit. Running shards keep
            // evicted artifacts alive via their own shared_ptr.
            while (map.size() > kMaxEntriesPerKind &&
                   !store.order.empty()) {
                const auto [victim, victim_id] = store.order.front();
                store.order.pop_front();
                const auto victim_it = map.find(victim);
                // Id mismatch = stale record (failed build or
                // re-inserted key); never evict the live successor.
                if (victim_it == map.end() ||
                    victim_it->second.id != victim_id)
                    continue;
                map.erase(victim_it);
                ++stats_.evictions;
                obs::count(cacheMetrics().evictions);
            }
        }
    }
    // A failure removes the key so later lookups retry instead of
    // replaying a possibly transient error forever.
    try {
        auto artifact = build();
        if (owner)
            promise.set_value(artifact);
        return artifact;
    } catch (...) {
        if (owner) {
            {
                std::lock_guard<std::mutex> lock(mutex_);
                // Erase only this thread's own entry: eviction may
                // have dropped it and a successor re-inserted the
                // key; that entry must survive. (The stale order
                // entry, either way, is skipped by future evictions.)
                const auto it = map.find(key);
                if (it != map.end() && it->second.id == my_id)
                    map.erase(it);
            }
            promise.set_exception(std::current_exception());
        }
        throw;
    }
}

std::shared_ptr<const ExecutablePlan>
PlanCache::plan(const Circuit &circuit, int fusion)
{
    if (fusion < 0)
        fusion = currentFusionLevel();
    return lookup(plans_, planKey(circuit, fusion), [&]() {
        return std::make_shared<const ExecutablePlan>(
            ExecutablePlan::compile(circuit, fusion));
    });
}

std::shared_ptr<const TrajectoryPlan>
PlanCache::trajectoryPlan(const Circuit &circuit,
                          const NoiseModel *noise, int fusion)
{
    if (fusion < 0)
        fusion = currentFusionLevel();
    const std::uint64_t key = noisyPlanKey(circuit, noise, fusion);
    return lookup(trajectoryPlans_, key, [&]() {
        return std::make_shared<const TrajectoryPlan>(
            TrajectoryPlan::compile(circuit, noise, fusion));
    });
}

std::shared_ptr<const DensityPlan>
PlanCache::densityPlan(const Circuit &circuit, const NoiseModel *noise,
                       int fusion)
{
    if (fusion < 0)
        fusion = currentFusionLevel();
    const std::uint64_t key = noisyPlanKey(circuit, noise, fusion);
    return lookup(densityPlans_, key, [&]() {
        return std::make_shared<const DensityPlan>(
            DensityPlan::compile(circuit, noise, fusion));
    });
}

std::shared_ptr<const SampledDistribution>
PlanCache::sampledDistribution(
    const Circuit &circuit, int fusion,
    const std::function<std::shared_ptr<const SampledDistribution>()>
        &build)
{
    if (fusion < 0)
        fusion = currentFusionLevel();
    return lookup(sampled_, planKey(circuit, fusion), build);
}

std::shared_ptr<const DensityDistribution>
PlanCache::densityDistribution(
    const Circuit &circuit, const NoiseModel *noise, int fusion,
    const std::function<std::shared_ptr<const DensityDistribution>()>
        &build)
{
    if (fusion < 0)
        fusion = currentFusionLevel();
    return lookup(densityDistributions_,
                  noisyPlanKey(circuit, noise, fusion), build);
}

PlanCache::Stats
PlanCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

} // namespace kernels
} // namespace qra
