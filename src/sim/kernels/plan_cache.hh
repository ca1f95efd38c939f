/**
 * @file
 * PlanCache: memoised per-circuit execution artifacts, shared across
 * jobs and shards.
 *
 * Four artifacts depend only on the circuit (semantic hash), the
 * noise model (semantic fingerprint) and the fusion level — never on
 * shots, seeds or thread counts:
 *  - lowered ideal plans;
 *  - noisy trajectory plans;
 *  - sampled-execution distributions (a CumulativeSampler over the
 *    measured-qubit marginal, plus its clbit wiring);
 *  - density register distributions (the evolved, readout-folded
 *    distribution and its CumulativeSampler).
 * A PlanCache keyed on those lets every shard of a job, and every
 * repeated job over the same prepared circuit (the batched-assertion
 * sweep pattern), build each artifact exactly once. A cached density
 * distribution makes a repeated density job cost its sampling only;
 * its superoperator plan is compiled on the miss and not kept, since
 * nothing reads it again while the distribution is cached.
 *
 * The cache reaches the simulators the same way the thread pool does:
 * the execution engine installs a PlanCacheScope around each shard,
 * and StatevectorSimulator / TrajectorySimulator /
 * DensityMatrixSimulator consult currentPlanCache(). Without an active
 * scope they compile locally, so direct simulator use is unchanged.
 *
 * Each artifact kind is one Memo (common/memo.hh): the first caller
 * of a key publishes the artifact, a caller that races a still-running
 * build constructs a private copy rather than block, and each kind
 * keeps at most Memo::kMaxEntries entries, evicted FIFO. Cached
 * artifacts are bit-identical to locally built ones (plan compilation
 * is deterministic and the amplitude kernels are lane-count
 * independent), so caching never changes counts.
 */

#ifndef QRA_SIM_KERNELS_PLAN_CACHE_HH
#define QRA_SIM_KERNELS_PLAN_CACHE_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "circuit/circuit.hh"
#include "common/memo.hh"
#include "common/rng.hh"
#include "noise/noise_model.hh"
#include "sim/kernels/noise_plan.hh"
#include "sim/kernels/plan.hh"

namespace qra {
namespace kernels {

/**
 * Everything sampled execution needs after the one-time evolution: a
 * CumulativeSampler over the measured-qubit marginal (empty when
 * nothing is measured), the marginal-bit -> clbit wiring, and the
 * post-selection retention. A run counts its shots per marginal key
 * with CumulativeSampler::counts.
 */
struct SampledDistribution
{
    CumulativeSampler sampler;
    /** (marginal bit index, clbit) per measurement, program order. */
    std::vector<std::pair<std::size_t, Clbit>> bitWiring;
    double retainedFraction = 1.0;
};

/**
 * Everything a density run samples after its one-time evolution: the
 * register distribution with readout folded in, the post-selection
 * retention, and the distribution's keys with a CumulativeSampler over
 * their probabilities in key order, built once with the entry, so a
 * cache hit only counts its shots per key (CumulativeSampler::counts).
 */
struct DensityDistribution
{
    std::map<std::uint64_t, double> distribution;
    double retainedFraction = 1.0;
    std::vector<std::uint64_t> keys;
    CumulativeSampler sampler;
};

/** Cross-job artifact cache (see file comment). */
class PlanCache
{
  public:
    struct Stats
    {
        std::size_t hits = 0;
        std::size_t misses = 0;
        std::size_t evictions = 0;
    };

    /** Lowered ideal plan for (circuit, fusion). */
    std::shared_ptr<const ExecutablePlan> plan(const Circuit &circuit,
                                               int fusion);

    /**
     * Lowered noisy trajectory plan for (circuit, noise fingerprint,
     * fusion). @p noise may be null (ideal trajectories).
     */
    std::shared_ptr<const TrajectoryPlan>
    trajectoryPlan(const Circuit &circuit, const NoiseModel *noise,
                   int fusion);

    /**
     * Sampled-execution distribution for (circuit, fusion); the
     * measured-qubit set is a function of the circuit and therefore
     * of its hash. @p build runs on a miss only.
     */
    std::shared_ptr<const SampledDistribution> sampledDistribution(
        const Circuit &circuit, int fusion,
        const std::function<std::shared_ptr<const SampledDistribution>()>
            &build);

    /**
     * Density register distribution, keyed like trajectoryPlan().
     * @p build runs on a miss only.
     */
    std::shared_ptr<const DensityDistribution> densityDistribution(
        const Circuit &circuit, const NoiseModel *noise, int fusion,
        const std::function<std::shared_ptr<const DensityDistribution>()>
            &build);

    /** Aggregate hit/miss/eviction counters over all artifact kinds. */
    Stats stats() const;

  private:
    /**
     * Count @p found (hit or miss, plus its evictions) into the
     * per-instance stats and the `plan_cache.*` mirrors; returns its
     * value.
     */
    template <typename T>
    std::shared_ptr<const T> tally(typename Memo<T>::Lookup found);

    Memo<ExecutablePlan> plans_;
    Memo<TrajectoryPlan> trajectoryPlans_;
    Memo<SampledDistribution> sampled_;
    Memo<DensityDistribution> densityDistributions_;
    std::atomic<std::size_t> hits_{0};
    std::atomic<std::size_t> misses_{0};
    std::atomic<std::size_t> evictions_{0};
};

/** The calling thread's active cache (nullptr = compile locally). */
PlanCache *currentPlanCache();

/** RAII guard installing a cache on the current thread. */
class PlanCacheScope
{
  public:
    explicit PlanCacheScope(PlanCache *cache);
    ~PlanCacheScope();

    PlanCacheScope(const PlanCacheScope &) = delete;
    PlanCacheScope &operator=(const PlanCacheScope &) = delete;

  private:
    PlanCache *saved_;
};

} // namespace kernels
} // namespace qra

#endif // QRA_SIM_KERNELS_PLAN_CACHE_HH
