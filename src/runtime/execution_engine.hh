/**
 * @file
 * ExecutionEngine: sharded, deterministic, multi-threaded circuit
 * execution over registry backends.
 *
 * A job's shot budget is split into shards by a plan that depends
 * only on the job (shots, seed, backend capabilities, engine shard
 * options) — never on the thread count. Each shard runs on the
 * thread pool with an RNG stream split from the job seed by shard
 * index, and the partial Results are merged in shard order, so the
 * merged counts for a fixed seed are bit-identical whether the
 * engine drives 1 thread or 64.
 *
 * Every job has one lifecycle: its shards execute in waves, and each
 * wave's epilogue merges the wave, evaluates the stopping rule,
 * streams progress, and either launches the next wave or stamps and
 * delivers the Result. A fixed-budget job (stopping rule disabled,
 * no wave size) is a one-wave job over its whole shard plan.
 */

#ifndef QRA_RUNTIME_EXECUTION_ENGINE_HH
#define QRA_RUNTIME_EXECUTION_ENGINE_HH

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "assertions/injector.hh"
#include "assertions/report.hh"
#include "circuit/circuit.hh"
#include "noise/noise_model.hh"
#include "runtime/backend_registry.hh"
#include "runtime/cancel.hh"
#include "runtime/checkpoint.hh"
#include "runtime/fault.hh"
#include "runtime/retry.hh"
#include "runtime/stopping.hh"
#include "runtime/thread_pool.hh"
#include "sim/kernels/plan.hh"
#include "sim/kernels/plan_cache.hh"
#include "sim/result.hh"

namespace qra {
namespace runtime {

/** One unit of work: a circuit, a shot budget, and how to run it. */
struct Job
{
    std::shared_ptr<const Circuit> circuit;
    std::size_t shots = 1024;
    /** Registry name, or "auto" to let the registry pick. */
    std::string backend = "auto";
    std::uint64_t seed = 7;
    /** Not owned; must outlive the job's execution. */
    const NoiseModel *noise = nullptr;

    /**
     * Shared artifact cache (lowered plans, trajectory plans, sampled
     * distributions) installed around every shard of this job; null =
     * each shard compiles locally. The JobQueue sets its own cache
     * here so repeated jobs skip lowering and distribution builds.
     */
    std::shared_ptr<kernels::PlanCache> artifacts;

    /**
     * Early-stopping policy. With the convergence target unset the
     * job runs all its shots: in one wave, or in waves of
     * stopping.waveShots when that is set. With it set, waves stop
     * once the any-error rate's interval is tight.
     */
    StoppingRule stopping;

    /**
     * Decode bookkeeping for the stopping rule's any-error rate.
     * Required when the rule is enabled; may be null otherwise.
     */
    std::shared_ptr<const InstrumentedCircuit> instrumented;

    /**
     * Cooperative cancellation handle. Keep a copy and call
     * cancel(): shards not yet started are skipped — unless the job
     * has a checkpoint sink, whose in-flight wave always finishes so
     * the cursor stays wave-aligned — and no further wave launches.
     * The delivered Result is the merge of exactly the shards that
     * completed — bit-identical to those shards of an uncancelled
     * run — stamped cancelled() whenever the token has fired by the
     * final wave boundary.
     */
    CancelToken cancel;

    /**
     * Wall-clock deadline in milliseconds from dispatch; <= 0 = none,
     * and so is one past the clock's range (+inf included). Armed on
     * the cancel token at dispatch, so expiry behaves exactly like
     * cancel() with reason "deadline". NaN is a ValueError at
     * dispatch.
     */
    double deadlineMs = 0.0;

    /** Re-run policy for transiently failed shards (see retry.hh).
        Retried shards reuse their original RNG stream, so a recovered
        job is bit-identical to a fault-free one. */
    RetryPolicy retry;

    /**
     * Fault-injection plan for this job; null = none. Test/bench
     * hook — see fault.hh.
     */
    std::shared_ptr<const FaultPlan> faults;

    /**
     * Checkpoint sink: when set, the engine writes the job's
     * resumable cursor here at completion, cancellation, and wave
     * failure (see checkpoint.hh).
     */
    std::shared_ptr<JobCheckpoint> checkpoint;

    /**
     * Resume source: skip the shards a prior run already merged.
     * Must match this job's circuit, seed, and budget (validated
     * synchronously); the stopping rule may differ.
     */
    std::shared_ptr<const JobCheckpoint> resumeFrom;

    Job() = default;

    /** Convenience: copies @p circuit into shared ownership. */
    Job(Circuit circuit_value, std::size_t shots_value,
        std::string backend_name = "auto", std::uint64_t seed_value = 7,
        const NoiseModel *noise_model = nullptr)
        : circuit(std::make_shared<Circuit>(std::move(circuit_value))),
          shots(shots_value), backend(std::move(backend_name)),
          seed(seed_value), noise(noise_model)
    {
    }
};

/** Engine tuning knobs. */
struct EngineOptions
{
    /** Worker threads; 0 = hardware concurrency. */
    std::size_t threads = 0;

    /**
     * Target shots per shard. Shard count is
     * clamp(ceil(shots / shardShots), 1, maxShards) and is part of
     * the deterministic shard plan: changing it changes the sampled
     * counts (like changing the seed), changing `threads` does not.
     */
    std::size_t shardShots = 1024;

    /** Upper bound on shards per job. */
    std::size_t maxShards = 64;

    /**
     * Amplitude-loop lanes per shard (intra-shot parallelism). 0 =
     * auto: leftover pool capacity is split across the job's shards
     * (threads / shard count), so one big-circuit job uses the whole
     * pool while a many-shard job stays at one lane per shard —
     * shards and lanes share the single engine pool either way, so
     * the machine is never oversubscribed. Lane count never affects
     * results: amplitude splits are bit-deterministic.
     */
    std::size_t intraThreads = 0;

    /**
     * Plan fusion level installed around backend runs (see
     * kernels::kFusionNone/1q/2q). Changing it changes which kernels
     * execute — results stay equivalent but, like changing the seed,
     * sampled counts are not bit-identical across levels.
     */
    int fusionLevel = kernels::kFusionDefault;

    /**
     * SIMD dispatch tier installed per shard (kernels::simd::TierScope,
     * the only override of the tier): -1 = auto (the QRA_SIMD
     * environment variable, else cpuid), otherwise a
     * kernels::simd::Tier value (0 scalar, 1 portable, 2 avx2,
     * 3 avx512), clamped to what the CPU and build support. Unlike
     * fusionLevel, the tier never changes results — every tier is
     * bit-identical to the scalar oracle, for gate updates and
     * measurement reductions alike.
     */
    int simdTier = -1;

    /**
     * Cache-tile budget (bytes) for the tiled pair-kernel walk,
     * installed per shard (kernels::CacheBlockScope, the only
     * override of the budget): 0 = the 1 MiB default. Values round
     * down to a power of two with a 4 KiB floor. Like simdTier this
     * is a pure locality knob — the tiled and linear walks are
     * bit-identical — so a different budget (e.g. a smaller one on a
     * cache-starved host) never changes counts.
     */
    std::size_t cacheBlockBytes = 0;
};

/** One entry of a job's deterministic shard plan. */
struct Shard
{
    std::size_t shots = 0;
    std::uint64_t seed = 0;
};

/** Sharded multi-threaded executor over registry backends. */
class ExecutionEngine
{
  public:
    /** @param registry Defaults to the global registry. */
    explicit ExecutionEngine(EngineOptions options = {},
                             BackendRegistry *registry = nullptr);

    /** Shorthand for EngineOptions{.threads = threads}. */
    explicit ExecutionEngine(std::size_t threads);

    std::size_t threads() const { return pool_.size(); }
    const EngineOptions &options() const { return options_; }
    BackendRegistry &registry() const { return *registry_; }

    /**
     * The shard plan for @p shots shots under @p seed: shot budget
     * split near-evenly, per-shard seeds derived via splitSeed.
     * Backends with shardable=false get a single shard.
     */
    std::vector<Shard> shardPlan(std::size_t shots, std::uint64_t seed,
                                 const Backend &backend) const;

    /**
     * Streaming callback: the merged partial Result after each wave
     * plus the stopping evaluation. Invoked on a pool thread,
     * strictly between waves (never concurrently with shard execution
     * of the same job), so the partial may be read without locking
     * but must not be retained past the callback's return — the next
     * wave mutates it.
     */
    using Progress =
        std::function<void(const Result &, const StoppingStatus &)>;

    /**
     * Execute @p job synchronously through submitAsync, streaming
     * each wave to @p onProgress (optional). Safe to call from any
     * thread that is not a pool thread. @throws
     * SimulationError/ValueError on unsupported circuits, unknown
     * backend names or misconfigured stopping rules, and rethrows the
     * lowest-index failing shard's error.
     */
    Result run(const Job &job, Progress onProgress = nullptr);

    /** Convenience: run a circuit without building a Job by hand. */
    Result run(const Circuit &circuit, std::size_t shots,
               const std::string &backend = "auto",
               std::uint64_t seed = 7,
               const NoiseModel *noise = nullptr);

    /**
     * Dispatch @p job's shards to the pool immediately and return a
     * future for the merged Result: a promise settled by
     * submitAsync's completion, so the merge runs on the last shard's
     * pool thread and the future is ready when the job completes.
     * Waiting on it from a pool thread can deadlock the pool.
     */
    std::future<Result> submit(Job job);

    /**
     * Completion callback of submitAsync: the merged Result, or — if
     * any shard threw — a default Result plus the exception of the
     * lowest-index failing shard (independent of which shard failed
     * first in time).
     */
    using Completion = std::function<void(Result, std::exception_ptr)>;

    /**
     * The one job lifecycle. The job's shot budget (job.shots) is laid
     * out as the deterministic shard plan, and the shards execute in
     * waves: the whole plan in one wave when the stopping rule is
     * disabled and stopping.waveShots is 0, else waves of
     * ~stopping.waveShots shots (about one shard per pool thread when
     * only the target is set). The last shard of each wave merges it
     * (in shard order), evaluates the stopping rule when it is enabled
     * or @p onProgress is attached, invokes @p onProgress on its pool
     * thread, and either launches the next wave or delivers the final
     * Result through @p onComplete (also on a pool thread). The run
     * ends early once the any-error rate's Wilson 95% half-width
     * reaches the target (past any minShots floor).
     *
     * Determinism: waves partition the budget's shard plan by shard
     * index and merge in shard order, so a run that executes the
     * whole budget is bit-identical at ANY thread/wave/shard-per-wave
     * setting. An early-stopped run equals a fixed run of the shots
     * actually taken whenever those form the same shard decomposition
     * — guaranteed when the budget is a multiple of shardShots and
     * within maxShards (uniform shard plan).
     *
     * The final Result carries shotsRequested() = budget,
     * stoppedEarly() when it converged with budget to spare, and
     * cancelled() when the token fired by the final wave boundary.
     * Callbacks must not block on pool work they themselves wait for
     * (submitting new jobs is fine) and should not throw: an
     * exception escaping one is logged as a warning and dropped.
     * Errors during dispatch (unknown backend, rejected circuit,
     * misconfigured rule, mismatched resume checkpoint) throw
     * synchronously.
     */
    void submitAsync(Job job, Completion onComplete,
                     Progress onProgress = nullptr);

    /**
     * Assertion-flow entry point: execute an instrumented circuit and
     * decode the assertion report from the merged result.
     *
     * @param result_out Optional sink for the merged raw Result.
     */
    AssertionReport runInstrumented(const InstrumentedCircuit &inst,
                                    std::size_t shots,
                                    const std::string &backend = "auto",
                                    std::uint64_t seed = 7,
                                    const NoiseModel *noise = nullptr,
                                    Result *result_out = nullptr);

  private:
    /** Reject invalid jobs and resolve intra-shot lane budget. */
    std::size_t checkAndLaneCount(const Job &job,
                                  const BackendPtr &backend,
                                  std::size_t shard_count) const;

    /**
     * The per-shard execution closure: cancellation poll (skipped
     * for jobs with a checkpoint sink, whose waves must complete
     * atomically), fault injection at @p shard_index, and the
     * transient-failure retry loop (attempts re-counted into
     * @p retries).
     */
    std::function<Result()>
    shardRunner(const Job &job, const BackendPtr &backend,
                const Shard &shard, std::size_t lanes,
                std::size_t shard_index,
                std::shared_ptr<std::atomic<std::size_t>> retries);

    /**
     * Epilogue of a shard batch: the parts in shard order plus the
     * error of the lowest-index failing shard (null when every shard
     * succeeded). Runs on the batch's last-finishing pool thread and
     * must not throw.
     */
    using BatchDone =
        std::function<void(std::vector<Result>, std::exception_ptr)>;

    /**
     * The one shard-completion path behind every wave: run shards
     * [@p begin, @p begin + @p count) of @p plan on the pool, store
     * each part and error under a mutex, and let the last shard to
     * finish call @p done. An empty batch calls @p done from a pool
     * task.
     */
    void runShards(const Job &job, const BackendPtr &backend,
                   const std::vector<Shard> &plan, std::size_t begin,
                   std::size_t count, std::size_t lanes,
                   std::shared_ptr<std::atomic<std::size_t>> retries,
                   BatchDone done);

    EngineOptions options_;
    BackendRegistry *registry_;
    ThreadPool pool_;
};

} // namespace runtime
} // namespace qra

#endif // QRA_RUNTIME_EXECUTION_ENGINE_HH
