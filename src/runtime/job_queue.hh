/**
 * @file
 * JobQueue: the batch front-end of the runtime.
 *
 * Submit many (circuit, shots, backend, noise) jobs, get a future per
 * job (or submit a batch with runAll); shards of all in-flight jobs
 * interleave on the engine's thread pool. The future is the queue's
 * one submit form: a caller that wants per-wave progress runs the
 * engine's run(job, onProgress) instead. Preparation — assertion
 * injection and device transpilation — runs through the declarative
 * compile::preparePipeline and is memoised in a cache keyed by
 * (Circuit::hash(), coupling map, pipeline fingerprint), so
 * resubmitting the same circuit (the bench suite's dominant pattern:
 * thousands of shot-jobs over a handful of circuits) skips straight
 * to execution.
 *
 * The prepare cache is a Memo (common/memo.hh), the same store behind
 * each PlanCache artifact kind. Two consequences: two threads that
 * submit the same never-seen spec at once both compile it, with
 * identical results, instead of one waiting for the other; and the
 * cache holds at most Memo::kMaxEntries prepared circuits, so a queue
 * that has prepared more distinct specs prepares the oldest again when
 * it is resubmitted (preparation is deterministic, so nothing but the
 * time changes).
 */

#ifndef QRA_RUNTIME_JOB_QUEUE_HH
#define QRA_RUNTIME_JOB_QUEUE_HH

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "assertions/injector.hh"
#include "common/memo.hh"
#include "compile/pipelines.hh"
#include "runtime/execution_engine.hh"
#include "sim/kernels/plan_cache.hh"
#include "transpile/coupling_map.hh"

namespace qra {
namespace runtime {

/** One batch request: a Job plus optional preparation steps. */
struct JobSpec
{
    Circuit circuit{1};
    std::size_t shots = 1024;
    std::string backend = "auto";
    std::uint64_t seed = 7;
    /** Not owned; must outlive execution. */
    const NoiseModel *noise = nullptr;

    /**
     * Assertion checks to inject before execution (cached by payload
     * hash). Empty = run the circuit as-is.
     */
    std::vector<AssertionSpec> assertions;

    /**
     * Device coupling map to transpile to (cached together with the
     * injection step). Not owned; null = no transpilation.
     */
    const CouplingMap *coupling = nullptr;

    /**
     * Instrumentation knobs (ancilla reuse, barriers). Part of the
     * preparation-cache key whenever assertions are present; inert —
     * and excluded from the key — otherwise.
     */
    InstrumentOptions instrumentOptions;

    /**
     * Where the checks come from: `assertions` (Explicit) or the
     * static analysis (AutoGenerate). Either way, with a coupling map
     * each check's ancillas bind at route time to the free physical
     * qubits nearest its targets. Part of the prepare key through
     * the pipeline it selects.
     */
    compile::InjectionStrategy injection =
        compile::InjectionStrategy::Explicit;

    /**
     * Budget for InjectionStrategy::AutoGenerate (max checks, min
     * prefix depth). Part of the prepare key only when the strategy
     * is AutoGenerate (the auto-assert pass folds it); inert
     * otherwise.
     */
    compile::AutoAssertOptions autoAssert;

    /**
     * Early-stopping policy. When its convergence target is set,
     * submissions of this spec execute in shot waves and stop as
     * soon as the any-error rate's Wilson 95% half-width reaches the
     * target — the delivered Result then carries stoppedEarly() and
     * shotsRequested(). An enabled rule needs checks to watch:
     * `assertions`, or InjectionStrategy::AutoGenerate. Not part of
     * the prepare key: the rule changes how many shots run, never
     * the prepared circuit, so early-stopping resubmissions share cache
     * entries (and warm sampling artifacts) with fixed ones.
     */
    StoppingRule stopping;

    /**
     * Lifecycle knobs, forwarded verbatim to the engine Job (see
     * execution_engine.hh). None participate in the prepare key:
     * they change how a job executes, never the prepared circuit.
     */
    /** Cooperative cancellation handle (keep a copy, call cancel()). */
    CancelToken cancel;
    /** Wall-clock deadline in ms from dispatch; <= 0 = none. */
    double deadlineMs = 0.0;
    /** Re-run policy for transiently failed shards. */
    RetryPolicy retry;
    /** Fault-injection plan (see fault.hh); null = none. */
    std::shared_ptr<const FaultPlan> faults;
    /** Checkpoint sink (see checkpoint.hh). */
    std::shared_ptr<JobCheckpoint> checkpoint;
    /** Resume source (see checkpoint.hh). */
    std::shared_ptr<const JobCheckpoint> resumeFrom;
};

/**
 * The declarative compile recipe for @p spec — the pipeline
 * JobQueue::prepare runs, exposed so tools can introspect it
 * (qra_run --dump-pipeline) without submitting anything.
 */
compile::PrepareSpec prepareSpec(const JobSpec &spec);

/** Batch submission with a prepare (transpile/inject) cache. */
class JobQueue
{
  public:
    /** @param engine Not owned; must outlive the queue. */
    explicit JobQueue(ExecutionEngine &engine);

    /**
     * Prepare @p spec (inject assertions, transpile), reusing the
     * cache when an identical circuit was prepared before, and hand
     * the resulting job to the engine. The future becomes ready, with
     * ExecStats and the submit-to-complete latency stamped, when the
     * last shard finishes (the merge runs on that shard's pool
     * thread, not on the get() thread), and a failed job rethrows the
     * lowest-index failing shard's error. Specs whose stopping rule
     * is enabled stop early on convergence; the future then resolves
     * to the partial-but-converged Result. The future may outlive
     * the queue. Dispatch errors (unknown backend, a failed prepare,
     * a mismatched resume checkpoint) throw here, synchronously.
     */
    std::future<Result> submit(const JobSpec &spec);

    /**
     * Submit every spec, then wait for all results, in order. If a
     * submission throws, or a job fails, every job already dispatched
     * has finished before the first error is rethrown, so the specs'
     * noise models and checkpoint sinks are free to go.
     */
    std::vector<Result> runAll(const std::vector<JobSpec> &specs);

    /**
     * The instrumented form of @p spec's circuit, as submit() would
     * prepare it. Use it to decode Results of jobs with assertions.
     */
    std::shared_ptr<const InstrumentedCircuit>
    instrumented(const JobSpec &spec);

    /**
     * Prepared-circuit cache hits since construction. Only submit()
     * counts toward the hit/miss statistics; instrumented() is
     * introspection and leaves them untouched. Per-queue thin reads;
     * when metrics are enabled the same events also feed the global
     * registry counters `jobqueue.prepare_cache.hits/misses`, and
     * the entries a submission evicts feed
     * `jobqueue.prepare_cache.evictions`.
     */
    std::size_t cacheHits() const;

    /** Prepared-circuit cache misses since construction. */
    std::size_t cacheMisses() const;

    /**
     * The cross-job sampling/artifact cache this queue installs
     * around every shard of every job it submits, whatever its
     * stopping rule: lowered plans, noisy trajectory and density
     * plans, sampled-execution samplers and density register
     * distributions, keyed by (circuit hash, noise fingerprint,
     * fusion level). Hit/miss counters live on its stats(); the
     * global registry mirrors them as
     * `plan_cache.hits/misses/evictions`.
     */
    std::shared_ptr<kernels::PlanCache> artifactCache() const;

  private:
    struct Prepared
    {
        /** Final executable circuit (injected + transpiled). */
        std::shared_ptr<const Circuit> circuit;
        /** Set when the spec requested assertion injection. */
        std::shared_ptr<const InstrumentedCircuit> instrumented;
    };

    /** How one submission's preparation went (for ExecStats). */
    struct PrepInfo
    {
        bool cacheHit = false;
        double seconds = 0.0;
    };

    /**
     * Cache key: payload hash x coupling-map data x pipeline
     * fingerprint. The fingerprint covers the full declarative recipe
     * — instrumentation options, injection strategy, and *semantic*
     * assertion fingerprints (type, targets, insertAt, repetitions) —
     * so semantically identical resubmissions hit even with distinct
     * assertion objects, and a recycled pointer can never alias a
     * different assertion.
     */
    static std::uint64_t prepareKey(const JobSpec &spec,
                                    std::uint64_t pipeline_fingerprint);

    /**
     * The memoised preparation of @p spec (see the file comment): a
     * cache hit returns the stored circuit; a miss compiles it. A
     * compile that throws leaves no entry, so the next submission of
     * the spec compiles again.
     *
     * @param count_stats False for introspection-only lookups.
     * @param info Optional sink for cache-hit/timing bookkeeping.
     */
    std::shared_ptr<const Prepared> prepare(const JobSpec &spec,
                                            bool count_stats,
                                            PrepInfo *info = nullptr);

    /** Prepare @p spec and assemble the engine Job (incl. stopping). */
    Job makeJob(const JobSpec &spec, PrepInfo *info);

    /**
     * The completion that settles @p promise: the delivered Result
     * carries the preparation bookkeeping in its ExecStats, and the
     * submit-to-complete latency lands in the queue's histogram.
     */
    static ExecutionEngine::Completion
    stamped(std::shared_ptr<std::promise<Result>> promise, PrepInfo info);

    ExecutionEngine &engine_;
    mutable std::mutex mutex_;
    Memo<Prepared> prepared_;
    const std::shared_ptr<kernels::PlanCache> artifacts_;
    std::size_t hits_ = 0;
    std::size_t misses_ = 0;
    /** Prepare builds started (the fault injector's attempt index). */
    std::atomic<std::size_t> prepareAttempts_{0};
};

} // namespace runtime
} // namespace qra

#endif // QRA_RUNTIME_JOB_QUEUE_HH
