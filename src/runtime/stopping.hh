/**
 * @file
 * Confidence-driven early stopping for wave-based execution.
 *
 * A StoppingRule watches the any-error rate of a job's assertion
 * checks over its (partial) Result and asks the engine to stop
 * launching shot waves once that rate's 95% Wilson confidence
 * half-width is at or below a target. The rate is the paper's
 * assertion error rate; tightening its interval is exactly the
 * amplitude-estimation workload, so adaptive shots stop as soon as
 * the estimate is good enough instead of burning the job's fixed
 * shot budget.
 */

#ifndef QRA_RUNTIME_STOPPING_HH
#define QRA_RUNTIME_STOPPING_HH

#include <cstddef>
#include <string>

#include "assertions/injector.hh"
#include "sim/result.hh"

namespace qra {
namespace runtime {

/** When to stop launching shot waves. */
struct StoppingRule
{
    /**
     * Stop once the any-error rate's 95% Wilson half-width is <= this.
     * <= 0 disables convergence: every wave of the budget runs (the
     * wave decomposition itself stays deterministic either way).
     */
    double targetHalfWidth = 0.0;

    /** Never stop before this many shots (0 = no floor). */
    std::size_t minShots = 0;

    /**
     * Target shots per wave; rounded up to whole shards of the
     * budget's deterministic shard plan (waves partition the shard
     * index space, which is what keeps waved counts bit-identical to
     * a single block). 0 = auto: the whole plan in one wave when no
     * convergence target is set (full shard parallelism, run()'s
     * schedule), about one shard per pool thread otherwise.
     */
    std::size_t waveShots = 0;

    /** True when a convergence target is set. */
    bool enabled() const { return targetHalfWidth > 0.0; }
};

/** Progress of a run, delivered after every wave. */
struct StoppingStatus
{
    /** Waves completed so far (1 after the first wave). */
    std::size_t wave = 0;

    /** Shots merged so far. */
    std::size_t shotsDone = 0;

    /** Full shot budget of the run. */
    std::size_t shotsRequested = 0;

    /** Point estimate of the any-error rate. */
    double estimate = 0.0;

    /** 95% Wilson half-width of the estimate. */
    double halfWidth = 1.0;

    /** Half-width target met (and past any minShots floor). */
    bool converged = false;

    /** No further waves will run (converged, budget exhausted, or
        cancelled). */
    bool finished = false;

    /** The job's CancelToken fired (or its deadline passed) at this
        wave boundary; shotsDone holds the shots actually merged. */
    bool cancelled = false;

    /** Converged with budget to spare. */
    bool stoppedEarly() const
    {
        return finished && !cancelled && shotsDone < shotsRequested;
    }

    /** One-line summary, e.g. "wave 3: 768/8192 shots, ...". */
    std::string str() const;
};

/**
 * Evaluate @p rule against a partial result: the any-error rate's
 * point estimate and its Wilson half-width, plus the convergence flag
 * (half-width <= target and shots >= minShots).
 *
 * @param instrumented Decode bookkeeping for the assertion checks.
 * @throws ValueError when @p instrumented is null.
 */
StoppingStatus evaluateStopping(const StoppingRule &rule,
                                const Result &partial,
                                const InstrumentedCircuit *instrumented);

} // namespace runtime
} // namespace qra

#endif // QRA_RUNTIME_STOPPING_HH
