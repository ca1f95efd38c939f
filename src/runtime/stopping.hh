/**
 * @file
 * Confidence-driven early stopping for wave-based execution.
 *
 * A StoppingRule watches one statistic of a job's (partial) Result —
 * the any-error rate of its assertion checks, one check's error rate,
 * or a named outcome's probability — and asks the engine to stop
 * launching shot waves once the statistic's 95% Wilson confidence
 * half-width is at or below a target. The assertion statistics are
 * the paper's trap/assertion error rates; tightening their interval
 * is exactly the amplitude-estimation workload, so adaptive shots
 * stop as soon as the estimate is good enough instead of burning a
 * fixed budget.
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
    /** Which statistic the confidence target watches. */
    enum class Statistic
    {
        /** P(any assertion check flagged an error). */
        AnyError,
        /** P(check `checkIndex` flagged an error). */
        CheckError,
        /** P(register/payload outcome == `outcome`). */
        OutcomeProbability,
    };

    Statistic statistic = Statistic::AnyError;

    /** Check index for Statistic::CheckError. */
    std::size_t checkIndex = 0;

    /**
     * Outcome bitstring for Statistic::OutcomeProbability, e.g.
     * "011". Decoded over the payload bits when the job carries an
     * instrumented circuit, over the full register otherwise.
     */
    std::string outcome;

    /**
     * Stop once the statistic's 95% Wilson half-width is <= this.
     * <= 0 disables convergence: every wave of the budget runs (the
     * wave decomposition itself stays deterministic either way).
     */
    double targetHalfWidth = 0.0;

    /** Never stop before this many shots (0 = no floor). */
    std::size_t minShots = 0;

    /**
     * Hard shot budget. 0 = the job's own shot count. The engine
     * never exceeds it, converged or not.
     */
    std::size_t maxShots = 0;

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

    /** Point estimate of the watched statistic. */
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
 * Evaluate @p rule against a partial result: the statistic's point
 * estimate and its Wilson half-width, plus the convergence flag
 * (half-width <= target and shots >= minShots).
 *
 * @param instrumented Decode bookkeeping for the assertion
 *        statistics; may be null for OutcomeProbability.
 * @throws ValueError when the statistic needs bookkeeping the caller
 *         did not provide (assertion statistics without an
 *         instrumented circuit, a check index out of range, or an
 *         empty/unparsable outcome string).
 */
StoppingStatus evaluateStopping(const StoppingRule &rule,
                                const Result &partial,
                                const InstrumentedCircuit *instrumented);

} // namespace runtime
} // namespace qra

#endif // QRA_RUNTIME_STOPPING_HH
