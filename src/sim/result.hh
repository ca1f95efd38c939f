/**
 * @file
 * Execution result: measurement counts keyed by classical-register
 * value, plus optional per-shot memory and exact probabilities.
 */

#ifndef QRA_SIM_RESULT_HH
#define QRA_SIM_RESULT_HH

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace qra {

/**
 * Execution bookkeeping the runtime stamps onto a merged Result:
 * how the job was carved up and where its wall-clock time went.
 * Always populated by the JobQueue/ExecutionEngine paths (it costs a
 * couple of clock reads per *job*, independent of telemetry being
 * on); default for Results built directly by a simulator.
 */
struct ExecStats
{
    /** Shards executed and merged into this result. */
    std::size_t shards = 0;
    /** Shot waves executed (1 for a fixed-budget run; 0 for a
        Result no engine produced). */
    std::size_t waves = 0;
    /** True when the JobQueue's prepare cache supplied the circuit. */
    bool prepareCacheHit = false;
    /** Injection + transpile time this submission spent (usually 0
        on a cache hit). */
    double prepareSeconds = 0.0;
    /** Engine dispatch-to-merge wall time. */
    double engineSeconds = 0.0;
    /** Shard attempts re-run after a transient failure (RetryPolicy). */
    std::size_t retries = 0;
    /** Shots adopted from a JobCheckpoint instead of re-executed. */
    std::size_t resumedShots = 0;
};

/** Counts and metadata from running a circuit for some shots. */
class Result
{
  public:
    Result() = default;

    /**
     * @param num_clbits Width of the classical register; outcome keys
     *        are rendered as bitstrings of this width (MSB first,
     *        clbit 0 rightmost).
     */
    explicit Result(std::size_t num_clbits);

    std::size_t numClbits() const { return numClbits_; }

    /** Total number of recorded shots. */
    std::size_t shots() const { return shots_; }

    /** Record one shot with classical-register value @p outcome. */
    void record(std::uint64_t outcome);

    /** Record @p count shots of the same outcome (0 adds no key). */
    void record(std::uint64_t outcome, std::size_t count);

    /** Counts keyed by integer register value. */
    const std::map<std::uint64_t, std::size_t> &rawCounts() const
    {
        return counts_;
    }

    /** Count for a specific integer outcome (0 if absent). */
    std::size_t count(std::uint64_t outcome) const;

    /** Empirical probability of an integer outcome. */
    double probability(std::uint64_t outcome) const;

    /**
     * Exact outcome distribution, if the backend computed one (the
     * density-matrix backend does). Keyed by register value.
     */
    const std::optional<std::map<std::uint64_t, double>> &
    exactDistribution() const
    {
        return exact_;
    }

    void setExactDistribution(std::map<std::uint64_t, double> dist);

    /**
     * Fraction of trajectories discarded by PostSelect directives
     * (1.0 means nothing was discarded).
     */
    double retainedFraction() const { return retainedFraction_; }
    void setRetainedFraction(double f) { retainedFraction_ = f; }

    /**
     * True when a run with an enabled stopping rule converged before
     * exhausting the shot budget; shots() then holds the shots
     * actually taken.
     */
    bool stoppedEarly() const { return stoppedEarly_; }
    void setStoppedEarly(bool stopped) { stoppedEarly_ = stopped; }

    /**
     * The shot budget the job asked for. Equals shots() for runs that
     * executed their whole budget; an early-stopped or cancelled run
     * reports the full budget here and the shots taken in shots().
     */
    std::size_t shotsRequested() const
    {
        return shotsRequested_ != 0 ? shotsRequested_ : shots_;
    }
    void setShotsRequested(std::size_t shots)
    {
        shotsRequested_ = shots;
    }

    /**
     * True when the job's CancelToken fired (cancel() or deadline)
     * by the engine's final wave boundary. The counts are the merge
     * of exactly the shards that finished — bit-identical to those
     * shards of an uncancelled run — and shots() <= shotsRequested().
     * The two are equal when the cancel arrived after every shard had
     * started (or, with a checkpoint sink, inside the last wave):
     * nothing was skipped, but the job was still cancelled.
     */
    bool cancelled() const { return cancelled_; }

    /** Why the job was cancelled: "user" or "deadline" (empty when
        not cancelled). */
    const std::string &cancelReason() const { return cancelReason_; }

    void setCancelled(std::string reason)
    {
        cancelled_ = true;
        cancelReason_ = std::move(reason);
    }

    /**
     * Where this result's execution time went (see ExecStats).
     * Stamped by the runtime after the merge; merge() itself leaves
     * it untouched.
     */
    const ExecStats &execStats() const { return execStats_; }
    void setExecStats(const ExecStats &stats) { execStats_ = stats; }

    /**
     * Merge the counts of another result (same width required).
     * Merging two results that carry *different* exact distributions
     * is refused: shards of one job always carry identical copies, so
     * a mismatch means the caller merged distinct jobs and the exact
     * data of one would silently misrepresent the union.
     */
    void merge(const Result &other);

    /** Multi-line "bits  count  percent" table sorted by outcome. */
    std::string str() const;

  private:
    std::size_t numClbits_ = 0;
    std::size_t shots_ = 0;
    std::map<std::uint64_t, std::size_t> counts_;
    std::optional<std::map<std::uint64_t, double>> exact_;
    double retainedFraction_ = 1.0;
    bool stoppedEarly_ = false;
    bool cancelled_ = false;
    std::string cancelReason_;
    /** 0 = "same as shots()" so plain results need no bookkeeping. */
    std::size_t shotsRequested_ = 0;
    ExecStats execStats_;
};

} // namespace qra

#endif // QRA_SIM_RESULT_HH
