/**
 * @file
 * Deterministic fault injection for the runtime's recovery paths.
 *
 * A FaultPlan makes backends throw (transient or permanent), stall,
 * or fail allocation at chosen shard/wave indices — or at a seeded
 * per-shard rate — so cancellation, deadlines, retry/backoff, and
 * checkpoint/resume are testable and CI-exercisable rather than
 * theoretical. Injection is fully deterministic: fixed sites fire at
 * fixed (index, attempt) pairs, and rate sites derive their fire/no-
 * fire decision from the plan seed and the (shard, attempt) pair, so
 * the same plan faults the same shards every run.
 *
 * A plan reaches a job one way: through Job/JobSpec (`faults`), which
 * `qra_run --inject-fault=SPEC` fills from the same grammar. Spec
 * grammar — comma-separated elements:
 *
 *   shard:I:KIND[:N|:perm]   fault shard index I (N = first N
 *                            attempts, default 1; perm = permanent,
 *                            every attempt)
 *   wave:I:KIND              fault the epilogue of wave I (a
 *                            fixed-budget job's only wave is 0)
 *   prepare:KIND[:N|:perm]   fault the JobQueue prepare pipeline
 *   rate:P:KIND              fault any shard with probability P per
 *                            (shard, attempt), seeded
 *   seed:S                   seed for rate sites (default 0)
 *   stall-ms:T               stall duration for KIND=stall
 *                            (default 25)
 *
 * KIND is one of: throw (TransientSimulationError; SimulationError
 * when :perm), stall (sleep stall-ms, then run normally), badalloc
 * (std::bad_alloc — classified transient by isTransient()).
 */

#ifndef QRA_RUNTIME_FAULT_HH
#define QRA_RUNTIME_FAULT_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace qra {
namespace runtime {

/** What an injected fault does when it fires. */
enum class FaultKind
{
    /** Throw TransientSimulationError (SimulationError when
        permanent). */
    Throw,
    /** Sleep FaultPlan::stallMs, then continue normally. */
    Stall,
    /** Throw std::bad_alloc. */
    BadAlloc,
};

/** One injection site of a FaultPlan. */
struct FaultSite
{
    /** Which runtime hook the site arms. */
    enum class Scope
    {
        /** A shard run (index = global shard index of the plan). */
        Shard,
        /** A wave epilogue (index = 0-based wave index). */
        Wave,
        /** The JobQueue prepare pipeline (index ignored; attempts
            count prepare builds). */
        Prepare,
    };

    Scope scope = Scope::Shard;
    std::size_t index = 0;
    FaultKind kind = FaultKind::Throw;
    /** Fire on the first `times` attempts (so a retrying job recovers
        once the faulty attempts are spent). */
    std::size_t times = 1;
    /** Permanent: fire on every attempt and throw the non-transient
        error class. */
    bool permanent = false;
};

/** Stable scope name: "shard", "wave", "prepare". */
const char *faultScopeName(FaultSite::Scope scope);

/** A deterministic set of injection sites (see file comment). */
struct FaultPlan
{
    std::vector<FaultSite> sites;

    /** Seed of the rate sites' fire/no-fire draws. */
    std::uint64_t seed = 0;

    /** Per-(shard, attempt) fault probability; 0 = no rate site. */
    double shardFaultRate = 0.0;

    /** What rate-site faults do when they fire. */
    FaultKind rateKind = FaultKind::Throw;

    /** Stall duration for FaultKind::Stall sites. */
    std::size_t stallMs = 25;

    bool empty() const
    {
        return sites.empty() && shardFaultRate <= 0.0;
    }

    /**
     * Whether a fault fires at (@p scope, @p index, @p attempt), and
     * what it does. Deterministic: fixed sites match on index and
     * attempt < times (or always when permanent), rate sites on a
     * seeded draw.
     *
     * @param kind_out Set to the firing fault's kind.
     * @param permanent_out Set to the firing fault's permanence.
     * @return True when a fault fires.
     */
    bool shouldFire(FaultSite::Scope scope, std::size_t index,
                    std::size_t attempt, FaultKind *kind_out,
                    bool *permanent_out) const;

    /** One-line summary in the spec grammar. */
    std::string str() const;

    /** Parse the spec grammar. @throws ValueError on malformed text. */
    static FaultPlan parse(const std::string &text);
};

/**
 * Fire the matching fault of @p plan at (@p scope, @p index,
 * @p attempt), if any: throw for Throw/BadAlloc sites, sleep for
 * Stall sites, no-op when @p plan is null or nothing matches. Every
 * firing increments the `engine.faults_injected` counter.
 */
void maybeInjectFault(const FaultPlan *plan, FaultSite::Scope scope,
                      std::size_t index, std::size_t attempt);

} // namespace runtime
} // namespace qra

#endif // QRA_RUNTIME_FAULT_HH
