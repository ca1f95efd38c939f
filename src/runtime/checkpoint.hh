/**
 * @file
 * JobCheckpoint: the resumable cursor of a job's shot waves.
 *
 * A job's progress is fully described by its position in
 * the deterministic shard plan: the merged counts so far, the index
 * of the next shard to launch, and the last stopping evaluation.
 * Because the plan depends only on (budget, seed, shardShots,
 * maxShards) and shard i always draws from splitSeed(seed, i), a job
 * resumed from a checkpoint with the same plan parameters replays the
 * exact shards an uninterrupted run would have executed — the resumed
 * result is bit-identical and total shots never exceed the
 * uninterrupted run's.
 *
 * The engine writes a checkpoint whenever Job::checkpoint is set: at
 * job completion (converged, exhausted, or cancelled at a wave
 * boundary) and — with the cursor rewound to the failing wave's first
 * shard — when a wave fails, so no shots are silently skipped on
 * resume after an error. To resume, put the checkpoint in
 * Job::resumeFrom (or JobSpec::resumeFrom) of a job with the same
 * circuit, seed, and budget; the engine validates the match and
 * continues from nextShard. The stopping rule may differ — resuming
 * with a tighter half-width target is the intended way to refine an
 * estimate without re-running completed shots.
 */

#ifndef QRA_RUNTIME_CHECKPOINT_HH
#define QRA_RUNTIME_CHECKPOINT_HH

#include <cstddef>
#include <cstdint>
#include <string>

#include "runtime/stopping.hh"
#include "sim/result.hh"

namespace qra {
namespace runtime {

/** Resumable cursor of a job's shot waves (see file comment). */
struct JobCheckpoint
{
    /** Hash of the circuit the shards ran (resume must match). */
    std::uint64_t circuitHash = 0;

    /** Base seed of the shard plan (resume must match). */
    std::uint64_t seed = 0;

    /** Shot budget of the plan (resume must match). */
    std::size_t budget = 0;

    /** Shard count of the plan — a cheap guard that the resuming
        engine's shardShots/maxShards produce the same decomposition. */
    std::size_t planShards = 0;

    /** Index of the next shard to launch (shards [0, nextShard) are
        merged). */
    std::size_t nextShard = 0;

    /** Index of the next wave (waves [0, wave) completed). */
    std::size_t wave = 0;

    /** Merge of the completed shards, in shard order. */
    Result merged;

    /** The stopping evaluation after the last completed wave. */
    StoppingStatus lastStatus;

    /** True once the engine has written the checkpoint. */
    bool valid() const { return budget > 0 && planShards > 0; }

    /** True when every shard of the plan is merged — resuming runs
        nothing and just re-delivers `merged`. */
    bool exhausted() const { return nextShard >= planShards; }

    /** One-line human-readable summary. */
    std::string str() const;
};

} // namespace runtime
} // namespace qra

#endif // QRA_RUNTIME_CHECKPOINT_HH
