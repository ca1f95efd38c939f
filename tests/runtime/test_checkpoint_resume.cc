/**
 * @file
 * Checkpoint/resume: a cancelled (or failed) adaptive job resumed
 * from its JobCheckpoint replays exactly the shards an uninterrupted
 * run would have executed — bit-identical counts, never more total
 * shots — across thread counts and wave sizes. Plus the validation
 * that refuses checkpoints from a different job.
 */

#include <gtest/gtest.h>

#include "assertions/entanglement_assertion.hh"
#include "common/error.hh"
#include "runtime/execution_engine.hh"
#include "runtime/fault.hh"
#include "runtime/job_queue.hh"

using namespace qra;
using namespace qra::runtime;

namespace {

Circuit
bellCircuit()
{
    Circuit c(2, 2, "bell");
    c.h(0).cx(0, 1).measureAll();
    return c;
}

EngineOptions
eightShardOptions(std::size_t threads)
{
    EngineOptions options;
    options.threads = threads;
    options.shardShots = 256;
    return options;
}

/** Run adaptively, cancelling via the wave-1 progress callback, and
    return the written checkpoint. Cancellation is polled at wave
    boundaries and wave 2 is already in flight when the wave-1
    callback runs, so exactly two waves' worth of shots complete. */
std::shared_ptr<JobCheckpoint>
cancelAtFirstWave(ExecutionEngine &engine, Job job)
{
    job.checkpoint = std::make_shared<JobCheckpoint>();
    const CancelToken token = job.cancel;
    const Result partial = engine.run(
        job, [&](const Result &, const StoppingStatus &status) {
            if (status.wave == 1)
                token.cancel();
        });
    EXPECT_TRUE(partial.cancelled());
    EXPECT_EQ(partial.shots(),
              std::min<std::size_t>(2 * job.stopping.waveShots,
                                    job.shots));
    return job.checkpoint;
}

} // namespace

TEST(CheckpointResume, CancelledThenResumedEqualsUninterrupted)
{
    // The satellite contract: cancel at a wave boundary, resume from
    // the checkpoint, and the final counts are bit-identical to an
    // uninterrupted run of the full budget — at 1 and 4 threads,
    // across wave sizes.
    for (const std::size_t threads : {1u, 4u}) {
        for (const std::size_t wave_shots : {256u, 512u, 1024u}) {
            ExecutionEngine engine(eightShardOptions(threads));
            const Result uninterrupted =
                engine.run(Job(bellCircuit(), 2048));

            Job job(bellCircuit(), 2048);
            job.stopping.waveShots = wave_shots;
            const std::shared_ptr<JobCheckpoint> ck =
                cancelAtFirstWave(engine, job);
            ASSERT_TRUE(ck->valid());
            // Two 1024-shot waves already cover the 2048 budget, so
            // that checkpoint is exhausted; the smaller waves leave a
            // genuine remainder to resume.
            EXPECT_EQ(ck->exhausted(), 2 * wave_shots >= 2048u);
            EXPECT_NE(ck->str().find("checkpoint("),
                      std::string::npos);

            Job resume(bellCircuit(), 2048);
            resume.stopping.waveShots = wave_shots;
            resume.resumeFrom = ck;
            const Result resumed = engine.run(resume);

            EXPECT_EQ(resumed.rawCounts(),
                      uninterrupted.rawCounts());
            EXPECT_EQ(resumed.shots(), 2048u);
            EXPECT_FALSE(resumed.cancelled());
            EXPECT_EQ(resumed.execStats().resumedShots,
                      ck->merged.shots());
        }
    }
}

TEST(CheckpointResume, TighterTargetUsesNoMoreShotsThanDirect)
{
    // Converge at a loose half-width, then resume the checkpoint with
    // a tighter target: the resumed job reaches it using exactly the
    // shots a from-scratch run with the tight target takes — resumed
    // shots are adopted, not re-executed. An entanglement check on
    // the product state |+>|0> flags half the shots; an error rate
    // near 0.5 is the slowest-converging estimate, so the loose and
    // tight targets trip at well-separated wave boundaries.
    Circuit payload(2, 2, "plus_zero");
    payload.h(0).measureAll();
    AssertionSpec check;
    check.assertion = std::make_shared<EntanglementAssertion>(2);
    check.targets = {0, 1};
    check.insertAt = 1;
    const auto inst = std::make_shared<const InstrumentedCircuit>(
        instrument(payload, {check}));
    auto make_job = [&](double half_width) {
        Job job(inst->circuit(), 8192);
        job.instrumented = inst;
        job.stopping.targetHalfWidth = half_width;
        job.stopping.waveShots = 256;
        return job;
    };

    EngineOptions options;
    options.threads = 1;
    options.shardShots = 256;
    options.maxShards = 64;
    ExecutionEngine engine(options);

    const Result direct = engine.run(make_job(0.04));
    EXPECT_TRUE(direct.stoppedEarly());

    Job loose = make_job(0.08);
    loose.checkpoint = std::make_shared<JobCheckpoint>();
    const Result first = engine.run(loose);
    EXPECT_TRUE(first.stoppedEarly());
    ASSERT_TRUE(loose.checkpoint->valid());
    EXPECT_LT(loose.checkpoint->merged.shots(), direct.shots());

    Job tight = make_job(0.04);
    tight.resumeFrom = loose.checkpoint;
    const Result resumed = engine.run(tight);

    // Same wave boundaries → the tight target trips at the same
    // cumulative shot count, and the merged counts match exactly.
    EXPECT_LE(resumed.shots(), direct.shots());
    EXPECT_EQ(resumed.rawCounts(), direct.rawCounts());
    EXPECT_EQ(resumed.execStats().resumedShots,
              loose.checkpoint->merged.shots());
}

TEST(CheckpointResume, WaveFailureRewindsCursor)
{
    // A wave epilogue failure discards that wave's parts; the
    // checkpoint cursor rewinds to the wave's first shard so a
    // resume re-runs the lost shots and still matches end to end.
    ExecutionEngine engine(eightShardOptions(1));
    const Result uninterrupted = engine.run(Job(bellCircuit(), 2048));

    Job job(bellCircuit(), 2048);
    job.stopping.waveShots = 512; // two shards per wave
    job.checkpoint = std::make_shared<JobCheckpoint>();
    job.faults = std::make_shared<const FaultPlan>(
        FaultPlan::parse("wave:1:throw"));
    EXPECT_THROW(engine.run(job), TransientSimulationError);

    const JobCheckpoint &ck = *job.checkpoint;
    ASSERT_TRUE(ck.valid());
    EXPECT_EQ(ck.nextShard, 2u); // wave 1's first shard, not 4
    EXPECT_EQ(ck.merged.shots(), 512u);

    // The transient condition cleared (no fault plan on the resume).
    Job resume(bellCircuit(), 2048);
    resume.stopping.waveShots = 512;
    resume.resumeFrom = job.checkpoint;
    const Result resumed = engine.run(resume);
    EXPECT_EQ(resumed.rawCounts(), uninterrupted.rawCounts());
    EXPECT_EQ(resumed.shots(), 2048u);
}

TEST(CheckpointResume, ExhaustedCheckpointJustRedelivers)
{
    ExecutionEngine engine(eightShardOptions(1));
    Job job(bellCircuit(), 2048);
    job.checkpoint = std::make_shared<JobCheckpoint>();
    const Result full = engine.run(job);
    ASSERT_TRUE(job.checkpoint->valid());
    EXPECT_TRUE(job.checkpoint->exhausted());

    Job resume(bellCircuit(), 2048);
    resume.resumeFrom = job.checkpoint;
    const Result redelivered = engine.run(resume);
    EXPECT_EQ(redelivered.rawCounts(), full.rawCounts());
    EXPECT_EQ(redelivered.shots(), 2048u);
    EXPECT_EQ(redelivered.execStats().resumedShots, 2048u);
}

TEST(CheckpointResume, MismatchedCheckpointsAreRefused)
{
    ExecutionEngine engine(eightShardOptions(1));
    Job job(bellCircuit(), 2048);
    job.stopping.waveShots = 256;
    const std::shared_ptr<JobCheckpoint> ck =
        cancelAtFirstWave(engine, job);

    // Never-written checkpoint.
    Job invalid(bellCircuit(), 2048);
    invalid.resumeFrom = std::make_shared<JobCheckpoint>();
    EXPECT_THROW(engine.run(invalid), ValueError);

    // Different seed.
    Job wrong_seed(bellCircuit(), 2048);
    wrong_seed.seed = 12345;
    wrong_seed.resumeFrom = ck;
    EXPECT_THROW(engine.run(wrong_seed), ValueError);

    // Different budget.
    Job wrong_budget(bellCircuit(), 4096);
    wrong_budget.resumeFrom = ck;
    EXPECT_THROW(engine.run(wrong_budget), ValueError);

    // Different circuit.
    Circuit ghz(3, 3, "ghz");
    ghz.h(0).cx(0, 1).cx(1, 2).measureAll();
    Job wrong_circuit(ghz, 2048);
    wrong_circuit.resumeFrom = ck;
    EXPECT_THROW(engine.run(wrong_circuit), ValueError);

    // Different shard decomposition (engine options).
    EngineOptions coarse;
    coarse.threads = 1;
    coarse.shardShots = 1024;
    ExecutionEngine coarse_engine(coarse);
    Job wrong_plan(bellCircuit(), 2048);
    wrong_plan.resumeFrom = ck;
    EXPECT_THROW(coarse_engine.run(wrong_plan), ValueError);
}

TEST(CheckpointResume, JobQueueRoutesCheckpointSpecs)
{
    // JobSpec-level wiring: a checkpoint sink routes through the wave
    // engine even without a stopping rule, and a resume spec picks up
    // where the cancelled submission stopped.
    ExecutionEngine engine(eightShardOptions(1));
    JobQueue queue(engine);

    JobSpec spec;
    spec.circuit = bellCircuit();
    spec.shots = 2048;
    spec.stopping.waveShots = 256;
    spec.checkpoint = std::make_shared<JobCheckpoint>();
    const CancelToken token = spec.cancel;

    std::size_t waves = 0;
    Result partial;
    std::exception_ptr error;
    queue.submit(
        spec,
        [&](const Result &, const StoppingStatus &) {
            if (++waves == 1)
                token.cancel();
        },
        [&](Result result, std::exception_ptr e) {
            partial = std::move(result);
            error = e;
        });
    queue.waitIdle();
    ASSERT_FALSE(error);
    EXPECT_TRUE(partial.cancelled());
    ASSERT_TRUE(spec.checkpoint->valid());

    JobSpec resume = spec;
    resume.cancel = CancelToken();
    resume.checkpoint = nullptr;
    resume.resumeFrom = spec.checkpoint;
    const Result resumed = queue.submit(resume).get();
    EXPECT_EQ(resumed.shots(), 2048u);

    // Reference through the queue too, so both runs execute the same
    // prepared circuit.
    JobSpec fresh = spec;
    fresh.cancel = CancelToken();
    fresh.checkpoint = nullptr;
    const Result reference = queue.submit(fresh).get();
    EXPECT_EQ(resumed.rawCounts(), reference.rawCounts());
}
