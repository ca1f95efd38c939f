/**
 * @file
 * Adaptive wave-based execution: the determinism contract (waved
 * counts bit-identical to a single block), confidence-driven early
 * stopping, result streaming, and stopping-rule evaluation.
 */

#include <mutex>
#include <vector>

#include <gtest/gtest.h>

#include "assertions/entanglement_assertion.hh"
#include "common/error.hh"
#include "runtime/job_queue.hh"
#include "runtime/stopping.hh"

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

AssertionSpec
bellCheck()
{
    AssertionSpec check;
    check.assertion = std::make_shared<EntanglementAssertion>(2);
    check.targets = {0, 1};
    check.insertAt = 2;
    return check;
}

} // namespace

TEST(EvaluateStopping, WilsonNumbersAndConvergence)
{
    // Half the shots flag the check: an any-error rate of 0.5.
    const InstrumentedCircuit inst =
        instrument(bellCircuit(), {bellCheck()});
    Result r(inst.circuit().numClbits());
    r.record(0, 50);
    r.record(inst.assertionMask(), 50);

    StoppingRule rule;
    rule.targetHalfWidth = 0.2;
    const StoppingStatus status = evaluateStopping(rule, r, &inst);
    EXPECT_EQ(status.shotsDone, 100u);
    EXPECT_NEAR(status.estimate, 0.5, 1e-12);
    // Classic n=100, p=0.5 Wilson half-width ~ 9.5%.
    EXPECT_NEAR(status.halfWidth, 0.095, 0.01);
    EXPECT_TRUE(status.converged);

    // A minShots floor vetoes convergence.
    rule.minShots = 1000;
    EXPECT_FALSE(evaluateStopping(rule, r, &inst).converged);

    // str() mentions the shot progress.
    StoppingStatus s = status;
    s.wave = 2;
    s.shotsRequested = 400;
    EXPECT_NE(s.str().find("100/400"), std::string::npos);
}

TEST(EvaluateStopping, RuleWithoutInstrumentationThrows)
{
    Result r(2);
    r.record(0, 10);

    StoppingRule rule; // the any-error rate needs instrumentation
    rule.targetHalfWidth = 0.1;
    EXPECT_THROW(evaluateStopping(rule, r, nullptr), ValueError);
}

TEST(EarlyStopping, WavedCountsBitIdenticalToSingleBlock)
{
    // The acceptance contract: for a fixed seed, adaptive execution
    // that runs its whole budget produces bit-identical merged counts
    // to run() of the same total, at any thread/shard/wave setting.
    constexpr std::size_t kBudget = 2048;
    constexpr std::uint64_t kSeed = 77;

    for (const std::size_t shard_shots : {128u, 256u, 500u}) {
        ExecutionEngine reference_engine(EngineOptions{
            .threads = 2, .shardShots = shard_shots, .maxShards = 64});
        const Result reference = reference_engine.run(
            bellCircuit(), kBudget, "statevector", kSeed);

        for (const std::size_t threads : {1u, 4u}) {
            for (const std::size_t wave_shots :
                 {0u, 128u, 512u, 2048u}) {
                ExecutionEngine engine(EngineOptions{
                    .threads = threads,
                    .shardShots = shard_shots,
                    .maxShards = 64});
                Job job(bellCircuit(), kBudget, "statevector", kSeed);
                job.stopping.waveShots = wave_shots;
                // No convergence target: every wave runs.
                const Result waved = engine.run(job);
                EXPECT_EQ(waved.shots(), kBudget);
                EXPECT_FALSE(waved.stoppedEarly());
                EXPECT_EQ(waved.shotsRequested(), kBudget);
                EXPECT_EQ(waved.rawCounts(), reference.rawCounts())
                    << "shardShots " << shard_shots << ", threads "
                    << threads << ", waveShots " << wave_shots;
            }
        }
    }
}

TEST(EarlyStopping, NoisyBackendWavedCountsMatchSingleBlock)
{
    // Same contract on the trajectory backend (per-shot sampling).
    NoiseModel noise;
    noise.setGateError(OpKind::CX, 0.05);

    ExecutionEngine reference_engine(EngineOptions{
        .threads = 2, .shardShots = 128, .maxShards = 64});
    const Result reference = reference_engine.run(
        bellCircuit(), 1024, "trajectory", 13, &noise);

    ExecutionEngine engine(EngineOptions{
        .threads = 4, .shardShots = 128, .maxShards = 64});
    Job job(bellCircuit(), 1024, "trajectory", 13, &noise);
    job.stopping.waveShots = 256;
    const Result waved = engine.run(job);
    EXPECT_EQ(waved.rawCounts(), reference.rawCounts());
}

TEST(EarlyStopping, StopsEarlyOnTightDistribution)
{
    // Ideal Bell pair: the entanglement check never fires, so the
    // any-error estimate is pinned at 0 and its interval collapses
    // within a few hundred shots — far below the 8192 budget.
    ExecutionEngine engine(EngineOptions{
        .threads = 2, .shardShots = 256, .maxShards = 64});
    JobQueue queue(engine);

    JobSpec spec;
    spec.circuit = bellCircuit();
    spec.shots = 8192;
    spec.backend = "statevector";
    spec.seed = 5;
    spec.assertions = {bellCheck()};
    spec.stopping.targetHalfWidth = 0.02;
    spec.stopping.minShots = 256;
    spec.stopping.waveShots = 256;

    const Result result = queue.submit(spec).get();
    EXPECT_TRUE(result.stoppedEarly());
    EXPECT_LT(result.shots(), 8192u);
    EXPECT_GE(result.shots(), 256u);
    EXPECT_EQ(result.shotsRequested(), 8192u);

    // The early-stopped prefix equals a fixed run of the same total:
    // the budget's shard plan is uniform (8192 = 32 x 256), so the
    // executed shards are exactly shardPlan(result.shots()).
    const auto inst = queue.instrumented(spec);
    const Result fixed = engine.run(inst->circuit(), result.shots(),
                                    "statevector", 5);
    EXPECT_EQ(result.rawCounts(), fixed.rawCounts());
}

TEST(EarlyStopping, MinShotsFloorHoldsBackConvergence)
{
    ExecutionEngine engine(EngineOptions{
        .threads = 2, .shardShots = 256, .maxShards = 64});
    JobQueue queue(engine);

    JobSpec spec;
    spec.circuit = bellCircuit();
    spec.shots = 4096;
    spec.backend = "statevector";
    spec.seed = 5;
    spec.assertions = {bellCheck()};
    spec.stopping.targetHalfWidth = 0.2; // trivially loose
    spec.stopping.minShots = 1024;
    spec.stopping.waveShots = 256;

    const Result result = queue.submit(spec).get();
    // Convergence is immediate, but the floor forces 1024 shots.
    EXPECT_EQ(result.shots(), 1024u);
    EXPECT_TRUE(result.stoppedEarly());
}

TEST(EarlyStopping, ProgressStreamsOncePerWave)
{
    ExecutionEngine engine(EngineOptions{
        .threads = 4, .shardShots = 128, .maxShards = 64});
    Job job(bellCircuit(), 1024, "statevector", 9);
    job.stopping.waveShots = 256; // disabled rule: all waves run

    std::mutex mutex;
    std::vector<StoppingStatus> statuses;
    const Result final_result = engine.run(
        job, [&](const Result &partial, const StoppingStatus &status) {
            std::lock_guard<std::mutex> lock(mutex);
            EXPECT_EQ(partial.shots(), status.shotsDone);
            statuses.push_back(status);
        });

    ASSERT_EQ(statuses.size(), 4u); // 1024 shots / 256-shot waves
    for (std::size_t i = 0; i < statuses.size(); ++i) {
        EXPECT_EQ(statuses[i].wave, i + 1);
        EXPECT_EQ(statuses[i].shotsDone, 256 * (i + 1));
        EXPECT_EQ(statuses[i].shotsRequested, 1024u);
        EXPECT_EQ(statuses[i].finished, i + 1 == statuses.size());
    }
    EXPECT_EQ(final_result.shots(), 1024u);
    EXPECT_FALSE(final_result.stoppedEarly());

    // Streamed delivery is deterministic too: identical counts to
    // the queue's future for the same spec.
    JobQueue queue(engine);
    JobSpec spec;
    spec.circuit = bellCircuit();
    spec.shots = 1024;
    spec.backend = "statevector";
    spec.seed = 9;
    spec.stopping.waveShots = 256;
    EXPECT_EQ(final_result.rawCounts(),
              queue.submit(spec).get().rawCounts());
}

TEST(EarlyStopping, AdaptiveSubmitRejectsBadRulesSynchronously)
{
    ExecutionEngine engine(EngineOptions{.threads = 2});
    JobQueue queue(engine);

    // Any-error rule without assertions: nothing to watch.
    JobSpec spec;
    spec.circuit = bellCircuit();
    spec.shots = 512;
    spec.backend = "statevector";
    spec.stopping.targetHalfWidth = 0.05;
    EXPECT_THROW(queue.submit(spec).get(), ValueError);
}
