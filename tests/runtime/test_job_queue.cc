/**
 * @file
 * JobQueue: batch submission, preparation caching keyed by circuit
 * hash, and the assertion/transpile prepare pipeline.
 */

#include <chrono>
#include <thread>

#include <gtest/gtest.h>

#include "assertions/entanglement_assertion.hh"
#include "common/error.hh"
#include "noise/device_model.hh"
#include "obs/metrics.hh"
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

/** The queue's artifact-cache (PlanCache) counters. */
kernels::PlanCache::Stats
artifactStats(const JobQueue &queue)
{
    return queue.artifactCache()->stats();
}

JobSpec
bellSpec(std::uint64_t seed = 7)
{
    JobSpec spec;
    spec.circuit = bellCircuit();
    spec.shots = 512;
    spec.backend = "statevector";
    spec.seed = seed;
    return spec;
}

} // namespace

TEST(CircuitHash, SemanticInvariants)
{
    const Circuit a = bellCircuit();
    Circuit b = bellCircuit();
    b.setName("renamed"); // names are cosmetic
    EXPECT_EQ(a.hash(), b.hash());

    Circuit c = bellCircuit();
    c.x(0); // trailing gate changes semantics
    EXPECT_NE(a.hash(), c.hash());

    Circuit d(2, 2);
    d.h(1).cx(1, 0).measureAll(); // same ops, different wires
    EXPECT_NE(a.hash(), d.hash());

    Circuit e(2, 2);
    e.rx(0.5, 0);
    Circuit f(2, 2);
    f.rx(0.25, 0); // parameters participate
    EXPECT_NE(e.hash(), f.hash());
}

TEST(JobQueue, RepeatedSubmissionHitsPrepareCache)
{
    ExecutionEngine engine(EngineOptions{.threads = 2});
    JobQueue queue(engine);

    const DeviceModel device = DeviceModel::ibmqx4();
    JobSpec spec;
    spec.circuit = bellCircuit();
    spec.shots = 256;
    spec.backend = "statevector";
    spec.coupling = &device.couplingMap();

    std::vector<std::future<Result>> futures;
    for (std::uint64_t seed = 0; seed < 6; ++seed) {
        spec.seed = seed;
        futures.push_back(queue.submit(spec));
    }
    for (auto &future : futures)
        EXPECT_EQ(future.get().shots(), 256u);

    // Seeds and shots are not part of the prepare key: one miss,
    // then five hits on the transpiled circuit.
    EXPECT_EQ(queue.cacheMisses(), 1u);
    EXPECT_EQ(queue.cacheHits(), 5u);
}

TEST(JobQueue, DistinctCircuitsMissSeparately)
{
    ExecutionEngine engine(EngineOptions{.threads = 2});
    JobQueue queue(engine);

    JobSpec bell = bellSpec();
    JobSpec flipped = bellSpec();
    flipped.circuit = Circuit(2, 2);
    flipped.circuit.h(1).cx(1, 0).measureAll();

    queue.submit(bell).get();
    queue.submit(flipped).get();
    queue.submit(bell).get();
    EXPECT_EQ(queue.cacheMisses(), 2u);
    EXPECT_EQ(queue.cacheHits(), 1u);
}

TEST(JobQueue, PrepareCacheEvictsTheOldestSpecPastItsBound)
{
    // One spec more than the bound evicts the first; resubmitting it
    // prepares it again and reproduces its counts.
    ExecutionEngine engine(EngineOptions{.threads = 2});
    JobQueue queue(engine);
    auto spec_for = [](std::size_t i) {
        JobSpec spec = bellSpec();
        spec.circuit = Circuit(2, 2);
        spec.circuit.rx(0.001 * static_cast<double>(i + 1), 0)
            .cx(0, 1)
            .measureAll();
        spec.shots = 64;
        return spec;
    };
    const char *evictions = "jobqueue.prepare_cache.evictions";
    auto &registry = obs::MetricsRegistry::global();
    const std::uint64_t before = registry.snapshot().counters[evictions];

    obs::setMetricsEnabled(true);
    const Result first = queue.submit(spec_for(0)).get();
    for (std::size_t i = 1; i <= Memo<int>::kMaxEntries; ++i)
        queue.submit(spec_for(i)).get();
    const std::uint64_t bound_evictions =
        registry.snapshot().counters[evictions] - before;
    const Result again = queue.submit(spec_for(0)).get();
    obs::setMetricsEnabled(false);

    EXPECT_EQ(bound_evictions, 1u);
    EXPECT_FALSE(again.execStats().prepareCacheHit);
    EXPECT_EQ(queue.cacheHits(), 0u);
    EXPECT_EQ(queue.cacheMisses(), Memo<int>::kMaxEntries + 2);
    EXPECT_EQ(again.rawCounts(), first.rawCounts());
}

TEST(JobQueue, RunAllPreservesOrderAndSeeds)
{
    ExecutionEngine engine(EngineOptions{
        .threads = 4, .shardShots = 64, .maxShards = 16});
    JobQueue queue(engine);

    std::vector<JobSpec> specs;
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
        JobSpec spec = bellSpec(seed);
        spec.shots = 128 + 16 * seed;
        specs.push_back(spec);
    }
    const std::vector<Result> results = queue.runAll(specs);
    ASSERT_EQ(results.size(), specs.size());
    for (std::size_t i = 0; i < results.size(); ++i)
        EXPECT_EQ(results[i].shots(), specs[i].shots);

    // Re-running a spec reproduces its counts exactly.
    const Result again = queue.submit(specs[3]).get();
    EXPECT_EQ(again.rawCounts(), results[3].rawCounts());
}

TEST(JobQueue, SamplingCacheSkipsRepeatedArtifactBuilds)
{
    ExecutionEngine engine(EngineOptions{.threads = 2});
    JobQueue queue(engine);

    // First sampled job builds the plan and the sampled distribution
    // (two misses); the repeat hits the distribution directly.
    const Result first = queue.submit(bellSpec(7)).get();
    EXPECT_EQ(artifactStats(queue).misses, 2u);
    EXPECT_EQ(artifactStats(queue).hits, 0u);

    const Result second = queue.submit(bellSpec(7)).get();
    EXPECT_EQ(artifactStats(queue).misses, 2u);
    EXPECT_EQ(artifactStats(queue).hits, 1u);

    // Cache hits change nothing observable: same seed, same counts.
    EXPECT_EQ(first.rawCounts(), second.rawCounts());

    // And a cold queue builds both again and produces those counts
    // too: caching is purely an execution shortcut.
    JobQueue cold(engine);
    EXPECT_EQ(cold.submit(bellSpec(7)).get().rawCounts(),
              first.rawCounts());
    EXPECT_EQ(artifactStats(cold).misses, 2u);
}

TEST(JobQueue, SamplingCacheShardsShareOneBuild)
{
    // Many shards of one sampled job on a single worker (so shards
    // serialize and the counters are deterministic): exactly one
    // distribution build plus one plan build, every other shard a
    // hit. With more workers, racing shards may build private copies
    // instead of blocking — results are identical either way.
    ExecutionEngine engine(EngineOptions{
        .threads = 1, .shardShots = 64, .maxShards = 8});
    JobQueue queue(engine);
    JobSpec spec = bellSpec(3);
    spec.shots = 512; // 8 shards
    queue.submit(spec).get();
    EXPECT_EQ(artifactStats(queue).misses, 2u);
    EXPECT_EQ(artifactStats(queue).hits, 7u);
}

TEST(JobQueue, SamplingCacheKeysTrajectoryPlansByNoise)
{
    ExecutionEngine engine(EngineOptions{.threads = 2});
    JobQueue queue(engine);

    NoiseModel noise;
    noise.setGateError(OpKind::CX, 0.05);
    const NoiseModel doubled = noise.scaled(2.0);

    JobSpec spec = bellSpec(11);
    spec.backend = "trajectory";
    spec.noise = &noise;
    queue.submit(spec).get();
    queue.submit(spec).get();
    // One trajectory-plan build, one hit.
    EXPECT_EQ(artifactStats(queue).misses, 1u);
    EXPECT_EQ(artifactStats(queue).hits, 1u);

    // A semantically different model may not share the plan.
    spec.noise = &doubled;
    queue.submit(spec).get();
    EXPECT_EQ(artifactStats(queue).misses, 2u);
}

TEST(JobQueue, SamplingCacheKeysDensityDistributionsByNoise)
{
    ExecutionEngine engine(EngineOptions{.threads = 2});
    JobQueue queue(engine);

    NoiseModel noise;
    noise.setGateError(OpKind::CX, 0.05);
    noise.setReadoutError(0, ReadoutError(0.02, 0.04));
    const NoiseModel doubled = noise.scaled(2.0);
    NoiseModel reread = noise;
    reread.setReadoutError(0, ReadoutError(0.03, 0.04));

    JobSpec spec = bellSpec(11);
    spec.backend = "density";
    spec.noise = &noise;
    // A miss builds the distribution, compiling its plan on the way
    // without caching it: one miss.
    const Result first = queue.submit(spec).get();
    EXPECT_EQ(artifactStats(queue).misses, 1u);
    EXPECT_EQ(artifactStats(queue).hits, 0u);
    // A repeat samples the cached distribution: one hit, same counts.
    const Result second = queue.submit(spec).get();
    EXPECT_EQ(artifactStats(queue).misses, 1u);
    EXPECT_EQ(artifactStats(queue).hits, 1u);
    EXPECT_EQ(second.rawCounts(), first.rawCounts());
    EXPECT_EQ(second.exactDistribution(), first.exactDistribution());

    // A scaled model, and one that differs only in readout error,
    // which the plan never sees but the distribution folds in.
    spec.noise = &doubled;
    queue.submit(spec).get();
    EXPECT_EQ(artifactStats(queue).misses, 2u);
    spec.noise = &reread;
    const Result readout = queue.submit(spec).get();
    EXPECT_EQ(artifactStats(queue).misses, 3u);
    EXPECT_EQ(artifactStats(queue).hits, 1u);
    EXPECT_NE(readout.exactDistribution(), first.exactDistribution());

    // A cold queue reproduces the cached counts.
    spec.noise = &noise;
    JobQueue cold(engine);
    EXPECT_EQ(cold.submit(spec).get().rawCounts(), first.rawCounts());
}

TEST(JobQueue, AssertionKeyingIsSemantic)
{
    ExecutionEngine engine(EngineOptions{.threads = 2});
    JobQueue queue(engine);

    auto make_spec = [](std::size_t repetitions) {
        JobSpec spec;
        spec.circuit = bellCircuit();
        spec.shots = 128;
        spec.backend = "statevector";
        AssertionSpec check;
        // A fresh assertion object per call: keying must look
        // through the pointer at the semantics.
        check.assertion = std::make_shared<EntanglementAssertion>(2);
        check.targets = {0, 1};
        check.insertAt = 2;
        check.repetitions = repetitions;
        spec.assertions = {check};
        return spec;
    };

    queue.submit(make_spec(1)).get();
    queue.submit(make_spec(1)).get();
    // Semantically identical resubmission with a distinct assertion
    // object hits the cache.
    EXPECT_EQ(queue.cacheMisses(), 1u);
    EXPECT_EQ(queue.cacheHits(), 1u);

    // Any semantic change (here: repetitions) misses.
    queue.submit(make_spec(3)).get();
    EXPECT_EQ(queue.cacheMisses(), 2u);
}

TEST(JobQueue, InstrumentOptionsParticipateInPrepareKey)
{
    ExecutionEngine engine(EngineOptions{.threads = 2});
    JobQueue queue(engine);

    JobSpec spec = bellSpec();
    AssertionSpec check;
    check.assertion = std::make_shared<EntanglementAssertion>(2);
    check.targets = {0, 1};
    check.insertAt = 2;
    check.repetitions = 2;
    spec.assertions = {check};

    queue.submit(spec).get();
    spec.instrumentOptions.barriers = false;
    queue.submit(spec).get();
    // Two distinct preparations: the options change the woven
    // circuit, so they may not alias one prepared entry.
    EXPECT_EQ(queue.cacheMisses(), 2u);
    EXPECT_EQ(queue.cacheHits(), 0u);

    // Without assertions the options are inert and must not
    // fragment the cache.
    JobQueue plain_queue(engine);
    JobSpec plain = bellSpec();
    plain_queue.submit(plain).get();
    plain.instrumentOptions.reuseAncillas = true;
    plain_queue.submit(plain).get();
    EXPECT_EQ(plain_queue.cacheMisses(), 1u);
    EXPECT_EQ(plain_queue.cacheHits(), 1u);
}

TEST(JobQueue, InjectionStrategyParticipatesInPrepareKey)
{
    ExecutionEngine engine(EngineOptions{.threads = 2});
    JobQueue queue(engine);
    const DeviceModel device = DeviceModel::ibmqx4();

    JobSpec spec = bellSpec();
    spec.coupling = &device.couplingMap();
    AssertionSpec check;
    check.assertion = std::make_shared<EntanglementAssertion>(2);
    check.targets = {0, 1};
    check.insertAt = 2;
    spec.assertions = {check};

    queue.submit(spec).get();
    spec.injection = compile::InjectionStrategy::AutoGenerate;
    queue.submit(spec).get();
    EXPECT_EQ(queue.cacheMisses(), 2u);
    queue.submit(spec).get();
    EXPECT_EQ(queue.cacheHits(), 1u);
}

TEST(JobQueue, SubmitRejectsUnknownBackendSynchronously)
{
    ExecutionEngine engine(EngineOptions{.threads = 2});
    JobQueue queue(engine);
    JobSpec spec = bellSpec();
    spec.backend = "no-such-backend";
    EXPECT_THROW(queue.submit(spec), Error);
}

TEST(JobQueue, RunAllWaitsForDispatchedJobsBeforeRethrowing)
{
    // Spec 1 fails at dispatch while spec 0 is still stalling in its
    // shard: runAll rethrows only after spec 0 has finished, so its
    // checkpoint is written (and its noise model, had it one, is no
    // longer read) by the time the caller sees the error.
    ExecutionEngine engine(EngineOptions{.threads = 2});
    JobQueue queue(engine);
    std::vector<JobSpec> specs(2, bellSpec());
    specs[0].faults = std::make_shared<const FaultPlan>(
        FaultPlan::parse("shard:0:stall,stall-ms:200"));
    specs[0].checkpoint = std::make_shared<JobCheckpoint>();
    specs[1].backend = "no-such-backend";
    EXPECT_THROW(queue.runAll(specs), Error);
    EXPECT_TRUE(specs[0].checkpoint->valid());
}

TEST(JobQueue, AssertionInjectionFlowsThroughQueue)
{
    ExecutionEngine engine(EngineOptions{.threads = 2});
    JobQueue queue(engine);

    JobSpec spec;
    spec.circuit = Circuit(2, 2, "bell");
    spec.circuit.h(0).cx(0, 1).measureAll();
    spec.shots = 1024;
    spec.backend = "statevector";

    AssertionSpec check;
    check.assertion = std::make_shared<EntanglementAssertion>(2);
    check.targets = {0, 1};
    check.insertAt = 2;
    spec.assertions = {check};

    const Result result = queue.submit(spec).get();
    const auto inst = queue.instrumented(spec);
    ASSERT_NE(inst, nullptr);
    // Prepared once by submit(); the instrumented() lookup is
    // introspection and does not move the hit/miss counters.
    EXPECT_EQ(queue.cacheMisses(), 1u);
    EXPECT_EQ(queue.cacheHits(), 0u);

    const AssertionReport report = analyze(*inst, result);
    EXPECT_NEAR(report.anyErrorRate, 0.0, 1e-12);

    // Specs without assertions expose no instrumented circuit.
    EXPECT_EQ(queue.instrumented(bellSpec()), nullptr);

    // The cache keeps the instrumented circuit as long as the entry
    // lives: with or without a device, it holds no unused slots.
    const DeviceModel device = DeviceModel::ibmqx4();
    for (const CouplingMap *coupling :
         {static_cast<const CouplingMap *>(nullptr),
          &device.couplingMap()}) {
        spec.coupling = coupling;
        const Circuit &woven = queue.instrumented(spec)->circuit();
        EXPECT_EQ(woven.ops().capacity(), woven.size());
    }
}

TEST(JobQueue, FutureStatsMeasureCompletionNotConsumption)
{
    // The future API stamps its stats when the job completes, not when
    // the consumer gets around to get(): a consumer that idles after
    // submitting must not inflate engineSeconds or the latency
    // histogram.
    using namespace std::chrono_literals;
    constexpr auto kIdle = 300ms;
    const char *histogram = "jobqueue.submit_to_complete_ns";
    ExecutionEngine engine(EngineOptions{.threads = 2});
    JobQueue queue(engine);
    auto &registry = obs::MetricsRegistry::global();
    const obs::HistogramSnapshot before =
        registry.snapshot().histograms[histogram];

    obs::setMetricsEnabled(true);
    std::future<Result> future = queue.submit(bellSpec());
    std::this_thread::sleep_for(kIdle);
    const Result result = future.get();
    obs::setMetricsEnabled(false);
    const obs::HistogramSnapshot after =
        registry.snapshot().histograms[histogram];

    EXPECT_EQ(result.shots(), 512u);
    EXPECT_LT(result.execStats().engineSeconds,
              std::chrono::duration<double>(kIdle).count());
    ASSERT_EQ(after.count, before.count + 1);
    EXPECT_LT(after.sum - before.sum,
              static_cast<std::uint64_t>(
                  std::chrono::nanoseconds(kIdle).count()));
}
