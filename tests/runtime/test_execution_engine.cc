/**
 * @file
 * ExecutionEngine: deterministic sharded execution. The load-bearing
 * property: for a fixed seed, merged counts are bit-identical at any
 * thread count, on every backend.
 */

#include <bit>
#include <functional>
#include <future>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "assertions/entanglement_assertion.hh"
#include "common/error.hh"
#include "common/hash.hh"
#include "library/algorithms.hh"
#include "noise/device_model.hh"
#include "runtime/execution_engine.hh"
#include "runtime/job_queue.hh"
#include "sim/density_simulator.hh"
#include "stats/chi_square.hh"
#include "testutil.hh"

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

/** Run the same job at several thread counts; expect equal counts. */
void
expectThreadCountInvariance(const Circuit &circuit,
                            const std::string &backend,
                            const NoiseModel *noise = nullptr)
{
    constexpr std::size_t kShots = 2048;
    constexpr std::uint64_t kSeed = 99;
    // Small shards force multi-shard plans even at modest shot counts.
    std::map<std::uint64_t, std::size_t> reference;
    for (const std::size_t threads : {1u, 2u, 8u}) {
        ExecutionEngine engine(EngineOptions{
            .threads = threads, .shardShots = 256, .maxShards = 64});
        const Result result =
            engine.run(circuit, kShots, backend, kSeed, noise);
        EXPECT_EQ(result.shots(), kShots);
        if (reference.empty())
            reference = result.rawCounts();
        else
            EXPECT_EQ(result.rawCounts(), reference)
                << backend << " counts changed at " << threads
                << " threads";
    }
    ASSERT_FALSE(reference.empty());
}

} // namespace

TEST(ExecutionEngine, ShardPlanIsThreadIndependentAndSeedSplit)
{
    ExecutionEngine one(EngineOptions{
        .threads = 1, .shardShots = 100, .maxShards = 64});
    ExecutionEngine many(EngineOptions{
        .threads = 8, .shardShots = 100, .maxShards = 64});
    const BackendPtr backend =
        BackendRegistry::global().create("statevector");

    const auto plan_one = one.shardPlan(1000, 42, *backend);
    const auto plan_many = many.shardPlan(1000, 42, *backend);
    ASSERT_EQ(plan_one.size(), 10u);
    ASSERT_EQ(plan_many.size(), 10u);

    std::size_t total = 0;
    for (std::size_t i = 0; i < plan_one.size(); ++i) {
        EXPECT_EQ(plan_one[i].shots, plan_many[i].shots);
        EXPECT_EQ(plan_one[i].seed, plan_many[i].seed);
        total += plan_one[i].shots;
        for (std::size_t j = 0; j < i; ++j)
            EXPECT_NE(plan_one[i].seed, plan_one[j].seed)
                << "shard seeds must be distinct";
    }
    EXPECT_EQ(total, 1000u);
}

TEST(ExecutionEngine, ShardPlanRespectsMaxShards)
{
    ExecutionEngine engine(EngineOptions{
        .threads = 1, .shardShots = 1, .maxShards = 8});
    const BackendPtr backend =
        BackendRegistry::global().create("statevector");
    EXPECT_EQ(engine.shardPlan(100000, 1, *backend).size(), 8u);
}

TEST(ExecutionEngine, UnshardableBackendGetsSingleShard)
{
    ExecutionEngine engine(EngineOptions{
        .threads = 4, .shardShots = 16, .maxShards = 64});
    const BackendPtr density =
        BackendRegistry::global().create("density");
    EXPECT_EQ(engine.shardPlan(10000, 1, *density).size(), 1u);
}

TEST(ExecutionEngine, DeterministicAcrossThreads_Statevector)
{
    expectThreadCountInvariance(bellCircuit(), "statevector");
}

TEST(ExecutionEngine, DeterministicAcrossThreads_Density)
{
    const DeviceModel device = DeviceModel::ibmqx4();
    Circuit bell(5, 2, "bell");
    bell.h(1).cx(1, 0).measure(1, 0).measure(0, 1);
    expectThreadCountInvariance(bell, "density",
                                &device.noiseModel());
}

TEST(ExecutionEngine, DeterministicAcrossThreads_Trajectory)
{
    const DeviceModel device = DeviceModel::ibmqx4();
    Circuit bell(5, 2, "bell");
    bell.h(1).cx(1, 0).measure(1, 0).measure(0, 1);
    expectThreadCountInvariance(bell, "trajectory",
                                &device.noiseModel());
}

TEST(ExecutionEngine, DeterministicAcrossThreads_Stabilizer)
{
    Circuit ghz = library::ghzState(12);
    ghz.addClbits(12);
    ghz.measureAll();
    expectThreadCountInvariance(ghz, "stabilizer");
}

TEST(ExecutionEngine, AutoBackendRoutesThroughRegistry)
{
    ExecutionEngine engine(EngineOptions{.threads = 2});
    const Result result = engine.run(bellCircuit(), 512, "auto", 3);
    EXPECT_EQ(result.shots(), 512u);
    // A Bell pair only ever reads 00 or 11 on an ideal backend.
    EXPECT_EQ(result.count(std::uint64_t{0}) + result.count(3), 512u);
}

TEST(ExecutionEngine, ConcurrentRunsShareThePool)
{
    ExecutionEngine engine(EngineOptions{
        .threads = 4, .shardShots = 64, .maxShards = 64});
    std::vector<std::future<Result>> futures;
    for (int i = 0; i < 8; ++i)
        futures.push_back(std::async(std::launch::async, [&engine, i]() {
            return engine.run(Job(bellCircuit(), 256, "statevector",
                                  static_cast<std::uint64_t>(i)));
        }));
    std::size_t total = 0;
    for (auto &future : futures)
        total += future.get().shots();
    EXPECT_EQ(total, 8u * 256u);
}

TEST(ExecutionEngine, MergesRetainedFractionAcrossShards)
{
    // Post-select half the amplitude away: retained fraction ~0.5,
    // and it must survive shard merging as a weighted average.
    Circuit c(1, 1, "postselect");
    c.h(0).postSelect(0, 1).measure(0, 0);
    ExecutionEngine engine(EngineOptions{
        .threads = 4, .shardShots = 128, .maxShards = 64});
    const Result result = engine.run(c, 1024, "statevector", 5);
    EXPECT_NEAR(result.retainedFraction(), 0.5, 0.1);
    EXPECT_EQ(result.count(std::uint64_t{1}), result.shots());
}

TEST(ExecutionEngine, JobWithoutCircuitThrows)
{
    ExecutionEngine engine(EngineOptions{.threads = 1});
    EXPECT_THROW(engine.run(Job{}), ValueError);
}

TEST(ResultMerge, PoolsRetentionByAttemptedShots)
{
    // 100 kept of 100 attempted pooled with 100 kept of 400
    // attempted: true retention is 200/500, not the kept-weighted
    // mean 0.625.
    Result a(1);
    a.record(0, 100);
    a.setRetainedFraction(1.0);
    Result b(1);
    b.record(1, 100);
    b.setRetainedFraction(0.25);
    a.merge(b);
    EXPECT_NEAR(a.retainedFraction(), 0.4, 1e-12);
    EXPECT_EQ(a.shots(), 200u);
}

TEST(ExecutionEngine, UnsupportedCircuitThrowsWithReason)
{
    ExecutionEngine engine(EngineOptions{.threads = 1});
    Circuit t_gate(1, 1);
    t_gate.t(0).measure(0, 0);
    EXPECT_THROW(engine.run(t_gate, 16, "stabilizer", 1),
                 SimulationError);
    EXPECT_THROW(engine.run(t_gate, 16, "nonesuch", 1), ValueError);
}

TEST(ExecutionEngine, RunInstrumentedDecodesAssertionReport)
{
    Circuit payload(2, 2, "bell");
    payload.h(0).cx(0, 1).measureAll();
    AssertionSpec spec;
    spec.assertion = std::make_shared<EntanglementAssertion>(2);
    spec.targets = {0, 1};
    spec.insertAt = 2;
    const InstrumentedCircuit inst = instrument(payload, {spec});

    ExecutionEngine engine(EngineOptions{
        .threads = 2, .shardShots = 256, .maxShards = 16});
    Result raw;
    const AssertionReport report = engine.runInstrumented(
        inst, 2048, "statevector", 11, nullptr, &raw);
    EXPECT_EQ(raw.shots(), 2048u);
    // Ideal Bell pair: the entanglement check never fires.
    EXPECT_NEAR(report.anyErrorRate, 0.0, 1e-12);
    EXPECT_NEAR(report.keptFraction, 1.0, 1e-12);
}

namespace {

/** Folds counts, shot bookkeeping, the cancel flag and retention. */
std::uint64_t
engineDigest(const Result &r)
{
    std::uint64_t h = kFnv1aOffset;
    for (const auto &[key, count] : r.rawCounts())
        h = fnv1aMix64(fnv1aMix64(h, key), count);
    h = fnv1aMix64(h, r.shots());
    h = fnv1aMix64(h, r.shotsRequested());
    h = fnv1aMix64(h, r.cancelled() ? 1 : 0);
    return fnv1aMix64(
        h, std::bit_cast<std::uint64_t>(r.retainedFraction()));
}

} // namespace

// Pinned before fixed-budget jobs moved onto the wave lifecycle: every
// entry point, thread count, shard size and retried fault must keep
// delivering these counts and bookkeeping bit for bit. Never re-pin.
// Two deliberate moves so far. First, the two statevector rows were
// re-pinned when sampled state-vector execution left its Walker alias
// table for CumulativeSampler, the library's one repeated-draw
// sampler; its per-shot draws are sampleDiscrete's (SampledOracle
// tests in test_statevector_simulator.cc). Second, the 1024-shot
// statevector row and the density rows were re-pinned when
// CumulativeSampler::counts began to split shots by binomial draws from
// 32 shots per key on: a 1024-shot statevector shard over the check's 8
// keys and the 3000-shot density run split, so that statevector row no
// longer matches its stabilizer row. The 128-shot shards stay per-shot
// and keep their digest. Both backends' counts are fitted below
// against the exact distribution.
TEST(EngineGoldenCounts, EveryEntryPointBackendAndShardPlan)
{
    const DeviceModel device = DeviceModel::ibmqx4();
    JobSpec base;
    base.circuit = Circuit(2, 2, "bell");
    base.circuit.h(0).cx(0, 1).measureAll();
    AssertionSpec check;
    check.assertion = std::make_shared<EntanglementAssertion>(2);
    check.targets = {0, 1};
    check.insertAt = 2;
    base.assertions = {check};
    base.shots = 3000;
    base.seed = 2024;

    // Per (backend, shard size): the digest every entry point, thread
    // count and retried fault delivers.
    const std::map<std::string, std::uint64_t> golden = {
        {"statevector/128", 0xe30be590af7b046dULL},
        {"statevector/1024", 0x3e6669989963d94fULL},
        {"stabilizer/128", 0xe30be590af7b046dULL},
        {"stabilizer/1024", 0x1b6481a0294980f1ULL},
        {"trajectory/128", 0xe8926b28185913b5ULL},
        {"trajectory/1024", 0x6b78e183f417122dULL},
        {"density/128", 0x8e336d2744de65cfULL},
        {"density/1024", 0x8e336d2744de65cfULL},
    };
    const auto faulty = std::make_shared<const FaultPlan>(
        FaultPlan::parse("shard:2:throw"));

    std::vector<std::pair<std::string, std::uint64_t>> got;
    for (const std::string backend :
         {"statevector", "stabilizer", "trajectory", "density"})
        for (const std::size_t shard_shots : {128u, 1024u}) {
            const std::string key =
                backend + "/" + std::to_string(shard_shots);
            const NoiseModel *noise =
                backend == "trajectory" || backend == "density"
                    ? &device.noiseModel()
                    : nullptr;
            std::optional<std::uint64_t> first;
            for (const std::size_t threads : {1u, 4u})
                for (const bool fault : {false, true}) {
                    ExecutionEngine engine(EngineOptions{
                        .threads = threads, .shardShots = shard_shots});
                    JobQueue queue(engine);
                    JobSpec spec = base;
                    spec.backend = backend;
                    spec.noise = noise;
                    if (fault) {
                        spec.faults = faulty;
                        spec.retry.maxAttempts = 4;
                    }
                    Job job(queue.instrumented(spec)->circuit(),
                            spec.shots, spec.backend, spec.seed,
                            spec.noise);
                    job.faults = spec.faults;
                    job.retry = spec.retry;

                    const std::pair<const char *,
                                    std::function<Result()>>
                        entries[] = {
                            {"run", [&]() { return engine.run(job); }},
                            {"queue future", [&]() {
                                 return queue.submit(spec).get();
                             }},
                            {"runAll", [&]() {
                                 return queue.runAll({spec}).front();
                             }},
                        };
                    if (threads == 1 && !fault &&
                        (backend == "statevector" ||
                         backend == "density")) {
                        // The split counts fit the instrumented
                        // circuit's exact distribution (1e-6
                        // false-alarm rate).
                        DensityMatrixSimulator exact;
                        exact.setNoiseModel(noise);
                        const auto dist =
                            exact.exactDistribution(*job.circuit);
                        EXPECT_GE(stats::pooledChiSquareTest(
                                      engine.run(job).rawCounts(),
                                      stats::Distribution(dist.begin(),
                                                          dist.end()))
                                      .pValue,
                                  1e-6)
                            << key;
                    }
                    for (const auto &[entry, run] : entries) {
                        const std::uint64_t digest = engineDigest(run());
                        if (!first)
                            first = digest;
                        EXPECT_EQ(digest, *first)
                            << key << " threads " << threads << " fault "
                            << fault << " via " << entry << ": digest 0x"
                            << std::hex << digest;
                    }
                }
            got.emplace_back(key, *first);
        }
    test::expectGoldenTable(golden, got);
}
