/**
 * @file
 * Fault injection and retry: the FaultPlan grammar, the transient/
 * permanent error taxonomy, seeded backoff, and the recovery
 * contract — a job that retries through injected transient faults
 * produces counts bit-identical to a fault-free run.
 */

#include <functional>
#include <mutex>

#include <gtest/gtest.h>

#include "common/error.hh"
#include "runtime/execution_engine.hh"
#include "runtime/fault.hh"
#include "runtime/job_queue.hh"
#include "runtime/retry.hh"

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

RetryPolicy
fastRetry(std::size_t attempts)
{
    RetryPolicy retry;
    retry.maxAttempts = attempts;
    retry.baseBackoffMs = 0.01; // keep test wall time negligible
    return retry;
}

std::shared_ptr<const FaultPlan>
plan(const std::string &spec)
{
    return std::make_shared<const FaultPlan>(FaultPlan::parse(spec));
}

} // namespace

TEST(FaultPlan, ParseGrammar)
{
    const FaultPlan p = FaultPlan::parse(
        "shard:2:throw,shard:5:badalloc:3,wave:1:throw:perm,"
        "prepare:stall,rate:0.25:badalloc,seed:42,stall-ms:7");
    ASSERT_EQ(p.sites.size(), 4u);
    EXPECT_EQ(p.sites[0].scope, FaultSite::Scope::Shard);
    EXPECT_EQ(p.sites[0].index, 2u);
    EXPECT_EQ(p.sites[0].kind, FaultKind::Throw);
    EXPECT_EQ(p.sites[0].times, 1u);
    EXPECT_FALSE(p.sites[0].permanent);
    EXPECT_EQ(p.sites[1].kind, FaultKind::BadAlloc);
    EXPECT_EQ(p.sites[1].times, 3u);
    EXPECT_EQ(p.sites[2].scope, FaultSite::Scope::Wave);
    EXPECT_TRUE(p.sites[2].permanent);
    EXPECT_EQ(p.sites[3].scope, FaultSite::Scope::Prepare);
    EXPECT_EQ(p.sites[3].kind, FaultKind::Stall);
    EXPECT_DOUBLE_EQ(p.shardFaultRate, 0.25);
    EXPECT_EQ(p.rateKind, FaultKind::BadAlloc);
    EXPECT_EQ(p.seed, 42u);
    EXPECT_EQ(p.stallMs, 7u);
    EXPECT_FALSE(p.empty());
    EXPECT_TRUE(FaultPlan{}.empty());
    // str() re-renders in the spec grammar.
    EXPECT_NE(p.str().find("shard:2:throw"), std::string::npos);
    EXPECT_NE(p.str().find("rate:0.25:badalloc"), std::string::npos);
}

TEST(FaultPlan, ParseRejectsMalformedSpecs)
{
    EXPECT_THROW(FaultPlan::parse("shard:2"), ValueError);
    EXPECT_THROW(FaultPlan::parse("shard:x:throw"), ValueError);
    EXPECT_THROW(FaultPlan::parse("shard:1:explode"), ValueError);
    EXPECT_THROW(FaultPlan::parse("shard:1:throw:0"), ValueError);
    EXPECT_THROW(FaultPlan::parse("rate:1.5:throw"), ValueError);
    EXPECT_THROW(FaultPlan::parse("rate:0.5"), ValueError);
    EXPECT_THROW(FaultPlan::parse("gremlin:1:throw"), ValueError);
    EXPECT_THROW(FaultPlan::parse("seed:"), ValueError);
}

TEST(FaultPlan, FiresDeterministically)
{
    const FaultPlan p =
        FaultPlan::parse("shard:2:throw:2,wave:1:badalloc:perm");
    FaultKind kind;
    bool permanent;
    // Fixed site: attempts 0 and 1 fire, attempt 2 does not.
    EXPECT_TRUE(p.shouldFire(FaultSite::Scope::Shard, 2, 0, &kind,
                             &permanent));
    EXPECT_TRUE(p.shouldFire(FaultSite::Scope::Shard, 2, 1, &kind,
                             &permanent));
    EXPECT_FALSE(p.shouldFire(FaultSite::Scope::Shard, 2, 2, &kind,
                              &permanent));
    EXPECT_FALSE(p.shouldFire(FaultSite::Scope::Shard, 3, 0, &kind,
                              &permanent));
    // Permanent site: every attempt.
    EXPECT_TRUE(p.shouldFire(FaultSite::Scope::Wave, 1, 7, &kind,
                             &permanent));
    EXPECT_TRUE(permanent);

    // Rate sites: the same (plan seed, shard, attempt) triple always
    // decides the same way.
    const FaultPlan r1 = FaultPlan::parse("rate:0.5:throw,seed:9");
    const FaultPlan r2 = FaultPlan::parse("rate:0.5:throw,seed:9");
    for (std::size_t shard = 0; shard < 32; ++shard) {
        FaultKind k1, k2;
        bool p1, p2;
        EXPECT_EQ(r1.shouldFire(FaultSite::Scope::Shard, shard, 0,
                                &k1, &p1),
                  r2.shouldFire(FaultSite::Scope::Shard, shard, 0,
                                &k2, &p2));
    }
}

TEST(ErrorTaxonomy, IsTransientClassification)
{
    EXPECT_FALSE(isTransient(nullptr));
    EXPECT_TRUE(isTransient(std::make_exception_ptr(
        TransientSimulationError("flaky"))));
    EXPECT_FALSE(isTransient(
        std::make_exception_ptr(SimulationError("broken"))));
    EXPECT_FALSE(
        isTransient(std::make_exception_ptr(ValueError("bad arg"))));
    EXPECT_TRUE(isTransient(std::make_exception_ptr(std::bad_alloc())));
    EXPECT_FALSE(
        isTransient(std::make_exception_ptr(std::runtime_error("?"))));
}

TEST(RetryBackoff, SeededExponentialJitter)
{
    RetryPolicy policy;
    policy.baseBackoffMs = 2.0;
    policy.jitterFrac = 0.25;
    EXPECT_DOUBLE_EQ(retryBackoffMs(policy, 0, 7), 0.0);

    // Deterministic: same (policy, attempt, seed) → same delay.
    EXPECT_DOUBLE_EQ(retryBackoffMs(policy, 1, 7),
                     retryBackoffMs(policy, 1, 7));
    // Exponential envelope with ±25% jitter.
    for (std::size_t attempt = 1; attempt <= 6; ++attempt) {
        const double base = 2.0 * static_cast<double>(1u << (attempt - 1));
        const double d = retryBackoffMs(policy, attempt, 7);
        EXPECT_GE(d, base * 0.75);
        EXPECT_LE(d, base * 1.25);
    }
    // Jitter off: exact exponential.
    policy.jitterFrac = 0.0;
    EXPECT_DOUBLE_EQ(retryBackoffMs(policy, 3, 123), 8.0);
}

TEST(Retry, RecoveredRunIsBitIdenticalToFaultFree)
{
    // Two transient faults (throw + bad_alloc) on different shards;
    // with retries the job completes and — because retried shards
    // reuse their original RNG streams — the counts match the
    // fault-free run exactly. The acceptance criterion of the
    // robustness work.
    for (const std::size_t threads : {1u, 4u}) {
        ExecutionEngine engine(eightShardOptions(threads));
        const Result clean = engine.run(Job(bellCircuit(), 2048));

        Job job(bellCircuit(), 2048);
        job.retry = fastRetry(3);
        job.faults = plan("shard:2:throw,shard:5:badalloc");
        const Result recovered = engine.run(job);

        EXPECT_EQ(recovered.rawCounts(), clean.rawCounts());
        EXPECT_EQ(recovered.execStats().retries, 2u);
        EXPECT_FALSE(recovered.cancelled());
    }
}

TEST(Retry, AdaptiveRecoveryMatchesToo)
{
    ExecutionEngine engine(eightShardOptions(1));
    const Result clean = engine.run(Job(bellCircuit(), 2048));

    Job job(bellCircuit(), 2048);
    job.stopping.waveShots = 512;
    job.retry = fastRetry(3);
    job.faults = plan("shard:1:throw:2");
    const Result recovered = engine.run(job);

    EXPECT_EQ(recovered.rawCounts(), clean.rawCounts());
    EXPECT_EQ(recovered.execStats().retries, 2u);
}

TEST(Retry, PermanentAndExhaustedFaultsPropagate)
{
    ExecutionEngine engine(eightShardOptions(1));

    // Permanent faults are never retried, however generous the
    // policy.
    Job permanent(bellCircuit(), 2048);
    permanent.retry = fastRetry(5);
    permanent.faults = plan("shard:2:throw:perm");
    EXPECT_THROW(engine.run(permanent), SimulationError);

    // A transient fault outlasting the attempt budget propagates as
    // the transient error it is.
    Job exhausted(bellCircuit(), 2048);
    exhausted.retry = fastRetry(2);
    exhausted.faults = plan("shard:2:throw:5");
    EXPECT_THROW(engine.run(exhausted), TransientSimulationError);

    // No policy at all: the first transient failure propagates.
    Job bare(bellCircuit(), 2048);
    bare.faults = plan("shard:2:throw");
    EXPECT_THROW(engine.run(bare), TransientSimulationError);
}

namespace {

/** The message of the error @p run throws ("no error" if none). */
std::string
errorOf(const std::function<void()> &run)
{
    try {
        run();
    } catch (const std::exception &e) {
        return e.what();
    }
    return "no error";
}

} // namespace

TEST(Retry, FailedJobReportsLowestFailingShard)
{
    // Shards 1 and 5 fail permanently, and shard 1 is stalled by one
    // transient failure plus a 100 ms backoff, so at 4 threads it
    // finishes last. Every entry point must still report shard 1: the
    // reported error is the lowest failing index, never the first to
    // fail in time.
    RetryPolicy stall;
    stall.maxAttempts = 2;
    stall.baseBackoffMs = 100.0;
    stall.jitterFrac = 0.0;
    const auto faults = plan(
        "shard:1:throw,shard:1:throw:perm,shard:5:throw:perm");
    auto expect_shard_1 = [](const std::string &message) {
        EXPECT_NE(message.find("injected fault: shard 1 "),
                  std::string::npos)
            << message;
    };

    for (const std::size_t threads : {1u, 4u}) {
        SCOPED_TRACE(threads);
        ExecutionEngine engine(eightShardOptions(threads));
        Job job(bellCircuit(), 2048);
        job.retry = stall;
        job.faults = faults;
        // Disabled stopping rule: run() runs one wave covering all
        // eight shards.
        expect_shard_1(errorOf([&]() { engine.run(job); }));
        expect_shard_1(errorOf([&]() { engine.submit(job).get(); }));
        expect_shard_1(errorOf([&]() { engine.run(job); }));

        JobQueue queue(engine);
        JobSpec spec;
        spec.circuit = bellCircuit();
        spec.shots = 2048;
        spec.retry = stall;
        spec.faults = faults;
        std::mutex mutex;
        std::exception_ptr delivered;
        queue.submit(spec, [&](Result, std::exception_ptr error) {
            std::lock_guard<std::mutex> lock(mutex);
            delivered = error;
        });
        queue.waitIdle();
        ASSERT_TRUE(delivered);
        expect_shard_1(
            errorOf([&]() { std::rethrow_exception(delivered); }));
    }
}

TEST(WaveFault, FixedJobFailsAtItsOnlyWave)
{
    // A fixed-budget job is one wave over its whole shard plan, so
    // wave 0's epilogue fault fails it and a wave-1 site never fires.
    ExecutionEngine engine(eightShardOptions(1));
    const Result clean = engine.run(Job(bellCircuit(), 2048));

    Job failing(bellCircuit(), 2048);
    failing.faults = plan("wave:0:throw");
    EXPECT_NE(errorOf([&]() { engine.run(failing); })
                  .find("injected fault: wave 0 "),
              std::string::npos);

    Job later(bellCircuit(), 2048);
    later.faults = plan("wave:1:throw");
    const Result result = engine.run(later);
    EXPECT_EQ(result.rawCounts(), clean.rawCounts());
    EXPECT_EQ(result.execStats().waves, 1u);
}

TEST(JobQueue, PrepareFaultEvictsPoisonedKey)
{
    // Regression: a throw inside prepare must evict the in-flight
    // cache entry, so the same spec can be prepared again — the
    // second submission builds cleanly instead of inheriting the
    // first one's failure, and the third hits the cache.
    ExecutionEngine engine(eightShardOptions(1));
    JobQueue queue(engine);

    JobSpec spec;
    spec.circuit = bellCircuit();
    spec.shots = 512;
    spec.faults = plan("prepare:throw");

    EXPECT_THROW(queue.submit(spec), TransientSimulationError);
    EXPECT_EQ(queue.cacheMisses(), 0u);

    const Result result = queue.submit(spec).get();
    EXPECT_EQ(result.shots(), 512u);
    EXPECT_EQ(queue.cacheMisses(), 1u);

    queue.submit(spec).get();
    EXPECT_EQ(queue.cacheHits(), 1u);
}
