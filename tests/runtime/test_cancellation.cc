/**
 * @file
 * Cancellation and deadlines: CancelToken semantics, shard-granular
 * skipping, wave-boundary stopping (whole waves for jobs with a
 * checkpoint sink), the cancelled() stamp at the final wave boundary,
 * and the partial-result contract (merged counts bit-identical to the
 * shards that completed).
 */

#include <chrono>
#include <limits>

#include <gtest/gtest.h>

#include "common/error.hh"
#include "runtime/backend_registry.hh"
#include "runtime/cancel.hh"
#include "runtime/execution_engine.hh"
#include "runtime/fault.hh"

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

/** The statevector backend, but each run() first fires @p token. */
class CancellingBackend : public Backend
{
  public:
    explicit CancellingBackend(CancelToken token)
        : inner_(BackendRegistry::global().create("statevector")),
          token_(std::move(token))
    {
    }

    const std::string &name() const override { return inner_->name(); }

    const BackendCapabilities &capabilities() const override
    {
        return inner_->capabilities();
    }

    Result run(const Circuit &circuit, std::size_t shots,
               std::uint64_t seed,
               const NoiseModel *noise) const override
    {
        token_.cancel();
        return inner_->run(circuit, shots, seed, noise);
    }

  private:
    BackendPtr inner_;
    CancelToken token_;
};

} // namespace

TEST(CancelToken, LatchesAndSharesState)
{
    CancelToken token;
    EXPECT_FALSE(token.cancelled());
    EXPECT_EQ(token.reason(), CancelReason::None);
    EXPECT_FALSE(token.poll());

    const CancelToken copy = token; // aliases the same state
    copy.cancel();
    EXPECT_TRUE(token.cancelled());
    EXPECT_TRUE(token.poll());
    EXPECT_EQ(token.reason(), CancelReason::User);

    // First reason wins: a later deadline cannot overwrite User.
    token.cancel(CancelReason::Deadline);
    EXPECT_EQ(token.reason(), CancelReason::User);

    EXPECT_STREQ(cancelReasonName(CancelReason::User), "user");
    EXPECT_STREQ(cancelReasonName(CancelReason::Deadline), "deadline");
    EXPECT_STREQ(cancelReasonName(CancelReason::None), "none");
}

TEST(CancelToken, DeadlineLatchesOnPoll)
{
    CancelToken token;
    EXPECT_FALSE(token.deadlineArmed());
    token.armDeadline(CancelToken::Clock::now() +
                      std::chrono::hours(1));
    EXPECT_TRUE(token.deadlineArmed());
    EXPECT_FALSE(token.poll());
    EXPECT_FALSE(token.cancelled());

    token.armDeadline(CancelToken::Clock::now() -
                      std::chrono::milliseconds(1));
    EXPECT_TRUE(token.poll());
    EXPECT_TRUE(token.cancelled());
    EXPECT_EQ(token.reason(), CancelReason::Deadline);
}

TEST(Cancellation, PreCancelledFixedJobRunsNothing)
{
    ExecutionEngine engine(eightShardOptions(1));
    Job job(bellCircuit(), 2048);
    job.cancel.cancel();

    const Result result = engine.run(job);
    EXPECT_EQ(result.shots(), 0u);
    EXPECT_TRUE(result.cancelled());
    EXPECT_EQ(result.cancelReason(), "user");
    EXPECT_EQ(result.shotsRequested(), 2048u);
}

TEST(Cancellation, FixedJobCancelledInsideItsOnlyShard)
{
    // The cancel lands after the job's only shard started: nothing is
    // skipped, so the counts are the full uncancelled run's, yet the
    // final wave boundary's poll still stamps the job cancelled.
    Job job(bellCircuit(), 1024, "cancelling", 5);
    BackendRegistry registry;
    registry.registerBackend("cancelling", [token = job.cancel]() {
        return std::make_shared<CancellingBackend>(token);
    });
    ExecutionEngine engine(EngineOptions{.threads = 1}, &registry);
    const Result result = engine.run(job);

    EXPECT_TRUE(result.cancelled());
    EXPECT_EQ(result.cancelReason(), "user");
    EXPECT_EQ(result.shots(), 1024u);
    EXPECT_EQ(result.shotsRequested(), 1024u);

    ExecutionEngine reference(EngineOptions{.threads = 1});
    const Result uncancelled =
        reference.run(bellCircuit(), 1024, "statevector", 5);
    EXPECT_FALSE(uncancelled.cancelled());
    EXPECT_EQ(result.rawCounts(), uncancelled.rawCounts());
}

TEST(Cancellation, DeadlinePartialIsBitIdenticalPrefix)
{
    // Shard 0 stalls past the deadline; with one worker the remaining
    // shards dequeue after expiry and skip, so the merge is exactly
    // shard 0 — which (shard plans being deterministic) equals a
    // 256-shot run outright.
    ExecutionEngine engine(eightShardOptions(1));
    Job job(bellCircuit(), 2048);
    job.deadlineMs = 5.0;
    FaultPlan plan = FaultPlan::parse("shard:0:stall,stall-ms:100");
    job.faults = std::make_shared<const FaultPlan>(plan);

    const Result partial = engine.run(job);
    EXPECT_TRUE(partial.cancelled());
    EXPECT_EQ(partial.cancelReason(), "deadline");
    EXPECT_EQ(partial.shots(), 256u);
    EXPECT_EQ(partial.shotsRequested(), 2048u);

    ExecutionEngine reference(eightShardOptions(1));
    const Result prefix = reference.run(Job(bellCircuit(), 256));
    EXPECT_EQ(partial.rawCounts(), prefix.rawCounts());
}

TEST(Cancellation, AdaptiveStopsAtWaveBoundary)
{
    // Cancelling inside the wave-1 progress callback lets the already
    // launched wave 2 finish (waves never tear), then stops: exactly
    // two waves of shots, bit-identical to a 512-shot run.
    for (const std::size_t threads : {1u, 4u}) {
        ExecutionEngine engine(eightShardOptions(threads));
        Job job(bellCircuit(), 2048);
        job.stopping.waveShots = 256; // one shard per wave
        job.checkpoint = std::make_shared<JobCheckpoint>();
        const CancelToken token = job.cancel;

        std::size_t waves_seen = 0;
        bool saw_cancelled_status = false;
        const Result partial = engine.run(
            job, [&](const Result &, const StoppingStatus &status) {
                ++waves_seen;
                if (status.wave == 1)
                    token.cancel();
                saw_cancelled_status |= status.cancelled;
            });

        EXPECT_TRUE(partial.cancelled());
        EXPECT_EQ(partial.cancelReason(), "user");
        EXPECT_TRUE(saw_cancelled_status);
        EXPECT_EQ(waves_seen, 2u);
        EXPECT_EQ(partial.shots(), 512u);
        EXPECT_FALSE(partial.stoppedEarly());
        EXPECT_EQ(partial.shotsRequested(), 2048u);

        ExecutionEngine reference(eightShardOptions(1));
        const Result prefix = reference.run(Job(bellCircuit(), 512));
        EXPECT_EQ(partial.rawCounts(), prefix.rawCounts());

        // The checkpoint cursor sits at the wave boundary with the
        // raw (unstamped) merge of the completed shards.
        const JobCheckpoint &ck = *job.checkpoint;
        EXPECT_TRUE(ck.valid());
        EXPECT_EQ(ck.nextShard, 2u);
        EXPECT_EQ(ck.planShards, 8u);
        EXPECT_EQ(ck.merged.shots(), 512u);
        EXPECT_FALSE(ck.merged.cancelled());
    }
}

TEST(Cancellation, AdaptiveDeadlineReportsReason)
{
    // Every wave stalls 20ms against a 5ms deadline: wave 1 merges in
    // full, then the boundary poll latches the deadline.
    ExecutionEngine engine(eightShardOptions(1));
    Job job(bellCircuit(), 2048);
    job.stopping.waveShots = 256;
    job.deadlineMs = 5.0;
    FaultPlan plan =
        FaultPlan::parse("shard:0:stall,shard:1:stall,stall-ms:20");
    job.faults = std::make_shared<const FaultPlan>(plan);

    const Result partial = engine.run(job);
    EXPECT_TRUE(partial.cancelled());
    EXPECT_EQ(partial.cancelReason(), "deadline");
    EXPECT_EQ(partial.shots(), 256u);
    EXPECT_EQ(partial.execStats().waves, 1u);
}

TEST(Cancellation, DeadlinePastClockRangeMeansNone)
{
    // Converted to clock ticks, such a deadline would overflow into
    // the past and cancel the job at dispatch.
    ExecutionEngine engine(eightShardOptions(2));
    for (const double ms :
         {1e300, std::numeric_limits<double>::infinity()}) {
        Job job(bellCircuit(), 2048);
        job.deadlineMs = ms;
        const Result result = engine.run(job);
        EXPECT_FALSE(result.cancelled()) << ms;
        EXPECT_EQ(result.shots(), 2048u) << ms;
    }
}

TEST(Cancellation, NanDeadlineThrowsAtDispatch)
{
    ExecutionEngine engine(eightShardOptions(2));
    Job job(bellCircuit(), 2048);
    job.deadlineMs = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(engine.run(job), ValueError);
}
