#include "runtime/execution_engine.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "common/error.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "sim/kernels/parallel.hh"
#include "sim/kernels/simd/dispatch.hh"
#include "sim/kernels/traversal.hh"

namespace qra {
namespace runtime {

namespace {

/** Registered-once handles for the engine's metrics. */
struct EngineMetrics
{
    obs::CounterHandle jobs;
    obs::CounterHandle shards;
    obs::CounterHandle shots;
    obs::CounterHandle waves;
    obs::CounterHandle adaptiveBudgetShots;
    obs::CounterHandle adaptiveShotsSaved;
    obs::CounterHandle cancelled;
    obs::CounterHandle retries;
    obs::CounterHandle resumedShots;
    obs::HistogramHandle shardRunNs;
    obs::HistogramHandle shardQueueWaitNs;
};

const EngineMetrics &
engineMetrics()
{
    static const EngineMetrics metrics = []() {
        obs::MetricsRegistry &reg = obs::MetricsRegistry::global();
        EngineMetrics m;
        m.jobs = reg.counter("engine.jobs");
        m.shards = reg.counter("engine.shards");
        m.shots = reg.counter("engine.shots");
        m.waves = reg.counter("engine.waves");
        m.adaptiveBudgetShots =
            reg.counter("engine.adaptive.budget_shots");
        m.adaptiveShotsSaved =
            reg.counter("engine.adaptive.shots_saved");
        m.cancelled = reg.counter("engine.cancelled");
        m.retries = reg.counter("engine.retries");
        m.resumedShots = reg.counter("engine.resumed_shots");
        m.shardRunNs = reg.histogram("engine.shard.run_ns");
        m.shardQueueWaitNs =
            reg.histogram("engine.shard.queue_wait_ns");
        return m;
    }();
    return metrics;
}

std::uint64_t
elapsedNs(obs::Tracer::Clock::time_point begin,
          obs::Tracer::Clock::time_point end)
{
    return end <= begin
               ? 0
               : static_cast<std::uint64_t>(
                     std::chrono::duration_cast<
                         std::chrono::nanoseconds>(end - begin)
                         .count());
}

/** Invoke a user callback, logging instead of propagating throws. */
template <typename Callback, typename... Args>
void
invokeGuarded(const char *what, Callback &&callback, Args &&...args)
{
    try {
        callback(std::forward<Args>(args)...);
    } catch (const std::exception &e) {
        logWarn(std::string(what) + " threw: " + e.what());
    } catch (...) {
        logWarn(std::string(what) +
                " threw a non-standard exception");
    }
}

/** Arm Job::deadlineMs on the job's cancel token at dispatch. */
void
armJobDeadline(const Job &job)
{
    if (std::isnan(job.deadlineMs))
        throw ValueError("job deadline is NaN");
    if (job.deadlineMs <= 0.0)
        return;
    using Clock = CancelToken::Clock;
    const Clock::time_point now = Clock::now();
    // A deadline past the clock's range never comes (+inf included);
    // converting it to clock ticks would overflow. The strict double
    // compare keeps the truncated tick count within the headroom.
    const double ticks =
        std::chrono::duration<double, Clock::period>(
            std::chrono::duration<double, std::milli>(job.deadlineMs))
            .count();
    const double headroom =
        static_cast<double>((Clock::time_point::max() - now).count());
    if (!(ticks < headroom))
        return;
    job.cancel.armDeadline(
        now + Clock::duration(static_cast<Clock::rep>(ticks)));
}

/**
 * A Completion that settles @p promise. The promise is heap-held: the
 * pool-side callback may still be inside set_value's epilogue when
 * get() unblocks the waiting thread.
 */
ExecutionEngine::Completion
settle(std::shared_ptr<std::promise<Result>> promise)
{
    return [promise = std::move(promise)](Result result,
                                          std::exception_ptr error) {
        if (error)
            promise->set_exception(error);
        else
            promise->set_value(std::move(result));
    };
}

} // namespace

ExecutionEngine::ExecutionEngine(EngineOptions options,
                                 BackendRegistry *registry)
    : options_(options),
      registry_(registry != nullptr ? registry
                                    : &BackendRegistry::global()),
      pool_(options.threads)
{
    if (options_.shardShots == 0)
        throw ValueError("EngineOptions.shardShots must be positive");
    if (options_.maxShards == 0)
        throw ValueError("EngineOptions.maxShards must be positive");
    if (options_.fusionLevel < kernels::kFusionNone ||
        options_.fusionLevel > kernels::kFusion2q)
        throw ValueError("EngineOptions.fusionLevel must be 0, 1 or 2");
    if (options_.simdTier >
        static_cast<int>(kernels::simd::Tier::Avx512))
        throw ValueError(
            "EngineOptions.simdTier must be -1 (auto), 0 (scalar), "
            "1 (portable), 2 (avx2) or 3 (avx512)");
}

ExecutionEngine::ExecutionEngine(std::size_t threads)
    : ExecutionEngine(EngineOptions{.threads = threads})
{
}

std::vector<Shard>
ExecutionEngine::shardPlan(std::size_t shots, std::uint64_t seed,
                           const Backend &backend) const
{
    std::size_t count = 1;
    if (backend.capabilities().shardable && shots > 0) {
        count = (shots + options_.shardShots - 1) / options_.shardShots;
        count = std::clamp<std::size_t>(count, 1, options_.maxShards);
    }
    std::vector<Shard> plan(count);
    const std::size_t base = shots / count;
    const std::size_t remainder = shots % count;
    for (std::size_t i = 0; i < count; ++i) {
        plan[i].shots = base + (i < remainder ? 1 : 0);
        plan[i].seed = splitSeed(seed, i);
    }
    return plan;
}

std::size_t
ExecutionEngine::checkAndLaneCount(const Job &job,
                                   const BackendPtr &backend,
                                   std::size_t shard_count) const
{
    if (!job.circuit)
        throw ValueError("job has no circuit");
    const std::string reason =
        backend->rejectReason(*job.circuit, job.noise);
    if (!reason.empty())
        throw SimulationError(reason);

    // Intra-shot lanes: leftover pool capacity divided across the
    // job's shards (or the explicit intraThreads knob), clamped to
    // the pool size. Lanes and shards share pool_, and a lane-waiting
    // shard helps drain the queue, so total concurrency never
    // exceeds the pool's worker count.
    std::size_t lanes = options_.intraThreads;
    if (lanes == 0)
        lanes = std::max<std::size_t>(
            1,
            pool_.size() / std::max<std::size_t>(1, shard_count));
    return std::min(lanes, pool_.size());
}

std::function<Result()>
ExecutionEngine::shardRunner(
    const Job &job, const BackendPtr &backend, const Shard &shard,
    std::size_t lanes, std::size_t shard_index,
    std::shared_ptr<std::atomic<std::size_t>> retries)
{
    // The enqueue timestamp is only captured when telemetry is on:
    // the disabled path stays free of clock reads.
    const obs::Tracer::Clock::time_point enqueued =
        obs::anyEnabled() ? obs::Tracer::Clock::now()
                          : obs::Tracer::Clock::time_point{};
    return [backend, circuit = job.circuit, noise = job.noise, shard,
            lanes, pool = &pool_, fusion = options_.fusionLevel,
            simd_tier = options_.simdTier,
            cache_block = options_.cacheBlockBytes,
            artifacts = job.artifacts,
            enqueued, shard_index,
            skip_on_cancel = job.checkpoint == nullptr,
            cancel = job.cancel, retry = job.retry,
            faults = job.faults,
            retries = std::move(retries)]() {
        // Cancellation is shard-granular: a shard the pool dequeues
        // after cancel() contributes zero shots and the merge stays
        // bit-identical to the shards that ran. Shards of a job with
        // a checkpoint sink never skip, so a wave either fully merges
        // or fully fails — the invariant the checkpoint cursor
        // depends on.
        if (skip_on_cancel && cancel.poll())
            return Result(circuit->numClbits());
        kernels::ParallelScope scope(pool, lanes);
        kernels::FusionScope fusion_scope(fusion);
        kernels::simd::TierScope tier_scope(simd_tier);
        kernels::CacheBlockScope block_scope(cache_block);
        kernels::PlanCacheScope cache_scope(artifacts.get());
        // Transient failures (TransientSimulationError, bad_alloc —
        // injected or real) re-run the shard with its ORIGINAL seed:
        // a recovered run's counts are bit-identical to a fault-free
        // one. Permanent errors and exhausted budgets propagate.
        auto run_once = [&](std::size_t attempt) {
            maybeInjectFault(faults.get(), FaultSite::Scope::Shard,
                             shard_index, attempt);
            return backend->run(*circuit, shard.shots, shard.seed,
                                noise);
        };
        auto run_with_retry = [&]() {
            for (std::size_t attempt = 0;; ++attempt) {
                try {
                    return run_once(attempt);
                } catch (...) {
                    const std::exception_ptr error =
                        std::current_exception();
                    if (!isTransient(error) ||
                        attempt + 1 >= retry.maxAttempts ||
                        cancel.cancelled())
                        std::rethrow_exception(error);
                    retries->fetch_add(1, std::memory_order_relaxed);
                    obs::count(engineMetrics().retries);
                    const double delay_ms = retryBackoffMs(
                        retry, attempt + 1, shard.seed);
                    if (delay_ms > 0.0)
                        std::this_thread::sleep_for(
                            std::chrono::duration<double,
                                                  std::milli>(
                                delay_ms));
                }
            }
        };
        if (!obs::anyEnabled())
            return run_with_retry();
        const auto start = obs::Tracer::Clock::now();
        const std::uint64_t wait_ns = elapsedNs(enqueued, start);
        Result part = run_with_retry();
        const auto end = obs::Tracer::Clock::now();
        obs::complete("engine", "shard", start, end,
                      {{"shots", shard.shots}, {"wait_ns", wait_ns}});
        const EngineMetrics &m = engineMetrics();
        obs::count(m.shards);
        obs::count(m.shots, shard.shots);
        obs::observe(m.shardRunNs, elapsedNs(start, end));
        obs::observe(m.shardQueueWaitNs, wait_ns);
        return part;
    };
}

void
ExecutionEngine::runShards(
    const Job &job, const BackendPtr &backend,
    const std::vector<Shard> &plan, std::size_t begin,
    std::size_t count, std::size_t lanes,
    std::shared_ptr<std::atomic<std::size_t>> retries, BatchDone done)
{
    struct Batch
    {
        std::mutex mutex;
        std::vector<Result> parts;
        std::size_t remaining = 0;
        /** Lowest failing shard so far (in batch order); count = none. */
        std::size_t errorIndex = 0;
        std::exception_ptr error;
        BatchDone done;
    };
    auto batch = std::make_shared<Batch>();
    batch->parts.resize(count);
    batch->remaining = count;
    batch->errorIndex = count;
    batch->done = std::move(done);
    if (count == 0) {
        // Nothing to run (a resumed job whose checkpoint is
        // exhausted): the epilogue still runs on a pool thread.
        pool_.submit([batch]() { batch->done({}, nullptr); });
        return;
    }
    for (std::size_t i = 0; i < count; ++i) {
        pool_.submit([batch, i,
                      runner = shardRunner(job, backend, plan[begin + i],
                                           lanes, begin + i,
                                           retries)]() {
            Result part;
            std::exception_ptr error;
            try {
                part = runner();
            } catch (...) {
                error = std::current_exception();
            }
            {
                std::lock_guard<std::mutex> lock(batch->mutex);
                batch->parts[i] = std::move(part);
                // The lowest failing index wins, so the reported error
                // does not depend on which shard failed first in time.
                if (error && i < batch->errorIndex) {
                    batch->errorIndex = i;
                    batch->error = error;
                }
                if (--batch->remaining != 0)
                    return;
            }
            batch->done(std::move(batch->parts), batch->error);
        });
    }
}

Result
ExecutionEngine::run(const Job &job, Progress on_progress)
{
    auto promise = std::make_shared<std::promise<Result>>();
    std::future<Result> future = promise->get_future();
    submitAsync(job, settle(std::move(promise)), std::move(on_progress));
    // Safe to park here: the caller is not a pool thread, so waves
    // drain freely.
    return future.get();
}

Result
ExecutionEngine::run(const Circuit &circuit, std::size_t shots,
                     const std::string &backend, std::uint64_t seed,
                     const NoiseModel *noise)
{
    return run(Job(circuit, shots, backend, seed, noise));
}

std::future<Result>
ExecutionEngine::submit(Job job)
{
    auto promise = std::make_shared<std::promise<Result>>();
    std::future<Result> future = promise->get_future();
    submitAsync(std::move(job), settle(std::move(promise)));
    return future;
}

namespace {

/**
 * Shared state of one job. It is only touched by the dispatching
 * thread or by a wave's last-finishing shard (the shard batch's mutex
 * orders those accesses), so the merge/evaluate/relaunch sequence
 * runs unlocked.
 */
struct JobState
{
    Job job;
    BackendPtr backend;
    std::vector<Shard> plan;
    std::size_t perWave = 1;
    std::size_t lanes = 1;
    std::size_t budget = 0;
    std::size_t numClbits = 0;

    std::size_t nextShard = 0;
    /** First shard of the in-flight wave — the checkpoint cursor is
        rewound here when the wave fails, so its shots are not lost. */
    std::size_t waveBegin = 0;
    std::size_t wave = 0;
    /** Shots adopted from Job::resumeFrom (0 = fresh run). */
    std::size_t resumedShots = 0;
    Result merged;
    StoppingStatus lastStatus;
    std::atomic<std::size_t> retryCount{0};
    obs::Tracer::Clock::time_point start;
    /** Async-span id of the in-flight wave (0 = tracing off). */
    std::uint64_t waveSpanId = 0;

    ExecutionEngine::Progress progress;
    ExecutionEngine::Completion done;
    /** Captures only the engine; the pool tasks keep `this` alive. */
    std::function<void(std::shared_ptr<JobState>)> launchWave;
};

/** Deliver @p error (with an empty Result) through the completion. */
void
fail(const JobState &state, std::exception_ptr error)
{
    invokeGuarded("submitAsync completion callback", state.done,
                  Result(state.numClbits), error);
}

/**
 * Fill the job's checkpoint sink (if any) with the current cursor.
 * Called with the wave machinery quiescent: at completion,
 * cancellation, and wave failure (cursor rewound to the failing
 * wave's first shard — its shards re-run on resume). The stored
 * merged Result is the raw shard merge, before any completion
 * stamping, so resuming merges cleanly on top of it.
 */
void
writeCheckpoint(const std::shared_ptr<JobState> &state,
                std::size_t next_shard)
{
    if (!state->job.checkpoint)
        return;
    JobCheckpoint &ck = *state->job.checkpoint;
    ck.circuitHash = state->job.circuit->hash();
    ck.seed = state->job.seed;
    ck.budget = state->budget;
    ck.planShards = state->plan.size();
    ck.nextShard = next_shard;
    ck.wave = state->wave;
    ck.merged = state->merged;
    ck.lastStatus = state->lastStatus;
}

/** Wave epilogue, run by the wave's last-finishing shard. */
void
finishWave(const std::shared_ptr<JobState> &state,
           std::vector<Result> &parts, std::exception_ptr error)
{
    // Wave-scope fault sites fail the epilogue itself (there is no
    // per-wave retry — recovery is the checkpoint/resume path).
    if (!error) {
        try {
            maybeInjectFault(state->job.faults.get(),
                             FaultSite::Scope::Wave, state->wave, 0);
        } catch (...) {
            error = std::current_exception();
        }
    }
    if (error) {
        // The failing wave's parts are discarded; rewind the
        // checkpoint cursor to its first shard so a resume re-runs
        // exactly the lost shots.
        writeCheckpoint(state, state->waveBegin);
        fail(*state, error);
        return;
    }
    // Merge in shard order: with waves walking the plan in
    // shard-index order, every wave setting merges the same sequence.
    {
        obs::Span merge_span("engine", "wave_merge",
                             {{"wave", state->wave + 1},
                              {"parts", parts.size()}});
        for (Result &part : parts)
            state->merged.merge(part);
    }
    ++state->wave;
    obs::count(engineMetrics().waves);

    // Only an enabled rule or a progress stream needs the any-error
    // rate: evaluating it decodes every register of the merge.
    const StoppingRule &rule = state->job.stopping;
    StoppingStatus status;
    status.shotsDone = state->merged.shots();
    if (rule.enabled() || state->progress) {
        obs::Span eval_span("engine", "stopping_eval",
                            {{"wave", state->wave}});
        try {
            status = evaluateStopping(rule, state->merged,
                                      state->job.instrumented.get());
        } catch (const Error &) {
            // An enabled rule's failure fails the job. A disabled one
            // with nothing to watch (e.g. any-error without
            // assertions) streams shot progress only.
            if (rule.enabled())
                throw;
        }
    }
    status.wave = state->wave;
    status.shotsRequested = state->budget;
    // Cancellation is polled here, at the wave boundary: this is the
    // poll that stamps cancelled() and stops further waves.
    status.cancelled = state->job.cancel.poll();
    status.finished = status.converged || status.cancelled ||
                      state->nextShard >= state->plan.size();
    state->lastStatus = status;

    if (state->waveSpanId != 0) {
        obs::asyncEnd("engine", "wave", state->waveSpanId);
        state->waveSpanId = 0;
    }

    if (state->progress)
        invokeGuarded("submitAsync progress callback", state->progress,
                      state->merged, status);

    if (!status.finished) {
        state->launchWave(state);
        return;
    }
    // Checkpoint before completion stamping: the stored merge is the
    // raw shard prefix a resume continues from.
    writeCheckpoint(state, state->nextShard);
    Result final_result = std::move(state->merged);
    final_result.setShotsRequested(state->budget);
    final_result.setStoppedEarly(status.converged &&
                                 final_result.shots() <
                                     state->budget);
    const EngineMetrics &m = engineMetrics();
    if (status.cancelled) {
        final_result.setCancelled(
            cancelReasonName(state->job.cancel.reason()));
        obs::count(m.cancelled);
    } else if (rule.enabled() && obs::metricsEnabled()) {
        obs::count(m.adaptiveBudgetShots, state->budget);
        obs::count(m.adaptiveShotsSaved,
                   state->budget - final_result.shots());
    }
    ExecStats stats;
    stats.shards = state->nextShard;
    stats.waves = state->wave;
    stats.retries = state->retryCount.load(std::memory_order_relaxed);
    stats.resumedShots = state->resumedShots;
    stats.engineSeconds = std::chrono::duration<double>(
                              obs::Tracer::Clock::now() - state->start)
                              .count();
    final_result.setExecStats(stats);
    invokeGuarded("submitAsync completion callback", state->done,
                  std::move(final_result), nullptr);
}

} // namespace

void
ExecutionEngine::submitAsync(Job job, Completion on_complete,
                             Progress on_progress)
{
    if (!on_complete)
        throw ValueError("submitAsync requires a completion callback");
    if (!job.circuit)
        throw ValueError("job has no circuit");
    const auto start_time = obs::Tracer::Clock::now();
    obs::count(engineMetrics().jobs);
    const BackendPtr backend =
        registry_->resolve(job.backend, *job.circuit, job.noise);
    armJobDeadline(job);

    const StoppingRule &rule = job.stopping;
    const std::size_t budget = job.shots;
    // A rule without an instrumented circuit to decode must throw
    // here, synchronously, not inside a pool callback.
    if (rule.enabled())
        evaluateStopping(rule, Result(job.circuit->numClbits()),
                         job.instrumented.get());

    auto state = std::make_shared<JobState>();
    // Waves partition the *budget's* shard plan by shard index, so
    // every shard's shots and RNG stream are the same at any wave
    // size: waved counts are bit-identical to a single wave.
    state->plan = shardPlan(budget, job.seed, *backend);
    if (rule.waveShots > 0) {
        // Round the requested wave size up to whole shards.
        const std::size_t avg_shard = std::max<std::size_t>(
            1, budget / state->plan.size());
        state->perWave = std::clamp<std::size_t>(
            (rule.waveShots + avg_shard - 1) / avg_shard, 1,
            state->plan.size());
    } else if (!rule.enabled()) {
        // No convergence target and no explicit wave size: one wave
        // of the whole plan (full shard parallelism).
        state->perWave = state->plan.size();
    } else {
        // Auto wave size: about one shard per pool thread keeps the
        // pool busy within a wave without overshooting the stopping
        // point by more than a pool-width of shards.
        state->perWave = std::clamp<std::size_t>(
            pool_.size(), 1, state->plan.size());
    }
    state->lanes = checkAndLaneCount(job, backend, state->perWave);
    state->budget = budget;
    state->numClbits = job.circuit->numClbits();
    state->merged = Result(state->numClbits);

    // Resume: adopt a prior run's cursor after validating that it
    // describes THIS job's shard plan — same circuit, seed, budget,
    // and shard decomposition — so the continued merge is
    // bit-identical to an uninterrupted run. The stopping rule is
    // deliberately not matched: resuming with a tighter target is the
    // refine-an-estimate use case.
    if (job.resumeFrom) {
        const JobCheckpoint &ck = *job.resumeFrom;
        if (!ck.valid())
            throw ValueError("resume checkpoint was never written "
                             "(invalid)");
        if (ck.circuitHash != job.circuit->hash())
            throw ValueError(
                "resume checkpoint is for a different circuit");
        if (ck.seed != job.seed)
            throw ValueError(
                "resume checkpoint is for a different seed");
        if (ck.budget != budget)
            throw ValueError(
                "resume checkpoint is for a different shot budget");
        if (ck.planShards != state->plan.size())
            throw ValueError(
                "resume checkpoint shard plan does not match this "
                "engine's (different shardShots/maxShards?)");
        if (ck.merged.shots() > 0 &&
            ck.merged.numClbits() != state->numClbits)
            throw ValueError(
                "resume checkpoint counts have the wrong register "
                "width");
        state->nextShard = std::min(ck.nextShard, ck.planShards);
        state->wave = ck.wave;
        if (ck.merged.shots() > 0)
            state->merged = ck.merged;
        state->resumedShots = ck.merged.shots();
        obs::count(engineMetrics().resumedShots,
                   state->resumedShots);
    }

    state->backend = backend;
    state->job = std::move(job);
    state->progress = std::move(on_progress);
    state->done = std::move(on_complete);
    state->start = start_time;
    state->launchWave = [this](std::shared_ptr<JobState> st) {
        const std::size_t begin = st->nextShard;
        st->waveBegin = begin;
        const std::size_t count =
            std::min(st->perWave, st->plan.size() - begin);
        st->nextShard = begin + count;
        if (obs::tracingEnabled()) {
            // Wave shards cross threads, so the wave itself is an
            // async begin/end pair closed by the wave epilogue.
            st->waveSpanId = obs::Tracer::global().nextAsyncId();
            obs::asyncBegin("engine", "wave", st->waveSpanId,
                            {{"wave", st->wave + 1},
                             {"shards", count}});
        }
        runShards(
            st->job, st->backend, st->plan, begin, count, st->lanes,
            std::shared_ptr<std::atomic<std::size_t>>(st,
                                                      &st->retryCount),
            [st](std::vector<Result> parts, std::exception_ptr error) {
                // An epilogue throw (merge failure, next-wave dispatch
                // onto a stopping pool) would vanish into this task's
                // discarded future and leave the job uncompleted;
                // deliver it instead.
                try {
                    finishWave(st, parts, error);
                } catch (...) {
                    fail(*st, std::current_exception());
                }
            });
    };
    // A resumed checkpoint may leave no shards to run: the empty wave
    // goes straight to the epilogue, which re-evaluates the rule on
    // the merged counts and completes.
    state->launchWave(state);
}

AssertionReport
ExecutionEngine::runInstrumented(const InstrumentedCircuit &inst,
                                 std::size_t shots,
                                 const std::string &backend,
                                 std::uint64_t seed,
                                 const NoiseModel *noise,
                                 Result *result_out)
{
    const Result result =
        run(inst.circuit(), shots, backend, seed, noise);
    if (result_out != nullptr)
        *result_out = result;
    return analyze(inst, result);
}

} // namespace runtime
} // namespace qra
