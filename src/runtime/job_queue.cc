#include "runtime/job_queue.hh"

#include "common/error.hh"
#include "common/hash.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace qra {
namespace runtime {

namespace {

/** Registered-once handles for the queue's metrics. */
struct QueueMetrics
{
    obs::CounterHandle jobs;
    obs::CounterHandle prepareHits;
    obs::CounterHandle prepareMisses;
    obs::CounterHandle prepareEvictions;
    obs::HistogramHandle submitToCompleteNs;
};

const QueueMetrics &
queueMetrics()
{
    static const QueueMetrics metrics = []() {
        obs::MetricsRegistry &reg = obs::MetricsRegistry::global();
        QueueMetrics m;
        m.jobs = reg.counter("jobqueue.jobs");
        m.prepareHits = reg.counter("jobqueue.prepare_cache.hits");
        m.prepareMisses =
            reg.counter("jobqueue.prepare_cache.misses");
        m.prepareEvictions =
            reg.counter("jobqueue.prepare_cache.evictions");
        m.submitToCompleteNs =
            reg.histogram("jobqueue.submit_to_complete_ns");
        return m;
    }();
    return metrics;
}

} // namespace

JobQueue::JobQueue(ExecutionEngine &engine)
    : engine_(engine),
      artifacts_(std::make_shared<kernels::PlanCache>())
{
}

compile::PrepareSpec
prepareSpec(const JobSpec &spec)
{
    compile::PrepareSpec prep;
    prep.assertions = spec.assertions;
    prep.instrumentOptions = spec.instrumentOptions;
    prep.injection = spec.injection;
    prep.autoAssert = spec.autoAssert;
    prep.coupling = spec.coupling;
    return prep;
}

std::uint64_t
JobQueue::prepareKey(const JobSpec &spec,
                     std::uint64_t pipeline_fingerprint)
{
    std::uint64_t h = spec.circuit.hash();
    // Device data: the same recipe over a different coupling map
    // transpiles differently.
    if (spec.coupling != nullptr) {
        h = fnv1aMix64(h, spec.coupling->numQubits());
        for (const auto &[control, target] : spec.coupling->edges()) {
            h = fnv1aMix64(h, static_cast<std::uint64_t>(control));
            h = fnv1aMix64(h, static_cast<std::uint64_t>(target));
        }
    }
    // The pipeline fingerprint covers every knob that changes the
    // prepared circuit (instrument options, injection strategy,
    // semantic assertion fingerprints) — and only those: options on
    // passes the pipeline does not contain (e.g. instrument options
    // without assertions) never fragment the cache, because
    // preparePipeline() simply leaves those passes out. Building the
    // pipeline just to fingerprint it costs a few microseconds per
    // submission; keeping the recipe's single source of truth beats a
    // hand-maintained parallel fold.
    return fnv1aMix64(h, pipeline_fingerprint);
}

std::shared_ptr<const JobQueue::Prepared>
JobQueue::prepare(const JobSpec &spec, bool count_stats,
                  PrepInfo *info)
{
    const compile::PrepareSpec prep = prepareSpec(spec);
    const compile::PassManager pipeline =
        compile::preparePipeline(prep);
    Memo<Prepared>::Lookup found = prepared_.get(
        prepareKey(spec, pipeline.fingerprint()), [&]() {
            // Fault hook for the prepare pipeline (see fault.hh); the
            // attempt index counts builds across the queue's lifetime
            // so a `prepare:throw` site poisons exactly one build.
            maybeInjectFault(
                spec.faults.get(), FaultSite::Scope::Prepare, 0,
                prepareAttempts_.fetch_add(1, std::memory_order_relaxed));
            // One timing source of truth: the TimedSpan both feeds the
            // `prepare` trace span (when tracing) and PrepInfo.seconds.
            obs::TimedSpan span("queue", "prepare",
                                {{"ops", spec.circuit.size()}});
            compile::CompileContext ctx =
                compile::prepare(spec.circuit, prep, pipeline);
            const double prepare_seconds = span.stop();
            if (info != nullptr)
                info->seconds = prepare_seconds;
            auto prepared = std::make_shared<Prepared>();
            prepared->instrumented = ctx.instrumented;
            prepared->circuit =
                std::make_shared<const Circuit>(std::move(ctx.circuit));
            return prepared;
        });
    if (info != nullptr)
        info->cacheHit = found.hit;
    if (count_stats) {
        std::lock_guard<std::mutex> lock(mutex_);
        if (found.hit) {
            ++hits_;
            obs::count(queueMetrics().prepareHits);
        } else {
            ++misses_;
            obs::count(queueMetrics().prepareMisses);
        }
        obs::count(queueMetrics().prepareEvictions, found.evicted);
    }
    return std::move(found.value);
}

Job
JobQueue::makeJob(const JobSpec &spec, PrepInfo *info)
{
    obs::count(queueMetrics().jobs);
    const std::shared_ptr<const Prepared> prepared =
        prepare(spec, /*count_stats=*/true, info);
    Job job;
    job.circuit = prepared->circuit;
    job.shots = spec.shots;
    job.backend = spec.backend;
    job.seed = spec.seed;
    job.noise = spec.noise;
    job.artifacts = artifactCache();
    job.stopping = spec.stopping;
    job.instrumented = prepared->instrumented;
    job.cancel = spec.cancel;
    job.deadlineMs = spec.deadlineMs;
    job.retry = spec.retry;
    job.faults = spec.faults;
    job.checkpoint = spec.checkpoint;
    job.resumeFrom = spec.resumeFrom;
    return job;
}

JobQueue::Completion
JobQueue::stamped(Completion on_complete, PrepInfo info)
{
    const auto submitted = obs::Tracer::Clock::now();
    return [callback = std::move(on_complete), info,
            submitted](Result result, std::exception_ptr error) {
        if (!error) {
            ExecStats stats = result.execStats();
            stats.prepareCacheHit = info.cacheHit;
            stats.prepareSeconds = info.seconds;
            result.setExecStats(stats);
        }
        if (obs::metricsEnabled()) {
            const auto now = obs::Tracer::Clock::now();
            obs::observe(
                queueMetrics().submitToCompleteNs,
                static_cast<std::uint64_t>(
                    std::chrono::duration_cast<
                        std::chrono::nanoseconds>(now - submitted)
                        .count()));
        }
        callback(std::move(result), error);
    };
}

std::future<Result>
JobQueue::submit(const JobSpec &spec)
{
    // Heap-held promise: the pool-side callback may still be inside
    // set_value's epilogue when get() unblocks the consumer. The
    // completion touches no queue member and is not tracked by
    // waitIdle(), so the future may outlive the queue.
    auto promise = std::make_shared<std::promise<Result>>();
    std::future<Result> future = promise->get_future();
    launch(spec, nullptr,
           [promise](Result result, std::exception_ptr error) {
               if (error)
                   promise->set_exception(error);
               else
                   promise->set_value(std::move(result));
           },
           /*track=*/false);
    return future;
}

void
JobQueue::submit(const JobSpec &spec, Completion on_complete)
{
    if (!on_complete)
        throw ValueError("submit requires a completion callback");
    launch(spec, nullptr, std::move(on_complete), /*track=*/true);
}

void
JobQueue::submit(const JobSpec &spec, Progress on_progress,
                 Completion on_complete)
{
    if (!on_complete)
        throw ValueError("submit requires a completion callback");
    launch(spec, std::move(on_progress), std::move(on_complete),
           /*track=*/true);
}

void
JobQueue::launch(const JobSpec &spec, Progress on_progress,
                 Completion on_complete, bool track)
{
    PrepInfo info;
    Job job = makeJob(spec, &info);
    Completion done = stamped(std::move(on_complete), info);
    auto finish_one = [this]() {
        // Notify under the lock: once waitIdle() observes
        // outstanding_ == 0 the queue may be destroyed, so this
        // thread must be done touching members before the waiter can
        // acquire the mutex and return.
        std::lock_guard<std::mutex> lock(mutex_);
        --outstanding_;
        idle_.notify_all();
    };
    if (track) {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            ++outstanding_;
        }
        done = [callback = std::move(done),
                finish_one](Result result, std::exception_ptr error) {
            try {
                callback(std::move(result), error);
            } catch (...) {
                finish_one();
                throw;
            }
            finish_one();
        };
    }
    try {
        engine_.submitAsync(std::move(job), std::move(done),
                            std::move(on_progress));
    } catch (...) {
        // Synchronous dispatch failure: the callback will never run.
        if (track)
            finish_one();
        throw;
    }
}

void
JobQueue::waitIdle()
{
    std::unique_lock<std::mutex> lock(mutex_);
    idle_.wait(lock, [this]() { return outstanding_ == 0; });
}

std::vector<Result>
JobQueue::runAll(const std::vector<JobSpec> &specs)
{
    std::vector<std::future<Result>> futures;
    futures.reserve(specs.size());
    for (const JobSpec &spec : specs)
        futures.push_back(submit(spec));
    std::vector<Result> results;
    results.reserve(futures.size());
    for (std::future<Result> &future : futures)
        results.push_back(future.get());
    return results;
}

std::shared_ptr<const InstrumentedCircuit>
JobQueue::instrumented(const JobSpec &spec)
{
    return prepare(spec, /*count_stats=*/false)->instrumented;
}

std::size_t
JobQueue::cacheHits() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return hits_;
}

std::size_t
JobQueue::cacheMisses() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return misses_;
}

std::shared_ptr<kernels::PlanCache>
JobQueue::artifactCache() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return artifacts_;
}

void
JobQueue::clearCache()
{
    prepared_.clear();
    std::lock_guard<std::mutex> lock(mutex_);
    // In-flight jobs hold their own reference; swapping the artifact
    // cache leaves them untouched and starts future jobs cold.
    artifacts_ = std::make_shared<kernels::PlanCache>();
    hits_ = 0;
    misses_ = 0;
}

} // namespace runtime
} // namespace qra
