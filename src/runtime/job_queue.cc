#include "runtime/job_queue.hh"

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

/**
 * Drop @p circuit's unused slots: weaving and routing grow a circuit
 * by doubling, and a copy is exact.
 */
void
shrinkToFit(Circuit &circuit)
{
    if (circuit.ops().capacity() > circuit.size())
        circuit = Circuit(circuit);
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
            // The entry keeps its circuits while it lives: at most one
            // copy each per miss, so it holds no unused slots.
            shrinkToFit(ctx.circuit);
            if (ctx.instrumented != nullptr)
                shrinkToFit(ctx.instrumented->circuit());
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
    job.artifacts = artifacts_;
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

ExecutionEngine::Completion
JobQueue::stamped(std::shared_ptr<std::promise<Result>> promise,
                  PrepInfo info)
{
    const auto submitted = obs::Tracer::Clock::now();
    return [promise = std::move(promise), info,
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
        if (error)
            promise->set_exception(error);
        else
            promise->set_value(std::move(result));
    };
}

std::future<Result>
JobQueue::submit(const JobSpec &spec)
{
    // Heap-held promise: the pool-side completion may still be inside
    // set_value's epilogue when get() unblocks the consumer. The
    // completion touches no queue member, so the future may outlive
    // the queue.
    auto promise = std::make_shared<std::promise<Result>>();
    std::future<Result> future = promise->get_future();
    PrepInfo info;
    Job job = makeJob(spec, &info);
    engine_.submitAsync(std::move(job), stamped(std::move(promise), info));
    return future;
}

std::vector<Result>
JobQueue::runAll(const std::vector<JobSpec> &specs)
{
    std::vector<std::future<Result>> futures;
    futures.reserve(specs.size());
    std::exception_ptr dispatch_error;
    try {
        for (const JobSpec &spec : specs)
            futures.push_back(submit(spec));
    } catch (...) {
        dispatch_error = std::current_exception();
    }
    // A dispatched job reads its spec's noise model and writes its
    // checkpoint until it finishes: let every one finish before any
    // error reaches the caller, who may then release both.
    for (const std::future<Result> &future : futures)
        future.wait();
    if (dispatch_error)
        std::rethrow_exception(dispatch_error);
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
    return artifacts_;
}

} // namespace runtime
} // namespace qra
