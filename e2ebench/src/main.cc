/**
 * @file
 * qra_e2ebench: end-to-end benchmark of the assertion runtime on the
 * paper's workloads, driven through the public API as a user would —
 * QASM text -> parseAnnotatedQasm -> JobQueue::submit -> analyze.
 *
 *   qra_e2ebench --workload NAME --seed N --seconds S --trace 0|1
 *                [--trace-out PREFIX]
 *
 * Closed loop: one client thread, one job outstanding, a 1-thread
 * engine, the process pinned to one core. Work-bounded: the job list
 * is generated from the seed and --seconds before anything is timed,
 * and an untraced run makes five passes over it, reporting medians of
 * process CPU time rescaled by a host-speed probe taken before every
 * job. Every job's output is checked. The last stdout
 * line is one JSON object {correct, attempted, failed, metrics}:
 * end-to-end metrics with --trace 0, per-layer metrics with --trace 1
 * (see README.md for every metric).
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "replay.hh"
#include "speed_probe.hh"
#include "workloads.hh"

using namespace qra;
using namespace e2e;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string traceOut = "e2ebench";
    /** The core the process is pinned to, or -1. */
    int cpu = -1;
};

/**
 * Independent timed passes per untraced run, each on a fresh set-up
 * over the same seeded job list. Every end-to-end metric is the median
 * over the passes, so one pass hit by host interference (a burst of
 * steal time on a shared machine) does not move it.
 */
constexpr std::size_t kPasses = 5;

/**
 * Worker threads of the measured engine. With one, a job's process CPU
 * time is its service time: no lane waits on a sibling lane that the
 * host has descheduled, and no idle lane is charged. (A pool of
 * hardware-concurrency lanes made 5-qubit density jobs ~2x slower and
 * their latency a measure of the host's scheduler.)
 */
constexpr std::size_t kEngineThreads = 1;

/** Probes on each side of a job that set its slowdown estimate. */
constexpr std::size_t kProbeRadius = 1;

/** Probes taken before and after a set-up to rescale it. */
constexpr std::size_t kSetupProbes = 5;

/** Samples the tail percentile must leave beyond it. */
constexpr std::size_t kTailBeyond = 10;

/**
 * The tail of @p n sorted samples: the highest of p99.9/p99/p95/p90
 * that leaves at least kTailBeyond samples beyond it (nearest rank),
 * else the sample with exactly kTailBeyond beyond. Returns the
 * percentile and the sample's index.
 */
std::pair<double, std::size_t>
tailPercentile(std::size_t n)
{
    for (const double p : {99.9, 99.0, 95.0, 90.0}) {
        const auto rank = static_cast<std::size_t>(
            std::ceil(p / 100.0 * static_cast<double>(n)));
        if (rank >= 1 && n - rank >= kTailBeyond)
            return {p, rank - 1};
    }
    const std::size_t index = n > kTailBeyond ? n - kTailBeyond - 1 : 0;
    return {100.0 * static_cast<double>(index + 1) /
                static_cast<double>(n),
            index};
}

/** Everything one timed phase needs, built by setUp(). */
struct Session
{
    std::unique_ptr<Devices> devices;
    Workload workload;
    std::unique_ptr<runtime::ExecutionEngine> engine;
    std::unique_ptr<runtime::JobQueue> queue;
    std::unique_ptr<OutputChecker> checker;
};

/** One job down the user path, timed from text in to report out. */
struct JobRun
{
    Result result;
    std::shared_ptr<const InstrumentedCircuit> instrumented;
    AssertionReport report;
    /** Wall time. */
    double seconds = 0.0;
    /** Process CPU time. */
    double cpuSeconds = 0.0;
};

JobRun
runJob(runtime::JobQueue &queue, const Workload &workload,
       const JobInput &job)
{
    JobRun run;
    const double cpu_start = processCpuSeconds();
    const Clock::time_point start = Clock::now();
    const AnnotatedProgram program = parseAnnotatedQasm(job.qasm);
    const runtime::JobSpec spec = makeSpec(workload, job, program);
    run.result = queue.submit(spec).get();
    run.instrumented = queue.instrumented(spec);
    if (run.instrumented)
        run.report = analyze(*run.instrumented, run.result);
    run.seconds = secondsSince(start);
    run.cpuSeconds = processCpuSeconds() - cpu_start;
    return run;
}

/**
 * Build engine, queue, devices and inputs, precompute output
 * references, and run the warm-up jobs: each distinct paper circuit
 * once (its prepare and plan builds), or a few never-timed jobs of
 * the generated families.
 */
std::unique_ptr<Session>
setUp(const Options &options, std::size_t job_count)
{
    auto session = std::make_unique<Session>();
    session->devices = std::make_unique<Devices>();
    session->workload = makeWorkload(options.workload, options.seed,
                                     job_count, *session->devices);
    session->engine = std::make_unique<runtime::ExecutionEngine>(
        runtime::EngineOptions{.threads = kEngineThreads});
    session->queue =
        std::make_unique<runtime::JobQueue>(*session->engine);
    session->checker = std::make_unique<OutputChecker>(
        session->workload, session->engine->registry());
    for (const JobInput &job : session->workload.warmup)
        runJob(*session->queue, session->workload, job);
    return session;
}

/** The traced pass's extra bookkeeping (null in untraced passes). */
struct Tracing
{
    Replayer *replayer = nullptr;
    LayerTotals totals;
    double engineSeconds = 0.0;
};

struct PassResult
{
    /** Wall time of each job. */
    std::vector<double> latencies;
    /** Process CPU time of each job. */
    std::vector<double> cpuLatencies;
    /** Host slowdown probed right before each job (untraced passes). */
    std::vector<double> probes;
    /** Workload kind of each latency sample. */
    std::vector<std::size_t> latencyKinds;
    std::size_t failed = 0;
    std::vector<std::string> failures;
    /** Pooled output-check summaries. */
    std::vector<std::string> notes;
    /** Counts of the job the determinism spot-check re-runs. */
    Result designated;
};

/** The job re-run on a default-size pool after the timed phase. */
std::size_t
designatedJob(const Workload &workload)
{
    return workload.jobs.size() / 2;
}

PassResult
timedPass(Session &session, Tracing *tracing, SpeedProbe *probe = nullptr)
{
    const Workload &workload = session.workload;
    PassResult pass;
    std::vector<bool> job_failed(workload.jobs.size(), false);
    auto fail = [&](std::size_t i, const std::string &why) {
        if (!job_failed[i]) {
            job_failed[i] = true;
            ++pass.failed;
        }
        if (pass.failures.size() < 5)
            pass.failures.push_back("job " + std::to_string(i) + " (" +
                                    workload.kinds[workload.jobs[i].kind]
                                        .name +
                                    "): " + why);
    };

    for (std::size_t i = 0; i < workload.jobs.size(); ++i) {
        const JobInput &job = workload.jobs[i];
        try {
            const double slowdown = probe ? probe->sample() : 0.0;
            Result replayed;
            if (tracing)
                replayed = tracing->replayer->replay(workload, job,
                                                     tracing->totals);
            JobRun run = runJob(*session.queue, workload, job);
            pass.latencies.push_back(run.seconds);
            pass.cpuLatencies.push_back(run.cpuSeconds);
            if (probe)
                pass.probes.push_back(slowdown);
            pass.latencyKinds.push_back(job.kind);
            const std::string why = session.checker->check(
                job, run.result, run.instrumented, run.report);
            if (!why.empty())
                fail(i, why);
            if (tracing) {
                tracing->engineSeconds +=
                    run.result.execStats().engineSeconds;
                if (replayed.rawCounts() != run.result.rawCounts())
                    fail(i, "layered replay counts differ from the "
                            "queue's");
            }
            if (i == designatedJob(workload))
                pass.designated = std::move(run.result);
        } catch (const std::exception &e) {
            fail(i, std::string("threw: ") + e.what());
        }
    }

    for (const auto &[kind, why] : session.checker->finish(pass.notes))
        for (std::size_t i = 0; i < workload.jobs.size(); ++i)
            if (workload.jobs[i].kind == kind)
                fail(i, "pooled shape check: " + why);
    return pass;
}

/**
 * Determinism spot-check: the designated job on a fresh engine with a
 * pool of the default size (hardware concurrency) must reproduce the
 * 1-thread timed run's counts bit for bit.
 */
std::string
determinismCheck(const Session &session, const PassResult &pass)
{
    runtime::ExecutionEngine pooled;
    runtime::JobQueue queue(pooled);
    const Workload &workload = session.workload;
    try {
        const JobRun run = runJob(queue, workload,
                                  workload.jobs[designatedJob(workload)]);
        if (run.result.rawCounts() != pass.designated.rawCounts())
            return "pooled counts differ from the 1-thread run's";
    } catch (const std::exception &e) {
        return std::string("pooled re-run threw: ") + e.what();
    }
    return "";
}

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
sum(const std::vector<double> &values)
{
    return std::accumulate(values.begin(), values.end(), 0.0);
}

/**
 * Steal and total CPU time since boot, in jiffies, from /proc/stat:
 * the share of time the host ran something else while this machine's
 * CPUs were runnable, printed so a slow run can be told apart.
 */
std::pair<double, double>
stealAndTotalJiffies()
{
    std::ifstream stat("/proc/stat");
    std::string label;
    stat >> label;
    double steal = 0.0;
    double total = 0.0;
    double value = 0.0;
    for (int field = 0; field < 8 && stat >> value; ++field) {
        total += value;
        if (field == 7)
            steal = value;
    }
    return {steal, total};
}

/** Peak resident set (VmHWM) of this process in MiB. */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    return 0.0;
}

/** Metric entries of the result line, in insertion order. */
class Metrics
{
  public:
    void add(const std::string &name, double value, const char *unit)
    {
        if (!std::isfinite(value))
            value = 0.0;
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", value);
        if (!body_.empty())
            body_ += ", ";
        body_ += "\"" + name + "\": {\"value\": " + buf +
                 ", \"unit\": \"" + unit + "\"}";
    }
    std::string json() const { return "{" + body_ + "}"; }

  private:
    std::string body_;
};

void
printIdentity(const Options &options, const Session &session)
{
    const Workload &w = session.workload;
    std::printf(
        "{\"identity\": {\"workload\": \"%s\", \"seed\": %llu, "
        "\"seconds\": %g, \"jobs\": %zu, \"shots_per_job\": %zu, "
        "\"engine_threads\": %zu, \"nproc\": %u, \"pinned_cpu\": %d, "
        "\"simd_tier\": \"%s\", \"build_type\": \"%s\", "
        "\"trace\": %d}}\n",
        w.name.c_str(),
        static_cast<unsigned long long>(options.seed), options.seconds,
        w.jobs.size(), w.shots, session.engine->threads(),
        std::thread::hardware_concurrency(), options.cpu,
        kernels::simd::tierName(kernels::simd::currentTier()),
        QRA_E2E_BUILD_TYPE, options.trace ? 1 : 0);
}

void
printResult(bool correct, std::size_t attempted, std::size_t failed,
            const Metrics &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false", attempted, failed,
                metrics.json().c_str());
}

/** Print per-circuit CPU times, pooled checks and failures. */
std::size_t
report(const Workload &workload, const PassResult &pass)
{
    for (std::size_t k = 0; k < workload.kinds.size(); ++k) {
        std::vector<double> mine;
        for (std::size_t i = 0; i < pass.cpuLatencies.size(); ++i)
            if (pass.latencyKinds[i] == k)
                mine.push_back(pass.cpuLatencies[i]);
        if (mine.empty())
            continue;
        std::sort(mine.begin(), mine.end());
        auto at = [&](double q) {
            return 1e3 * mine[static_cast<std::size_t>(
                             q * static_cast<double>(mine.size() - 1))];
        };
        std::printf("kind %-16s %4zu jobs, cpu ms min %.2f p25 %.2f "
                    "p50 %.2f p75 %.2f max %.2f\n",
                    workload.kinds[k].name.c_str(), mine.size(), at(0.0),
                    at(0.25), at(0.5), at(0.75), at(1.0));
    }
    for (const std::string &note : pass.notes)
        std::printf("%s\n", note.c_str());
    for (const std::string &why : pass.failures)
        std::printf("FAILED %s\n", why.c_str());
    return pass.failed;
}

/** Run and print the determinism spot-check; returns 1 on failure. */
std::size_t
reportDeterminism(const Session &session, const PassResult &pass)
{
    const std::string why = determinismCheck(session, pass);
    std::printf("determinism spot-check (pool vs 1 thread): %s\n",
                why.empty() ? "identical" : why.c_str());
    return why.empty() ? 0 : 1;
}

/** Median host slowdown over @p count probes. */
double
probeSlowdown(SpeedProbe &probe, std::size_t count)
{
    std::vector<double> samples;
    for (std::size_t i = 0; i < count; ++i)
        samples.push_back(probe.sample());
    return median(samples);
}

int
runUntraced(const Options &options, std::size_t job_count)
{
    SpeedProbe probe;
    std::vector<double> setups, rates, p50s, tails;
    std::size_t attempted = 1;
    std::size_t failed = 0;
    for (std::size_t p = 0; p < kPasses; ++p) {
        const double before = probeSlowdown(probe, kSetupProbes);
        const double cpu_start = processCpuSeconds();
        const std::unique_ptr<Session> session = setUp(options, job_count);
        const double setup_cpu = processCpuSeconds() - cpu_start;
        const double after = probeSlowdown(probe, kSetupProbes);
        setups.push_back(setup_cpu / (0.5 * (before + after)));
        if (p == 0)
            printIdentity(options, *session);

        const auto [steal0, total0] = stealAndTotalJiffies();
        const PassResult pass = timedPass(*session, nullptr, &probe);
        const auto [steal1, total1] = stealAndTotalJiffies();
        attempted += session->workload.jobs.size();
        failed += report(session->workload, pass);
        if (p + 1 == kPasses)
            failed += reportDeterminism(*session, pass);

        // Each job's CPU time at the reference host's quiet speed.
        const std::vector<double> slowdowns =
            smoothSlowdowns(pass.probes, kProbeRadius);
        std::vector<double> sorted(pass.cpuLatencies.size());
        for (std::size_t i = 0; i < sorted.size(); ++i)
            sorted[i] = pass.cpuLatencies[i] / slowdowns[i];
        std::sort(sorted.begin(), sorted.end());
        const std::size_t n = sorted.size();
        const auto [tail_p, tail_index] = tailPercentile(n);
        rates.push_back(static_cast<double>(n) / sum(sorted));
        p50s.push_back(1e3 * median(sorted));
        tails.push_back(1e3 * sorted[tail_index]);
        std::printf("pass %zu: jobs_per_cpu_s %.3f, cpu p50 %.3f ms, tail "
                    "p%.1f of %zu samples (%zu beyond) %.3f ms, set-up "
                    "%.4f s; host slowdown median %.3f (min %.3f, max "
                    "%.3f); raw cpu p50 %.3f ms; wall jobs_per_s %.3f, "
                    "p50 %.3f ms; host steal %.1f%% of CPU time\n",
                    p + 1, rates.back(), p50s.back(), tail_p, n,
                    n - tail_index - 1, tails.back(), setups.back(),
                    median(pass.probes),
                    *std::min_element(pass.probes.begin(),
                                      pass.probes.end()),
                    *std::max_element(pass.probes.begin(),
                                      pass.probes.end()),
                    1e3 * median(pass.cpuLatencies),
                    static_cast<double>(n) / sum(pass.latencies),
                    1e3 * median(pass.latencies),
                    total1 > total0
                        ? 100.0 * (steal1 - steal0) / (total1 - total0)
                        : 0.0);
    }
    std::printf("failed_frac %.6f\n", static_cast<double>(failed) /
                                          static_cast<double>(attempted));

    Metrics metrics;
    metrics.add("setup_s", median(setups), "s");
    metrics.add("jobs_per_cpu_s", median(rates), "1/s");
    metrics.add("job_cpu_p50_ms", median(p50s), "ms");
    metrics.add("job_cpu_tail_ms", median(tails), "ms");
    metrics.add("peak_rss_mb", peakRssMb(), "MiB");
    printResult(failed == 0, attempted, failed, metrics);
    return 0;
}

int
runTraced(const Options &options, std::size_t job_count)
{
    // Untraced reference pass for obs.trace_overhead_frac, on its
    // own session so the traced pass starts from the same cold caches.
    double untraced_seconds = 0.0;
    {
        std::unique_ptr<Session> session = setUp(options, job_count);
        untraced_seconds = sum(timedPass(*session, nullptr).latencies);
    }

    std::unique_ptr<Session> session = setUp(options, job_count);
    printIdentity(options, *session);
    runtime::JobQueue &queue = *session->queue;
    Replayer replayer(*session->engine);
    {
        // Warm the replay's caches exactly as setUp warmed the queue's.
        LayerTotals discard;
        for (const JobInput &job : session->workload.warmup)
            replayer.replay(session->workload, job, discard);
    }

    const std::size_t hits0 = queue.cacheHits();
    const std::size_t misses0 = queue.cacheMisses();
    const kernels::PlanCache::Stats art0 = queue.artifactCache()->stats();
    obs::Tracer &tracer = obs::Tracer::global();
    tracer.setRingCapacity(
        std::max(obs::Tracer::kDefaultRingCapacity, job_count * 64));
    tracer.clear();
    obs::MetricsRegistry::global().reset();
    obs::setMetricsEnabled(true);
    obs::setTracingEnabled(true);

    Tracing tracing;
    tracing.replayer = &replayer;
    const PassResult pass = timedPass(*session, &tracing);

    obs::setTracingEnabled(false);
    obs::setMetricsEnabled(false);
    const obs::MetricsSnapshot snapshot =
        obs::MetricsRegistry::global().snapshot();
    {
        std::ofstream trace_file(options.traceOut + ".trace.json");
        tracer.writeChromeJson(trace_file);
        std::ofstream metrics_file(options.traceOut + ".metrics.json");
        metrics_file << snapshot.toJson() << "\n";
    }
    const std::size_t failed = report(session->workload, pass) +
                               reportDeterminism(*session, pass);

    const double n = static_cast<double>(pass.latencies.size());
    const double wall = sum(pass.latencies);
    const LayerTotals &t = tracing.totals;
    auto histogram_sum_s = [&](const char *name) {
        const auto it = snapshot.histograms.find(name);
        return it == snapshot.histograms.end()
                   ? 0.0
                   : static_cast<double>(it->second.sum) * 1e-9;
    };
    auto counter = [&](const char *name) {
        const auto it = snapshot.counters.find(name);
        return it == snapshot.counters.end()
                   ? 0.0
                   : static_cast<double>(it->second);
    };
    auto ratio = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };
    auto per_job_ms = [&](double seconds) { return 1e3 * seconds / n; };
    auto run_ms = [&](const std::string &backend) {
        const auto it = t.run.find(runLayerName(backend));
        return per_job_ms(it == t.run.end() ? 0.0 : it->second);
    };

    const double hits = static_cast<double>(queue.cacheHits() - hits0);
    const double misses =
        static_cast<double>(queue.cacheMisses() - misses0);
    const kernels::PlanCache::Stats art = queue.artifactCache()->stats();
    const double art_hits = static_cast<double>(art.hits - art0.hits);
    const double art_misses =
        static_cast<double>(art.misses - art0.misses);

    Metrics metrics;
    metrics.add("circuit.parse_ms", per_job_ms(t.parse), "ms");
    metrics.add("compile.analysis_ms", per_job_ms(t.analysis), "ms");
    metrics.add("compile.prepare_ms", per_job_ms(t.prepare), "ms");
    metrics.add("sim.kernels.lower_ms", per_job_ms(t.lower), "ms");
    metrics.add("sim.density.run_ms", run_ms("density"), "ms");
    metrics.add("sim.trajectory.run_ms", run_ms("trajectory"), "ms");
    metrics.add("sim.statevector.run_ms", run_ms("statevector"), "ms");
    metrics.add("stabilizer.run_ms", run_ms("stabilizer"), "ms");
    metrics.add("sim.result.merge_ms", per_job_ms(t.merge), "ms");
    metrics.add("assertions.decode_ms", per_job_ms(t.decode), "ms");
    metrics.add("runtime.engine.overhead_ms",
                per_job_ms(tracing.engineSeconds -
                           histogram_sum_s("engine.shard.run_ns")),
                "ms");
    metrics.add("runtime.engine.queue_wait_ms",
                per_job_ms(histogram_sum_s("engine.shard.queue_wait_ns")),
                "ms");
    metrics.add("runtime.engine.shards_per_job",
                counter("engine.shards") / n, "count");
    metrics.add("runtime.engine.lanes_per_shard",
                ratio(static_cast<double>(t.lanes),
                      static_cast<double>(t.shards)),
                "count");
    metrics.add("runtime.jobqueue.prepare_hit_ratio",
                ratio(hits, hits + misses), "frac");
    metrics.add("runtime.jobqueue.prepare_cache_entries",
                static_cast<double>(queue.cacheMisses()), "count");
    metrics.add("runtime.jobqueue.artifact_hit_ratio",
                ratio(art_hits, art_hits + art_misses), "frac");
    metrics.add("plan_cache.hits", art_hits, "count");
    metrics.add("plan_cache.misses", art_misses, "count");
    metrics.add("plan_cache.evictions",
                static_cast<double>(art.evictions - art0.evictions),
                "count");
    metrics.add("compile.inserted_swaps",
                static_cast<double>(t.insertedSwaps) / n, "count");
    metrics.add("compile.inserted_gates",
                static_cast<double>(t.insertedGates) / n, "count");
    metrics.add("assertions.checks_per_job",
                static_cast<double>(t.checks) / n, "count");
    metrics.add("runtime.job_wall_ms", per_job_ms(wall), "ms");
    metrics.add("runtime.glue_ms", per_job_ms(wall - t.sum()), "ms");
    metrics.add("layer_closure_frac", ratio(t.sum(), wall), "frac");
    metrics.add("obs.trace_overhead_frac",
                1.0 - ratio(untraced_seconds, wall), "frac");
    std::printf("layer_closure_frac %.4f (replayed layers %.3f s over "
                "job wall %.3f s); trace overhead %.4f\n",
                ratio(t.sum(), wall), t.sum(), wall,
                1.0 - ratio(untraced_seconds, wall));
    printResult(failed == 0, pass.latencies.size() + 1, failed, metrics);
    return 0;
}

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "qra_e2ebench: %s\nusage: qra_e2ebench --workload "
                 "NAME --seed N --seconds S --trace 0|1 "
                 "[--trace-out PREFIX]\n",
                 why);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + arg).c_str());
        const std::string value = argv[++i];
        if (arg == "--workload")
            options.workload = value;
        else if (arg == "--seed")
            options.seed = std::stoull(value);
        else if (arg == "--seconds")
            options.seconds = std::stod(value);
        else if (arg == "--trace")
            options.trace = value == "1";
        else if (arg == "--trace-out")
            options.traceOut = value;
        else
            return usage(("unknown argument " + arg).c_str());
    }
    const auto &names = workloadNames();
    if (std::find(names.begin(), names.end(), options.workload) ==
        names.end())
        return usage("unknown or missing --workload");
    if (!(options.seconds > 0.0))
        return usage("--seconds must be positive");
    // Before any thread starts, so every thread inherits the mask.
    options.cpu = pinToCurrentCpu();

    // Work-bounded: the job count of a pass is fixed before anything
    // is timed, with enough samples for a tail percentile. An untraced
    // run makes kPasses passes; a traced run makes an untraced
    // reference pass and a traced one that runs each job twice
    // (replay + queue), so both take about --seconds.
    const std::size_t job_count = std::max<std::size_t>(
        2 * kTailBeyond + 1,
        static_cast<std::size_t>(std::llround(
            options.seconds *
            nominalJobsPerSecond(options.workload) / kPasses)));
    try {
        return options.trace ? runTraced(options, job_count)
                             : runUntraced(options, job_count);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "qra_e2ebench: %s\n", e.what());
        return 1;
    }
}
