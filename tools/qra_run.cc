/**
 * @file
 * qra_run — command-line assertion runner.
 *
 * Reads an OpenQASM 2.0 file annotated with `// qra:assert-*`
 * directives, instruments it, executes it through the runtime
 * execution engine on a registry backend, and prints the assertion
 * report plus the (raw and filtered) payload distribution.
 *
 * Usage:
 *   qra_run FILE.qasm [--shots N] [--device ideal|ibmqx4]
 *           [--backend NAME|auto] [--jobs N] [--threads N]
 *           [--intra-threads N] [--fusion 0|1|2] [--seed S]
 *           [--auto-assert] [--max-checks N] [--min-depth N]
 *           [--reuse-ancillas] [--no-barriers] [--target-halfwidth W]
 *           [--min-shots N] [--wave-shots N]
 *           [--simd scalar|portable|avx2|avx512]
 *           [--deadline-ms MS] [--retries N] [--inject-fault=SPEC]
 *           [--metrics[=FILE]] [--trace=FILE]
 *           [--trace-jsonl=FILE] [--dump-pipeline] [--draw]
 *   qra_run --list-backends
 *   qra_run --list-simd
 *
 * --target-halfwidth enables confidence-driven early stopping: shots
 * run in waves and stop once the any-assertion error rate's Wilson
 * 95% half-width is at or below W (requires qra:assert-* directives;
 * --shots becomes the budget rather than a fixed count).
 *
 * --auto-assert derives checks statically: the compile pipeline runs
 * the analyze pass (tableau-prefix / separability / known-basis
 * dataflow) and injects the assertions it can prove, subject to
 * --max-checks and --min-depth; qra:assert-* directives in the file
 * are woven in alongside the derived checks. --dump-pipeline shows
 * the resulting pass list.
 *
 * Robustness: --deadline-ms cancels the run once the wall clock
 * passes MS milliseconds (the partial result is reported, exit 3);
 * --retries N re-runs transiently failed shards up to N extra times
 * with their original RNG streams (recovered counts are bit-identical
 * to a fault-free run); --inject-fault installs a deterministic
 * fault plan (grammar in runtime/fault.hh, e.g. shard:2:throw) for
 * exercising those paths end to end.
 *
 * Telemetry: --metrics prints a metrics table after the report
 * (--metrics=FILE writes the JSON snapshot instead); --trace=FILE
 * writes Chrome trace-event JSON (open in Perfetto or
 * chrome://tracing), --trace-jsonl=FILE the same events as JSON
 * lines. Traces contain prepare, per-pass, shard, and wave spans;
 * telemetry never changes the counts.
 */

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "assertions/directives.hh"
#include "qra.hh"

using namespace qra;
using namespace qra::runtime;

namespace {

struct Options
{
    std::string file;
    std::size_t shots = 8192;
    std::string device = "ideal";
    std::string backend = "auto";
    std::size_t jobs = 1;
    std::size_t threads = 0;      // 0 = hardware concurrency
    std::size_t intraThreads = 0; // 0 = auto (pool / shards)
    int fusion = kernels::kFusionDefault; // 0 none, 1 runs, 2 windows
    std::uint64_t seed = 7;
    bool autoAssert = false;
    compile::AutoAssertOptions autoOptions;
    bool reuseAncillas = false;
    bool barriers = true;
    double targetHalfWidth = 0.0; // 0 = fixed-shot execution
    std::size_t minShots = 0;
    std::size_t waveShots = 0;
    double deadlineMs = 0.0; // 0 = none
    std::size_t retries = 0; // extra attempts per shard
    std::string faultSpec;   // "" = no injection
    bool metricsStdout = false;
    std::string metricsFile;
    std::string traceFile;
    std::string traceJsonlFile;
    bool dumpPipeline = false;
    bool draw = false;
    bool listBackends = false;
    int simdTier = -1; // -1 = auto (cpuid + QRA_SIMD)
    bool listSimd = false;
};

void
usage()
{
    std::fprintf(
        stderr,
        "usage: qra_run FILE.qasm [--shots N] [--device "
        "ideal|ibmqx4]\n"
        "               [--backend NAME|auto] [--jobs N] "
        "[--threads N]\n"
        "               [--intra-threads N] [--fusion 0|1|2] [--seed "
        "S]\n"
        "               [--auto-assert] [--max-checks N] "
        "[--min-depth N]\n"
        "               [--reuse-ancillas] [--no-barriers]\n"
        "               [--target-halfwidth W]\n"
        "               [--min-shots N] [--wave-shots N]\n"
        "               [--simd scalar|portable|avx2|avx512]\n"
        "               [--deadline-ms MS] [--retries N]\n"
        "               [--inject-fault=SPEC]\n"
        "               [--metrics[=FILE]] [--trace=FILE]\n"
        "               [--trace-jsonl=FILE]\n"
        "               [--dump-pipeline] [--draw]\n"
        "       qra_run --list-backends\n"
        "       qra_run --list-simd\n");
}

/**
 * Parse @p v, the value of @p flag, as a decimal integer that fits
 * @p out. An empty value, a sign, trailing characters or overflow
 * print why and return false.
 */
template <typename T>
bool
parseCount(const char *flag, const char *v, T &out)
{
    errno = 0;
    char *end = nullptr;
    const unsigned long long value = std::strtoull(v, &end, 10);
    if (!std::isdigit(static_cast<unsigned char>(*v)) || *end != '\0' ||
        errno == ERANGE ||
        value > static_cast<unsigned long long>(
                    std::numeric_limits<T>::max())) {
        std::fprintf(stderr,
                     "%s expects a non-negative integer, got '%s'\n",
                     flag, v);
        return false;
    }
    out = static_cast<T>(value);
    return true;
}

/** Same for a finite real number. */
bool
parseReal(const char *flag, const char *v, double &out)
{
    char *end = nullptr;
    const double value = std::strtod(v, &end);
    if (end == v || *end != '\0' || !std::isfinite(value)) {
        std::fprintf(stderr, "%s expects a finite number, got '%s'\n",
                     flag, v);
        return false;
    }
    out = value;
    return true;
}

bool
parseArgs(int argc, char **argv, Options &opts)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value for %s\n",
                             arg.c_str());
                return nullptr;
            }
            return argv[++i];
        };
        // Parse the next argument into out.
        auto count = [&](auto &out) {
            const char *v = next();
            return v != nullptr && parseCount(arg.c_str(), v, out);
        };
        auto real = [&](double &out) {
            const char *v = next();
            return v != nullptr && parseReal(arg.c_str(), v, out);
        };
        if (arg == "--shots") {
            if (!count(opts.shots))
                return false;
        } else if (arg == "--device") {
            const char *v = next();
            if (!v)
                return false;
            opts.device = v;
        } else if (arg == "--backend") {
            const char *v = next();
            if (!v)
                return false;
            opts.backend = v;
        } else if (arg == "--jobs") {
            if (!count(opts.jobs))
                return false;
            if (opts.jobs == 0) {
                std::fprintf(stderr, "--jobs must be >= 1\n");
                return false;
            }
        } else if (arg == "--threads") {
            if (!count(opts.threads))
                return false;
        } else if (arg == "--intra-threads") {
            if (!count(opts.intraThreads))
                return false;
        } else if (arg == "--fusion") {
            if (!count(opts.fusion))
                return false;
            if (opts.fusion < kernels::kFusionNone ||
                opts.fusion > kernels::kFusion2q) {
                std::fprintf(stderr, "--fusion must be 0, 1 or 2\n");
                return false;
            }
        } else if (arg == "--seed") {
            if (!count(opts.seed))
                return false;
        } else if (arg == "--auto-assert") {
            opts.autoAssert = true;
        } else if (arg == "--max-checks") {
            if (!count(opts.autoOptions.maxChecks))
                return false;
        } else if (arg == "--min-depth") {
            if (!count(opts.autoOptions.minPrefixDepth))
                return false;
        } else if (arg == "--target-halfwidth") {
            if (!real(opts.targetHalfWidth))
                return false;
            if (opts.targetHalfWidth <= 0.0 ||
                opts.targetHalfWidth >= 1.0) {
                std::fprintf(stderr, "--target-halfwidth must be in "
                                     "(0, 1)\n");
                return false;
            }
        } else if (arg == "--min-shots") {
            if (!count(opts.minShots))
                return false;
        } else if (arg == "--wave-shots") {
            if (!count(opts.waveShots))
                return false;
        } else if (arg == "--deadline-ms") {
            if (!real(opts.deadlineMs))
                return false;
            if (opts.deadlineMs <= 0.0) {
                std::fprintf(stderr,
                             "--deadline-ms must be positive\n");
                return false;
            }
        } else if (arg == "--retries") {
            if (!count(opts.retries))
                return false;
        } else if (arg.rfind("--retries=", 0) == 0) {
            if (!parseCount("--retries",
                            arg.c_str() + std::strlen("--retries="),
                            opts.retries))
                return false;
        } else if (arg == "--inject-fault" ||
                   arg.rfind("--inject-fault=", 0) == 0) {
            if (arg == "--inject-fault") {
                const char *v = next();
                if (!v)
                    return false;
                opts.faultSpec = v;
            } else {
                opts.faultSpec =
                    arg.substr(std::strlen("--inject-fault="));
            }
        } else if (arg == "--simd" || arg.rfind("--simd=", 0) == 0) {
            const char *v;
            if (arg == "--simd") {
                v = next();
                if (!v)
                    return false;
            } else {
                v = arg.c_str() + std::strlen("--simd=");
            }
            kernels::simd::Tier tier;
            if (!kernels::simd::parseTier(v, &tier)) {
                std::fprintf(stderr, "--simd must be scalar, portable, "
                                     "avx2 or avx512\n");
                return false;
            }
            opts.simdTier = static_cast<int>(tier);
        } else if (arg == "--metrics") {
            opts.metricsStdout = true;
        } else if (arg.rfind("--metrics=", 0) == 0) {
            opts.metricsFile = arg.substr(std::strlen("--metrics="));
        } else if (arg == "--trace-jsonl" ||
                   arg.rfind("--trace-jsonl=", 0) == 0) {
            if (arg == "--trace-jsonl") {
                const char *v = next();
                if (!v)
                    return false;
                opts.traceJsonlFile = v;
            } else {
                opts.traceJsonlFile =
                    arg.substr(std::strlen("--trace-jsonl="));
            }
        } else if (arg == "--trace" || arg.rfind("--trace=", 0) == 0) {
            if (arg == "--trace") {
                const char *v = next();
                if (!v)
                    return false;
                opts.traceFile = v;
            } else {
                opts.traceFile = arg.substr(std::strlen("--trace="));
            }
        } else if (arg == "--reuse-ancillas") {
            opts.reuseAncillas = true;
        } else if (arg == "--no-barriers") {
            opts.barriers = false;
        } else if (arg == "--dump-pipeline") {
            opts.dumpPipeline = true;
        } else if (arg == "--draw") {
            opts.draw = true;
        } else if (arg == "--list-backends") {
            opts.listBackends = true;
        } else if (arg == "--list-simd") {
            opts.listSimd = true;
        } else if (arg.rfind("--", 0) == 0) {
            std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
            return false;
        } else if (opts.file.empty()) {
            opts.file = arg;
        } else {
            std::fprintf(stderr, "unexpected argument %s\n",
                         arg.c_str());
            return false;
        }
    }
    return opts.listBackends || opts.listSimd || !opts.file.empty();
}

void
listBackends()
{
    std::printf("%-14s %-6s %-6s %-10s %s\n", "name", "noise", "exact",
                "max-qubits", "sharding");
    for (const std::string &name :
         BackendRegistry::global().names()) {
        const BackendPtr backend =
            BackendRegistry::global().create(name);
        const BackendCapabilities &caps = backend->capabilities();
        std::printf("%-14s %-6s %-6s %-10zu %s\n", name.c_str(),
                    caps.supportsNoise ? "yes" : "no",
                    caps.exactDistribution ? "yes" : "no",
                    caps.maxQubits,
                    caps.shardable ? "parallel" : "single");
    }
}

void
listSimd()
{
    using namespace qra::kernels::simd;
    std::printf("compiled: %s\n", tierName(compiledTier()));
    std::printf("detected: %s\n", tierName(detectedTier()));
    std::printf("selected: %s%s\n", tierName(currentTier()),
                std::getenv("QRA_SIMD") ? " (QRA_SIMD)" : "");
    std::printf("available:");
    for (Tier tier : availableTiers())
        std::printf(" %s", tierName(tier));
    std::printf("\n");
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    if (!parseArgs(argc, argv, opts)) {
        usage();
        return 2;
    }
    if (opts.listBackends) {
        listBackends();
        return 0;
    }
    if (opts.listSimd) {
        listSimd();
        return 0;
    }

    // Telemetry switches must be on before any engine work so every
    // span/counter of the run is captured.
    const bool want_metrics =
        opts.metricsStdout || !opts.metricsFile.empty();
    const bool want_trace =
        !opts.traceFile.empty() || !opts.traceJsonlFile.empty();
    obs::setMetricsEnabled(want_metrics);
    obs::setTracingEnabled(want_trace);

    std::ifstream in(opts.file);
    if (!in) {
        std::fprintf(stderr, "cannot open %s\n", opts.file.c_str());
        return 2;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();

    try {
        const AnnotatedProgram program =
            parseAnnotatedQasm(buffer.str());

        // Device model selection governs both the transpile target
        // and the noise the simulator applies.
        const NoiseModel *noise = nullptr;
        const CouplingMap *coupling = nullptr;
        std::optional<DeviceModel> device;
        if (opts.device == "ibmqx4") {
            device.emplace(DeviceModel::ibmqx4());
            noise = &device->noiseModel();
            coupling = &device->couplingMap();
        } else if (opts.device != "ideal") {
            std::fprintf(stderr, "unknown device '%s'\n",
                         opts.device.c_str());
            return 2;
        }

        // One spec per job; jobs split the shot budget and get
        // independent seed streams, so --jobs N models N submissions
        // of the same program batched through the queue.
        JobSpec spec;
        spec.circuit = program.payload;
        spec.backend = opts.backend;
        spec.noise = noise;
        spec.coupling = coupling;
        spec.assertions = program.specs;
        spec.instrumentOptions.reuseAncillas = opts.reuseAncillas;
        spec.instrumentOptions.barriers = opts.barriers;
        if (opts.autoAssert) {
            // Statically derived checks; any qra:assert-* directives
            // in the file are woven in alongside them.
            spec.injection =
                compile::InjectionStrategy::AutoGenerate;
            spec.autoAssert = opts.autoOptions;
        }
        if (opts.targetHalfWidth > 0.0) {
            // Confidence-driven early stopping on the any-assertion
            // error rate; --shots is the per-job budget.
            spec.stopping.targetHalfWidth = opts.targetHalfWidth;
            spec.stopping.minShots = opts.minShots;
            spec.stopping.waveShots = opts.waveShots;
        }
        spec.deadlineMs = opts.deadlineMs;
        if (opts.retries > 0)
            spec.retry.maxAttempts = opts.retries + 1;
        if (!opts.faultSpec.empty())
            spec.faults = std::make_shared<const FaultPlan>(
                FaultPlan::parse(opts.faultSpec));

        if (opts.dumpPipeline) {
            // The declarative compile recipe this run would use, with
            // its stable fingerprint — goldenable output for CI.
            // Printed before any engine (thread pool) comes up: the
            // flag runs nothing.
            std::printf("%s\n",
                        compile::preparePipeline(prepareSpec(spec))
                            .describe()
                            .c_str());
            return 0;
        }

        EngineOptions engine_options{.threads = opts.threads,
                                     .intraThreads = opts.intraThreads,
                                     .fusionLevel = opts.fusion,
                                     .simdTier = opts.simdTier};
        // Waves are shard-granular; an explicit wave size also sizes
        // the shards so stopping can trigger at that granularity
        // (shardable backends only — density stays single-shard).
        if (opts.targetHalfWidth > 0.0 && opts.waveShots > 0)
            engine_options.shardShots = opts.waveShots;
        ExecutionEngine engine(engine_options);
        JobQueue queue(engine);

        std::vector<JobSpec> batch;
        for (std::size_t job = 0; job < opts.jobs; ++job) {
            spec.shots = opts.shots / opts.jobs +
                         (job < opts.shots % opts.jobs ? 1 : 0);
            spec.seed = splitSeed(opts.seed, 0x10000 + job);
            batch.push_back(spec);
        }

        // Each job stops as soon as its interval is tight when early
        // stopping is on; otherwise it runs its budget in one wave.
        const std::vector<Result> results = queue.runAll(batch);
        Result result(results.front().numClbits());
        std::size_t waves = 0;
        for (const Result &partial : results) {
            result.merge(partial);
            waves += partial.execStats().waves;
        }

        // Plain QASM (no qra:assert-* directives) still runs; the
        // report then has no checks and filtering is the identity.
        std::shared_ptr<const InstrumentedCircuit> inst =
            queue.instrumented(batch.front());
        if (!inst)
            inst = std::make_shared<const InstrumentedCircuit>(
                instrument(program.payload, {}));

        if (opts.draw)
            std::printf("%s\n", inst->circuit().draw().c_str());

        std::printf("backend: %s, device: %s, shots: %zu, jobs: %zu, "
                    "threads: %zu (prepare cache: %zu hit%s)\n\n",
                    opts.backend.c_str(), opts.device.c_str(),
                    result.shots(), opts.jobs, engine.threads(),
                    queue.cacheHits(),
                    queue.cacheHits() == 1 ? "" : "s");

        if (result.cancelled())
            std::printf("cancelled (%s): %zu of %zu requested shots "
                        "completed before the cutoff\n\n",
                        result.cancelReason().c_str(), result.shots(),
                        result.shotsRequested());

        if (opts.targetHalfWidth > 0.0) {
            // Pooled convergence summary over the merged batch.
            const StoppingStatus pooled = evaluateStopping(
                batch.front().stopping, result, inst.get());
            std::printf("early stopping: used %zu of %zu requested "
                        "shots in %zu wave%s (%s); pooled %s +/- %s "
                        "(target %s)\n\n",
                        result.shots(), result.shotsRequested(),
                        waves, waves == 1 ? "" : "s",
                        result.stoppedEarly() ? "stopped early"
                                              : "budget exhausted",
                        formatPercent(pooled.estimate).c_str(),
                        formatPercent(pooled.halfWidth).c_str(),
                        formatPercent(opts.targetHalfWidth).c_str());
        }

        const AssertionReport report = analyze(*inst, result);
        std::printf("%s\n", report.str(*inst).c_str());

        std::printf("raw payload:      %s\n",
                    stats::distributionToString(
                        report.rawPayload, inst->payloadClbits())
                        .c_str());
        std::printf("filtered payload: %s\n",
                    stats::distributionToString(
                        report.filteredPayload, inst->payloadClbits())
                        .c_str());

        // Telemetry exports, after the instrumented work quiesced.
        if (!opts.traceFile.empty()) {
            std::ofstream trace_out(opts.traceFile);
            if (!trace_out) {
                std::fprintf(stderr, "cannot write %s\n",
                             opts.traceFile.c_str());
                return 2;
            }
            obs::Tracer::global().writeChromeJson(trace_out);
        }
        if (!opts.traceJsonlFile.empty()) {
            std::ofstream jsonl_out(opts.traceJsonlFile);
            if (!jsonl_out) {
                std::fprintf(stderr, "cannot write %s\n",
                             opts.traceJsonlFile.c_str());
                return 2;
            }
            obs::Tracer::global().writeJsonLines(jsonl_out);
        }
        if (want_metrics) {
            const obs::MetricsSnapshot snap =
                obs::MetricsRegistry::global().snapshot();
            if (opts.metricsFile.empty()) {
                std::printf("\nmetrics:\n%s", snap.str().c_str());
            } else {
                std::ofstream metrics_out(opts.metricsFile);
                if (!metrics_out) {
                    std::fprintf(stderr, "cannot write %s\n",
                                 opts.metricsFile.c_str());
                    return 2;
                }
                metrics_out << snap.toJson() << "\n";
            }
        }

        // Exit status mirrors the assertion outcome so the tool can
        // gate CI pipelines: 0 = all checks clean (on an ideal
        // device) or mostly clean (noisy), 1 = a check fired hard,
        // 3 = the run was cancelled (deadline) with a partial result.
        if (result.cancelled())
            return 3;
        const bool failed = report.anyErrorRate > 0.45;
        return failed ? 1 : 0;
    } catch (const Error &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    } catch (const std::exception &e) {
        // Injected bad_alloc / stall faults and other stdlib errors
        // get the same clean one-liner as runtime Errors.
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    }
}
