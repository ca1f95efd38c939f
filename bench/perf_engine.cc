/**
 * @file
 * P2: the engine claims e2ebench cannot measure. e2ebench pins its
 * engine to one thread and runs every job at its default settings, so
 * this bench keeps only what needs something else:
 *  - per_shot: multi-thread engine scaling. The same trajectory
 *    workload (mid-circuit measurement + reset, so every shot is a
 *    full state evolution) runs directly on StatevectorSimulator::run
 *    and through the ExecutionEngine with one shard per pool thread,
 *    at 4-16 qubits;
 *  - early_stopping: confidence-driven adaptive execution on the
 *    noise-sweep workload vs the fixed 8192-shot budget;
 *  - auto_assert: statically derived assertions (--auto-assert /
 *    InjectionStrategy::AutoGenerate) against the paper's hand
 *    annotations on Bell, GHZ(3), GHZ(4) and W(3) under ibmqx4 noise.
 *
 * Emits one self-describing JSON record per measurement
 * (bench::Record), then a human-readable table and the verdicts that
 * set the exit code: on hosts with >= 4 cores the engine must deliver
 * >= 2x shots/sec at 16 qubits on the per-shot workload; early
 * stopping must save >= 2x shots on at least one noise point; and the
 * auto checks must detect at least the hand-annotated error rate at
 * <= 1.25x the inserted-gate overhead on every circuit.
 *
 * Usage: perf_engine [SHOTS] [--json]   (default 96 per-shot shots;
 * --json emits only the JSON lines)
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "bench_util.hh"
#include "qra.hh"

using namespace qra;
using namespace qra::runtime;

namespace {

/**
 * A dense per-shot workload: random layers with one mid-circuit
 * measurement and reset of qubit 0, which disables the sample-at-end
 * fast path and makes every shot an independent trajectory — the
 * execution pattern assertion circuits with ancilla reuse produce.
 */
Circuit
trajectoryWorkload(std::size_t num_qubits, std::size_t num_gates,
                   std::uint64_t seed)
{
    Circuit c(num_qubits, num_qubits, "perf_engine");
    Rng rng(seed);
    auto random_layer = [&](std::size_t gates) {
        for (std::size_t i = 0; i < gates; ++i) {
            const Qubit q = static_cast<Qubit>(rng.below(num_qubits));
            switch (rng.below(4)) {
              case 0:
                c.h(q);
                break;
              case 1:
                c.t(q);
                break;
              case 2:
                c.ry(rng.uniform() * M_PI, q);
                break;
              default:
              {
                const Qubit r = static_cast<Qubit>(
                    (q + 1 + rng.below(num_qubits - 1)) % num_qubits);
                c.cx(q, r);
              }
            }
        }
    };
    random_layer(num_gates / 2);
    c.measure(0, 0);
    c.reset(0);
    random_layer(num_gates - num_gates / 2);
    c.measureAll();
    return c;
}

using bench::secondsSince;

} // namespace

int
main(int argc, char **argv)
{
    std::size_t shots = 96;
    bool json_only = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0) {
            json_only = true;
            continue;
        }
        char *end = nullptr;
        shots = std::strtoull(argv[i], &end, 10);
        if (end == argv[i] || *end != '\0' || shots == 0) {
            std::fprintf(stderr,
                         "usage: perf_engine [SHOTS] [--json]\n");
            return 2;
        }
    }
    const std::size_t threads = ThreadPool::defaultThreads();

    if (!json_only) {
        bench::banner("P2",
                      "engine-parallel vs direct single-threaded "
                      "state-vector execution");
        bench::note("host threads: " + std::to_string(threads) +
                    ", shots/size: " + std::to_string(shots));
        std::printf("  %-8s %14s %14s %10s\n", "qubits",
                    "direct sh/s", "engine sh/s", "speedup");
    }

    // One shard per pool thread keeps every worker busy exactly once.
    ExecutionEngine engine(EngineOptions{
        .threads = threads,
        .shardShots =
            std::max<std::size_t>(1, shots / std::max<std::size_t>(
                                              1, threads)),
        .maxShards = threads});

    double speedup_at_16 = 0.0;
    for (const std::size_t num_qubits : {4u, 8u, 12u, 16u}) {
        const Circuit circuit =
            trajectoryWorkload(num_qubits, 64, 17);

        const auto direct_start = std::chrono::steady_clock::now();
        StatevectorSimulator direct(23);
        const Result direct_result = direct.run(circuit, shots);
        const double direct_seconds = secondsSince(direct_start);

        const auto engine_start = std::chrono::steady_clock::now();
        const Result engine_result =
            engine.run(circuit, shots, "statevector", 23);
        const double engine_seconds = secondsSince(engine_start);

        const double direct_sps =
            static_cast<double>(direct_result.shots()) /
            direct_seconds;
        const double engine_sps =
            static_cast<double>(engine_result.shots()) /
            engine_seconds;
        const double speedup = engine_sps / direct_sps;
        if (num_qubits == 16)
            speedup_at_16 = speedup;

        if (!json_only)
            std::printf("  %-8zu %14.1f %14.1f %9.2fx\n", num_qubits,
                        direct_sps, engine_sps, speedup);
        bench::Record("perf_engine", "per_shot")
            .id("qubits", num_qubits)
            .id("shots", shots)
            .higher("direct_shots_per_sec", direct_sps)
            .higher("engine_shots_per_sec", engine_sps)
            .higher("speedup", speedup)
            .emit();
    }

    // Early stopping: the ablation-noise-sweep workload (Bell +
    // entanglement assertion on scaled ibmqx4 noise) run adaptively —
    // shot waves stop once the any-error rate's Wilson 95% half-width
    // reaches the target — vs the fixed 8192-shot budget. Counts are
    // bit-deterministic at any thread count, so the shots-saved
    // verdict is CI-safe. Low noise converges fastest: the interval
    // tightens as sqrt(p(1-p)), so clean devices pay a small fraction
    // of the fixed budget.
    double best_saved_factor = 0.0;
    {
        const std::size_t budget = 8192;
        StoppingRule rule;
        rule.targetHalfWidth = 0.02;
        rule.minShots = 512;
        rule.waveShots = 256;

        Circuit payload(2, 2, "bell");
        payload.h(0).cx(0, 1);
        payload.measure(0, 0).measure(1, 1);
        AssertionSpec check;
        check.assertion = std::make_shared<EntanglementAssertion>(2);
        check.targets = {0, 1};
        check.insertAt = 2;

        // Shard = wave granularity: 256-shot shards so stopping can
        // trigger every 256 shots (the shared `engine` sizes shards
        // for the per-shot section and may put the whole budget in
        // one shard).
        ExecutionEngine wave_engine(EngineOptions{
            .threads = threads, .shardShots = 256, .maxShards = 64});
        JobQueue queue(wave_engine);

        for (const double scale : {0.25, 1.0, 4.0}) {
            const DeviceModel device =
                DeviceModel::ibmqx4().scaledNoise(scale);
            JobSpec spec;
            spec.circuit = payload;
            spec.shots = budget;
            spec.backend = "trajectory";
            spec.seed = 41;
            spec.noise = &device.noiseModel();
            spec.assertions = {check};
            spec.stopping = rule;

            const Result result = queue.submit(spec).get();
            const double saved_frac =
                1.0 - static_cast<double>(result.shots()) /
                          static_cast<double>(result.shotsRequested());
            const double saved_factor =
                static_cast<double>(result.shotsRequested()) /
                static_cast<double>(result.shots());
            best_saved_factor =
                std::max(best_saved_factor, saved_factor);

            if (!json_only) {
                // Half-width from a pooled re-evaluation (identical
                // to the engine's last in-flight evaluation by counts
                // determinism).
                const StoppingStatus status = evaluateStopping(
                    rule, result, queue.instrumented(spec).get());
                std::printf("  early stopping (noise %gx): %zu of "
                            "%zu shots (%.2fx saved), error %.3f "
                            "+/- %.4f\n",
                            scale, result.shots(),
                            result.shotsRequested(), saved_factor,
                            status.estimate, status.halfWidth);
            }
            bench::Record("perf_engine", "early_stopping")
                .id("scale", scale)
                .id("shots", budget)
                .id("target_halfwidth", rule.targetHalfWidth)
                .higher("shots_saved_frac", saved_frac)
                .higher("speedup", saved_factor)
                .emit();
        }
    }

    // Auto-assertion quality: statically derived checks must detect
    // at least as many injected errors as the paper's hand-annotated
    // checks on the Bell/GHZ/W circuits under ibmqx4 noise, at
    // <= 1.25x the inserted-gate overhead. Fixed seeds keep counts
    // (and therefore both rates) bit-stable at any thread count, so
    // the comparison is a deterministic CI verdict, not a
    // statistical one.
    bool auto_assert_ok = true;
    {
        const DeviceModel aa_device = DeviceModel::ibmqx4();
        const std::size_t aa_shots = 4096;

        struct AutoCase
        {
            const char *name;
            Circuit payload;
            AssertionSpec hand;
        };
        auto entangledAt = [](std::size_t n, std::size_t cut) {
            AssertionSpec spec;
            spec.assertion =
                std::make_shared<EntanglementAssertion>(n);
            for (std::size_t q = 0; q < n; ++q)
                spec.targets.push_back(static_cast<Qubit>(q));
            spec.insertAt = cut;
            return spec;
        };
        std::vector<AutoCase> aa_cases;
        {
            Circuit bell = library::bellPair();
            bell.addClbits(bell.numQubits());
            bell.measureAll();
            aa_cases.push_back(
                {"bell", std::move(bell), entangledAt(2, 2)});
        }
        for (const std::size_t n : {3u, 4u}) {
            Circuit ghz = library::ghzState(n);
            ghz.addClbits(n);
            ghz.measureAll();
            aa_cases.push_back({n == 3 ? "ghz3" : "ghz4",
                                std::move(ghz), entangledAt(n, n)});
        }
        {
            // W(3): non-Clifford, but x(0) proves q0 = 1 — the
            // paper's hand annotation is that classical check.
            Circuit w = library::wState(3);
            w.addClbits(3);
            w.measureAll();
            AssertionSpec hand;
            hand.assertion = std::make_shared<ClassicalAssertion>(1);
            hand.targets = {0};
            hand.insertAt = 1;
            aa_cases.push_back(
                {"w3", std::move(w), std::move(hand)});
        }

        ExecutionEngine aa_engine(EngineOptions{.threads = threads});
        JobQueue aa_queue(aa_engine);
        if (!json_only)
            std::printf("  auto-assert vs hand annotation (ibmqx4 "
                        "noise, %zu shots):\n",
                        aa_shots);
        for (AutoCase &aa : aa_cases) {
            JobSpec base;
            base.circuit = aa.payload;
            base.shots = aa_shots;
            base.backend = "auto";
            base.seed = 101;
            base.noise = &aa_device.noiseModel();
            base.coupling = &aa_device.couplingMap();

            JobSpec hand_spec = base;
            hand_spec.assertions = {aa.hand};
            JobSpec auto_spec = base;
            auto_spec.injection =
                compile::InjectionStrategy::AutoGenerate;

            const auto hand_inst = aa_queue.instrumented(hand_spec);
            const auto auto_inst = aa_queue.instrumented(auto_spec);
            if (!hand_inst || !auto_inst ||
                auto_inst->checks().empty()) {
                auto_assert_ok = false;
                continue;
            }
            const double hand_inserted = static_cast<double>(
                hand_inst->circuit().size() - aa.payload.size());
            const double auto_inserted = static_cast<double>(
                auto_inst->circuit().size() - aa.payload.size());
            const double overhead_ratio =
                auto_inserted / hand_inserted;

            const Result hand_result =
                aa_queue.submit(hand_spec).get();
            const Result auto_result =
                aa_queue.submit(auto_spec).get();
            const double hand_rate =
                analyze(*hand_inst, hand_result).anyErrorRate;
            const double auto_rate =
                analyze(*auto_inst, auto_result).anyErrorRate;
            const std::size_t num_checks =
                auto_inst->checks().size();

            const bool case_ok = auto_rate + 1e-9 >= hand_rate &&
                                 overhead_ratio <= 1.25;
            auto_assert_ok = auto_assert_ok && case_ok;

            if (!json_only)
                std::printf("    %-5s auto %.2f%% vs hand %.2f%% "
                            "detected, %.2fx inserted gates, "
                            "%zu check%s%s\n",
                            aa.name, auto_rate * 100.0,
                            hand_rate * 100.0, overhead_ratio,
                            num_checks, num_checks == 1 ? "" : "s",
                            case_ok ? "" : "  [FAIL]");
            bench::Record("perf_engine", "auto_assert")
                .id("circuit", aa.name)
                .id("shots", aa_shots)
                .higher("auto_rate", auto_rate)
                .higher("hand_rate", hand_rate)
                .lower("overhead_ratio", overhead_ratio)
                .max(1.25)
                .higher("checks", static_cast<double>(num_checks))
                .emit();
        }
    }

    // The parallelism claim only applies where parallelism exists.
    bool ok = true;
    if (threads >= 4) {
        ok = speedup_at_16 >= 2.0;
        if (!json_only)
            bench::verdict(ok, "engine delivers >= 2x shots/sec over "
                               "direct single-threaded execution at "
                               "16 qubits on a >= 4-core host");
    } else if (!json_only) {
        bench::verdict(true,
                       "host has < 4 threads; speedup is "
                       "informational only on this machine");
    }

    // Deterministic adaptive-execution claim: early stopping must
    // save >= 2x shots vs the fixed budget on at least one noise
    // point of the ablation sweep (counts — hence stopping points —
    // are bit-identical at any thread count).
    const bool stopping_ok = best_saved_factor >= 2.0;
    if (!json_only)
        bench::verdict(stopping_ok,
                       "confidence-driven early stopping saves >= 2x "
                       "shots vs the fixed budget on the noise sweep");
    ok = ok && stopping_ok;

    // Static-analysis contract: auto-derived checks match or beat
    // the hand annotations at bounded overhead (deterministic: fixed
    // seeds, thread-count-independent counts).
    if (!json_only)
        bench::verdict(auto_assert_ok,
                       "auto-derived assertions detect >= the "
                       "hand-annotated rate at <= 1.25x inserted "
                       "gates on Bell/GHZ/W under ibmqx4 noise");
    ok = ok && auto_assert_ok;
    return ok ? 0 : 1;
}
