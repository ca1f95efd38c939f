/**
 * @file
 * Ablation A5: amplitude estimation from assertion statistics — the
 * paper's remark (Secs. 3.1, 3.3) that assertion-error frequencies
 * over repeated runs estimate the amplitudes of the qubit under
 * test, made quantitative with confidence intervals.
 *
 * Unlike a fixed-budget sweep, every estimate here runs through the
 * ExecutionEngine with a StoppingRule: shot waves stop as
 * soon as the error statistic's Wilson 95% half-width reaches the
 * target, so easy amplitudes (error rates far from 1/2) spend far
 * fewer shots than the worst case. The shots saved across the whole
 * ablation are read back from the obs metrics registry
 * (engine.adaptive.budget_shots / engine.adaptive.shots_saved) and
 * reported as a JSON line for the bench trajectory.
 */

#include <cmath>
#include <cstdio>
#include <memory>

#include "bench_util.hh"
#include "qra.hh"

using namespace qra;
using namespace qra::runtime;

namespace {

std::size_t
countErrors(const InstrumentedCircuit &inst, const Result &r)
{
    std::size_t errors = 0;
    for (const auto &[reg, n] : r.rawCounts())
        if (!inst.passed(reg))
            errors += n;
    return errors;
}

/** Budget as whole shards so early stops reuse run()'s shard plan. */
constexpr std::size_t kShardShots = 1024;
constexpr std::size_t kBudget = 48 * kShardShots; // 49152

/**
 * Run @p inst through the engine until the any-error rate's
 * 95% half-width is <= @p target_half_width (or the budget runs out).
 */
Result
runUntilConverged(ExecutionEngine &engine,
                  const InstrumentedCircuit &inst,
                  double target_half_width, std::uint64_t seed)
{
    Job job(inst.circuit(), kBudget, "statevector", seed);
    job.instrumented = std::make_shared<InstrumentedCircuit>(inst);
    job.stopping.targetHalfWidth = target_half_width;
    job.stopping.minShots = 2 * kShardShots;
    job.stopping.waveShots = 4 * kShardShots;
    return engine.run(job);
}

InstrumentedCircuit
classicalWorkload(double theta)
{
    Circuit payload(1, 0);
    payload.ry(theta, 0);
    AssertionSpec spec;
    spec.assertion = std::make_shared<ClassicalAssertion>(0);
    spec.targets = {0};
    spec.insertAt = 1;
    return instrument(payload, {spec});
}

} // namespace

int
main()
{
    bench::banner("Ablation A5",
                  "estimating amplitudes from assertion-error "
                  "statistics, adaptive waves up to " +
                      std::to_string(kBudget) + " shots");
    // Shots-saved accounting flows through the metrics registry, the
    // same counters qra_run --metrics surfaces.
    obs::setMetricsEnabled(true);

    const double target_half_width = 0.005;
    bool ok = true;

    ExecutionEngine engine(
        EngineOptions{.shardShots = kShardShots, .maxShards = 64});

    // Classical-assertion estimator: P(error) = |b|^2.
    bench::note("classical assertion on RY(theta)|0>: estimate "
                "|b|^2, stop at half-width <= " +
                formatDouble(target_half_width, 3));
    std::printf("  %-8s %12s %22s %8s %14s\n", "theta", "true |b|^2",
                "estimate (95% CI)", "covered", "shots used");
    for (double theta : {0.4, 1.0, M_PI / 2, 2.3}) {
        const InstrumentedCircuit inst = classicalWorkload(theta);
        const Result r =
            runUntilConverged(engine, inst, target_half_width,
                              static_cast<std::uint64_t>(theta * 1000));
        const auto est = estimateFromClassicalAssertion(
            countErrors(inst, r), r.shots());

        const double truth = std::pow(std::sin(theta / 2.0), 2);
        const bool covered =
            std::abs(est.probOne.value - truth) <=
            est.probOne.halfWidth95 * 1.2;
        std::printf("  %-8s %12s %22s %8s %8zu/%zu%s\n",
                    formatDouble(theta, 2).c_str(),
                    formatDouble(truth, 4).c_str(),
                    est.probOne.str().c_str(),
                    covered ? "yes" : "NO", r.shots(),
                    r.shotsRequested(),
                    r.stoppedEarly() ? " (early)" : "");
        ok = ok && covered;
    }

    // Superposition-assertion estimator: P(error) = (1-2ab)/2.
    bench::note("");
    bench::note("superposition assertion on RY(theta)|0>: estimate "
                "a*b and {|a|^2, |b|^2}");
    std::printf("  %-8s %12s %22s %8s %14s\n", "theta", "true a*b",
                "estimate (95% CI)", "covered", "shots used");
    for (double theta : {0.5, 1.1, M_PI / 2, 2.5}) {
        Circuit payload(1, 0);
        payload.ry(theta, 0);
        AssertionSpec spec;
        spec.assertion = std::make_shared<SuperpositionAssertion>();
        spec.targets = {0};
        spec.insertAt = 1;
        const InstrumentedCircuit inst = instrument(payload, {spec});

        const Result r =
            runUntilConverged(engine, inst, target_half_width,
                              static_cast<std::uint64_t>(theta * 7777));
        const auto est = estimateFromSuperpositionAssertion(
            countErrors(inst, r), r.shots());

        const double truth =
            std::cos(theta / 2.0) * std::sin(theta / 2.0);
        const bool covered = std::abs(est.product.value - truth) <=
                             est.product.halfWidth95 * 1.2;
        std::printf("  %-8s %12s %22s %8s %8zu/%zu%s\n",
                    formatDouble(theta, 2).c_str(),
                    formatDouble(truth, 4).c_str(),
                    est.product.str().c_str(),
                    covered ? "yes" : "NO", r.shots(),
                    r.shotsRequested(),
                    r.stoppedEarly() ? " (early)" : "");
        ok = ok && covered;

        if (est.probMajor) {
            const double a2 = std::pow(std::cos(theta / 2.0), 2);
            bench::note("    roots {" +
                        formatDouble(*est.probMajor, 4) + ", " +
                        formatDouble(*est.probMinor, 4) +
                        "} vs true {" +
                        formatDouble(std::max(a2, 1 - a2), 4) + ", " +
                        formatDouble(std::min(a2, 1 - a2), 4) + "}");
        }
    }

    // Tighter targets need more shots: the adaptive analogue of the
    // old fixed-shot CI-width sweep (width ~ 1/sqrt(shots), so shots
    // consumed ~ 1/target^2).
    bench::note("");
    bench::note("shots consumed vs half-width target (classical "
                "estimator, theta = pi/2):");
    const InstrumentedCircuit sweep_inst = classicalWorkload(M_PI / 2);
    std::size_t previous_shots = 0;
    for (double target : {0.02, 0.01, 0.005}) {
        const Result r =
            runUntilConverged(engine, sweep_inst, target, 4242);
        bench::note("  target " + formatDouble(target, 3) + ": " +
                    std::to_string(r.shots()) + "/" +
                    std::to_string(r.shotsRequested()) + " shots" +
                    (r.stoppedEarly() ? " (early)" : ""));
        ok = ok && r.shots() >= previous_shots;
        previous_shots = r.shots();
    }

    // Shots-saved accounting, read back through the obs registry.
    const auto snap = obs::MetricsRegistry::global().snapshot();
    auto counter = [&](const char *name) -> std::uint64_t {
        const auto it = snap.counters.find(name);
        return it == snap.counters.end() ? 0 : it->second;
    };
    const std::uint64_t budget_shots =
        counter("engine.adaptive.budget_shots");
    const std::uint64_t shots_saved =
        counter("engine.adaptive.shots_saved");
    const double saved_frac =
        budget_shots == 0 ? 0.0
                          : static_cast<double>(shots_saved) /
                                static_cast<double>(budget_shots);
    bench::note("");
    bench::note("adaptive totals (metrics registry): budget " +
                std::to_string(budget_shots) + " shots, saved " +
                std::to_string(shots_saved) + " (" +
                formatDouble(saved_frac * 100.0, 1) + "%)");
    std::printf("{\"bench\":\"ablation_amplitude_estimation\","
                "\"section\":\"adaptive_summary\","
                "\"budget_shots\":%llu,\"shots_saved\":%llu,"
                "\"saved_frac\":%.4f,\"waves\":%llu}\n",
                static_cast<unsigned long long>(budget_shots),
                static_cast<unsigned long long>(shots_saved),
                saved_frac,
                static_cast<unsigned long long>(
                    counter("engine.waves")));
    ok = ok && shots_saved > 0;

    bench::verdict(ok,
                   "assertion-error statistics recover the input "
                   "amplitudes with well-calibrated confidence "
                   "intervals, and the stopping rule banks unused "
                   "budget on every easy amplitude");
    return ok ? 0 : 1;
}
