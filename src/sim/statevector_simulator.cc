#include "sim/statevector_simulator.hh"

#include <set>

#include "common/error.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "sim/kernels/alias_table.hh"
#include "sim/kernels/plan.hh"
#include "sim/kernels/plan_cache.hh"
#include "sim/shot_util.hh"

namespace qra {

namespace {

/** Registered-once handles for the sampling-path metrics. */
struct SimMetrics
{
    obs::CounterHandle sampledShots;
    obs::CounterHandle perShotShots;
    obs::GaugeHandle sampledShotsPerSec;
};

const SimMetrics &
simMetrics()
{
    static const SimMetrics metrics = []() {
        obs::MetricsRegistry &reg = obs::MetricsRegistry::global();
        SimMetrics m;
        m.sampledShots = reg.counter("sim.sampled.shots");
        m.perShotShots = reg.counter("sim.pershot.shots");
        m.sampledShotsPerSec = reg.gauge("sim.sampled.shots_per_sec");
        return m;
    }();
    return metrics;
}

/** Compile @p circuit, through the active PlanCache when one is. */
std::shared_ptr<const kernels::ExecutablePlan>
planFor(const Circuit &circuit)
{
    if (kernels::PlanCache *cache = kernels::currentPlanCache())
        return cache->plan(circuit, kernels::currentFusionLevel());
    return std::make_shared<const kernels::ExecutablePlan>(
        kernels::ExecutablePlan::compile(circuit));
}

/**
 * One-time work of sampled execution: evolve the state, derive the
 * measured-qubit marginal and its clbit wiring, and build the alias
 * table. Cached across shards and jobs via the PlanCache.
 */
std::shared_ptr<const kernels::SampledDistribution>
buildSampledDistribution(const Circuit &circuit)
{
    StateVector state(circuit.numQubits());
    auto dist = std::make_shared<kernels::SampledDistribution>();

    const std::shared_ptr<const kernels::ExecutablePlan> plan =
        planFor(circuit);

    // Qubit -> clbit wiring of the (terminal) measurements.
    std::vector<std::pair<Qubit, Clbit>> wiring;
    for (const kernels::PlanEntry &entry : plan->entries()) {
        switch (entry.kind) {
          case kernels::KernelKind::Measure:
            wiring.emplace_back(entry.q0, entry.clbit);
            break;
          case kernels::KernelKind::PostSelectQ:
            dist->retainedFraction *=
                state.postSelect(entry.q0, entry.postselectValue);
            break;
          case kernels::KernelKind::ResetQ:
            // measurementsAreTerminal rejects Reset circuits.
            throw SimulationError("reset in sampled execution");
          default:
            state.applyKernel(entry);
        }
    }
    if (wiring.empty())
        return dist; // no measurements: every shot reads zero

    // Measured qubits, deduplicated: the marginal distribution is
    // over one bit per distinct qubit, and each wiring entry maps its
    // qubit's bit to a clbit.
    std::vector<Qubit> measured;
    for (const auto &[q, c] : wiring) {
        std::size_t j = 0;
        while (j < measured.size() && measured[j] != q)
            ++j;
        if (j == measured.size())
            measured.push_back(q);
        dist->bitWiring.emplace_back(j, c);
    }

    // measureAll-style circuits (every qubit, in wire order) use the
    // parallel elementwise probability kernel; true marginals use the
    // blocked parallel scatter (see kernels::marginalProbabilities) —
    // either way the build is one pass, amortised over every shot of
    // every job that shares the circuit.
    bool identity_marginal = measured.size() == state.numQubits();
    for (std::size_t j = 0; identity_marginal && j < measured.size();
         ++j)
        identity_marginal = measured[j] == j;
    if (identity_marginal) {
        // The fused kernel returns the block-folded total alongside
        // the probabilities, so the alias build skips its prefix
        // re-scan; the AliasTable guards the total (zero/non-finite
        // throws ValueError instead of renormalising into garbage).
        double total = 0.0;
        std::vector<double> probs = state.probabilities(&total);
        dist->table = kernels::AliasTable(probs, total);
    } else {
        dist->table = kernels::AliasTable(
            state.marginalProbabilities(measured));
    }
    return dist;
}

} // namespace

StatevectorSimulator::StatevectorSimulator(std::uint64_t seed)
    : rng_(seed)
{
}

bool
StatevectorSimulator::measurementsAreTerminal(const Circuit &circuit)
{
    std::set<Qubit> measured;
    for (const Operation &op : circuit.ops()) {
        switch (op.kind) {
          case OpKind::Reset:
            return false;
          case OpKind::Measure:
            measured.insert(op.qubits[0]);
            break;
          case OpKind::Barrier:
            break;
          default:
            for (Qubit q : op.qubits)
                if (measured.count(q))
                    return false;
        }
    }
    return true;
}

Result
StatevectorSimulator::run(const Circuit &circuit, std::size_t shots)
{
    if (measurementsAreTerminal(circuit))
        return runSampled(circuit, shots);
    return runPerShot(circuit, shots);
}

Result
StatevectorSimulator::runSampled(const Circuit &circuit,
                                 std::size_t shots)
{
    // All measurements are terminal, so the whole evolution — plan,
    // final state, marginal, alias table — is shot-independent. With
    // an active PlanCache (the runtime JobQueue installs one) it is
    // built exactly once per (circuit, fusion) across all shards and
    // repeated jobs; shots then cost one O(1) draw each.
    std::shared_ptr<const kernels::SampledDistribution> dist;
    if (kernels::PlanCache *cache = kernels::currentPlanCache())
        dist = cache->sampledDistribution(
            circuit, kernels::currentFusionLevel(),
            [&]() { return buildSampledDistribution(circuit); });
    else
        dist = buildSampledDistribution(circuit);

    Result result(circuit.numClbits());
    result.setRetainedFraction(dist->retainedFraction);
    if (dist->bitWiring.empty()) {
        // No measurements: report the all-zero register for each shot.
        result.record(0, shots);
        return result;
    }

    // Telemetry clocks sit outside the sampling loop: per-run, not
    // per-shot, so the enabled-path overhead stays negligible.
    const bool telemetry = obs::anyEnabled();
    const auto start = telemetry ? obs::Tracer::Clock::now()
                                 : obs::Tracer::Clock::time_point{};
    for (std::size_t s = 0; s < shots; ++s) {
        const std::uint64_t key = dist->table.sample(rng_);
        std::uint64_t reg = 0;
        for (const auto &[j, c] : dist->bitWiring) {
            if ((key >> j) & 1)
                reg |= std::uint64_t{1} << c;
            else
                reg &= ~(std::uint64_t{1} << c);
        }
        result.record(reg);
    }
    if (telemetry) {
        const auto end = obs::Tracer::Clock::now();
        obs::complete("sim", "sampled_run", start, end,
                      {{"shots", shots}});
        const SimMetrics &m = simMetrics();
        obs::count(m.sampledShots, shots);
        const double seconds =
            std::chrono::duration<double>(end - start).count();
        if (seconds > 0.0)
            obs::setGauge(m.sampledShotsPerSec,
                          static_cast<double>(shots) / seconds);
    }
    return result;
}

Result
StatevectorSimulator::runPerShot(const Circuit &circuit,
                                 std::size_t shots)
{
    obs::Span run_span("sim", "pershot_run", {{"shots", shots}});
    obs::count(simMetrics().perShotShots, shots);
    // Lower (and fuse) once; every shot replays the same plan.
    const std::shared_ptr<const kernels::ExecutablePlan> plan =
        planFor(circuit);

    // Post-selection in per-shot mode conditions the ensemble: a shot
    // survives each PostSelect with the branch probability, otherwise
    // it is discarded and re-attempted (same semantics as the
    // trajectory backend).
    return runPostSelectedShots<StateVector>(
        circuit, shots,
        [&](StateVector &state, std::uint64_t &reg) {
            for (const kernels::PlanEntry &entry : plan->entries()) {
                switch (entry.kind) {
                  case kernels::KernelKind::Measure:
                  {
                    const int outcome = state.measure(entry.q0, rng_);
                    if (outcome)
                        reg |= std::uint64_t{1} << entry.clbit;
                    else
                        reg &= ~(std::uint64_t{1} << entry.clbit);
                    break;
                  }
                  case kernels::KernelKind::ResetQ:
                    state.resetQubit(entry.q0, rng_);
                    break;
                  case kernels::KernelKind::PostSelectQ:
                  {
                    const double p1 = state.probabilityOfOne(entry.q0);
                    const double p =
                        entry.postselectValue ? p1 : 1.0 - p1;
                    if (p < 1e-12 || rng_.uniform() >= p)
                        return false;
                    state.postSelect(entry.q0, entry.postselectValue);
                    break;
                  }
                  default:
                    state.applyKernel(entry);
                }
            }
            return true;
        });
}

StateVector
StatevectorSimulator::finalState(const Circuit &circuit)
{
    StateVector state(circuit.numQubits());
    const std::shared_ptr<const kernels::ExecutablePlan> plan =
        planFor(circuit);
    for (const kernels::PlanEntry &entry : plan->entries()) {
        switch (entry.kind) {
          case kernels::KernelKind::Measure:
            break;
          case kernels::KernelKind::ResetQ:
            state.resetQubit(entry.q0, rng_);
            break;
          case kernels::KernelKind::PostSelectQ:
            state.postSelect(entry.q0, entry.postselectValue);
            break;
          default:
            state.applyKernel(entry);
        }
    }
    return state;
}

StateVector
StatevectorSimulator::evolveWithMeasurements(const Circuit &circuit)
{
    StateVector state(circuit.numQubits());
    const std::shared_ptr<const kernels::ExecutablePlan> plan =
        planFor(circuit);
    for (const kernels::PlanEntry &entry : plan->entries()) {
        switch (entry.kind) {
          case kernels::KernelKind::Measure:
            state.measure(entry.q0, rng_);
            break;
          case kernels::KernelKind::ResetQ:
            state.resetQubit(entry.q0, rng_);
            break;
          case kernels::KernelKind::PostSelectQ:
            state.postSelect(entry.q0, entry.postselectValue);
            break;
          default:
            state.applyKernel(entry);
        }
    }
    return state;
}

} // namespace qra
