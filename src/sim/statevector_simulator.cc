#include "sim/statevector_simulator.hh"

#include <algorithm>

#include "common/error.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "sim/kernels/plan.hh"
#include "sim/kernels/plan_cache.hh"
#include "sim/trajectory_simulator.hh"

namespace qra {

namespace {

/** Shots drawn by sampled execution (registered once). */
obs::CounterHandle
sampledShotsCounter()
{
    static const obs::CounterHandle handle =
        obs::MetricsRegistry::global().counter("sim.sampled.shots");
    return handle;
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
 * The deterministic walk of @p plan over @p state: Measure is skipped,
 * PostSelect projects, and Reset draws from @p rng (null: a reset is
 * an error). Returns the retained fraction, the product of the
 * PostSelect branch probabilities.
 */
double
evolveIdeal(const kernels::ExecutablePlan &plan, StateVector &state,
            Rng *rng)
{
    double retained = 1.0;
    for (const kernels::PlanEntry &entry : plan.entries()) {
        switch (entry.kind) {
          case kernels::KernelKind::Measure:
            break;
          case kernels::KernelKind::PostSelectQ:
            retained *= state.postSelect(entry.q0, entry.postselectValue);
            break;
          case kernels::KernelKind::ResetQ:
            // Sampled execution never sees a Reset circuit.
            if (rng == nullptr)
                throw SimulationError("reset in sampled execution");
            state.resetQubit(entry.q0, *rng);
            break;
          default:
            state.applyKernel(entry);
        }
    }
    return retained;
}

/**
 * One-time work of sampled execution: evolve the state, derive the
 * measured-qubit marginal and its clbit wiring, and build the
 * CumulativeSampler over it. Cached across shards and jobs via the
 * PlanCache.
 */
std::shared_ptr<const kernels::SampledDistribution>
buildSampledDistribution(const Circuit &circuit)
{
    StateVector state(circuit.numQubits());
    auto dist = std::make_shared<kernels::SampledDistribution>();

    const std::shared_ptr<const kernels::ExecutablePlan> plan =
        planFor(circuit);
    dist->retainedFraction = evolveIdeal(*plan, state, nullptr);

    // Measured qubits, deduplicated: the marginal distribution is
    // over one bit per distinct qubit, and each (terminal) Measure
    // maps its qubit's bit to its clbit.
    std::vector<Qubit> measured;
    for (const kernels::PlanEntry &entry : plan->entries()) {
        if (entry.kind != kernels::KernelKind::Measure)
            continue;
        std::size_t j = 0;
        while (j < measured.size() && measured[j] != entry.q0)
            ++j;
        if (j == measured.size())
            measured.push_back(entry.q0);
        dist->bitWiring.emplace_back(j, entry.clbit);
    }
    if (measured.empty())
        return dist; // no measurements: every shot reads zero

    // measureAll-style circuits (every qubit, in wire order) use the
    // parallel elementwise probability kernel; true marginals use the
    // blocked parallel scatter (see kernels::marginalProbabilities) —
    // either way the build is one pass, amortised over every shot of
    // every job that shares the circuit.
    bool identity_marginal = measured.size() == state.numQubits();
    for (std::size_t j = 0; identity_marginal && j < measured.size();
         ++j)
        identity_marginal = measured[j] == j;
    // The sampler accumulates the moved-in probabilities in place and
    // guards their total (zero or non-finite throws ValueError rather
    // than drawing garbage).
    dist->sampler = CumulativeSampler(
        identity_marginal ? state.probabilities()
                          : state.marginalProbabilities(measured));
    return dist;
}

/**
 * True when @p circuit can sample its final distribution: nothing
 * resets, and after each measurement its qubit is only measured again.
 * A noiseless re-read returns the same bit, and the sampled wiring
 * maps one marginal bit to every clbit that reads it. (Under noise
 * the qubit relaxes between two reads, so midCircuitMeasurements
 * counts the first read as mid-circuit; this rule is noiseless only.)
 */
bool
samplesFinalState(const Circuit &circuit)
{
    std::vector<bool> used_after(circuit.numQubits(), false);
    for (auto op = circuit.ops().rbegin(); op != circuit.ops().rend();
         ++op) {
        switch (op->kind) {
          case OpKind::Barrier:
            break;
          case OpKind::Reset:
            return false;
          case OpKind::Measure:
            if (used_after[op->qubits[0]])
                return false;
            break;
          default:
            for (const Qubit q : op->qubits)
                used_after[q] = true;
        }
    }
    return true;
}

} // namespace

StatevectorSimulator::StatevectorSimulator(std::uint64_t seed)
    : rng_(seed)
{
}

Result
StatevectorSimulator::run(const Circuit &circuit, std::size_t shots)
{
    if (samplesFinalState(circuit))
        return runSampled(circuit, shots);
    return TrajectorySimulator(rng_()).run(circuit, shots);
}

Result
StatevectorSimulator::runSampled(const Circuit &circuit,
                                 std::size_t shots)
{
    // All measurements are terminal, so the whole evolution — plan,
    // final state, marginal, sampler — is shot-independent. With an
    // active PlanCache (the runtime JobQueue installs one) it is built
    // exactly once per (circuit, fusion) across all shards and
    // repeated jobs. The shots are then counted per marginal key by
    // CumulativeSampler::counts (one guided draw per shot, or binomial
    // splits when shots far outnumber keys) and recorded once per key
    // that got any, through the clbit wiring.
    obs::Span span("sim", "sampled_run", {{"shots", shots}});
    obs::count(sampledShotsCounter(), shots);
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

    for (const auto &[key, count] : dist->sampler.counts(shots, rng_)) {
        std::uint64_t reg = 0;
        for (const auto &[j, c] : dist->bitWiring) {
            if ((key >> j) & 1)
                reg |= std::uint64_t{1} << c;
            else
                reg &= ~(std::uint64_t{1} << c);
        }
        result.record(reg, count);
    }
    return result;
}

StateVector
StatevectorSimulator::finalState(const Circuit &circuit)
{
    StateVector state(circuit.numQubits());
    evolveIdeal(*planFor(circuit), state, &rng_);
    return state;
}

StateVector
StatevectorSimulator::evolveWithMeasurements(const Circuit &circuit)
{
    return TrajectorySimulator(rng_()).evolveOne(circuit);
}

} // namespace qra
