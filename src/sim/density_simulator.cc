#include "sim/density_simulator.hh"

#include "sim/kernels/plan_cache.hh"

namespace qra {

DensityMatrixSimulator::DensityMatrixSimulator(std::uint64_t seed)
    : rng_(seed)
{
}

DensityMatrixSimulator::Execution
DensityMatrixSimulator::execute(const Circuit &circuit)
{
    // Lower once per (circuit, noise, fusion), or fetch the cached
    // plan; evolution is then one in-place kernel per entry.
    std::shared_ptr<const kernels::DensityPlan> plan;
    if (kernels::PlanCache *cache = kernels::currentPlanCache())
        plan = cache->densityPlan(circuit, noise_,
                                  kernels::currentFusionLevel());
    else
        plan = std::make_shared<const kernels::DensityPlan>(
            kernels::DensityPlan::compile(circuit, noise_));

    Execution exec(circuit.numQubits());
    exec.wiring = plan->wiring();
    for (const kernels::PlanEntry &entry : plan->entries()) {
        if (entry.kind == kernels::KernelKind::PostSelectQ)
            exec.retained *= exec.state.postSelect(
                entry.q0, entry.postselectValue);
        else
            exec.state.applyKernel(entry);
    }
    return exec;
}

std::map<std::uint64_t, double>
DensityMatrixSimulator::exactDistribution(const Circuit &circuit)
{
    return distribution(execute(circuit));
}

std::map<std::uint64_t, double>
DensityMatrixSimulator::distribution(const Execution &exec) const
{
    // Joint distribution over the classical register from the final
    // diagonal: unmeasured qubits are marginalised away.
    const std::vector<double> probs = exec.state.probabilities();
    std::map<std::uint64_t, double> dist;
    for (std::uint64_t basis = 0; basis < probs.size(); ++basis) {
        if (probs[basis] <= 0.0)
            continue;
        std::uint64_t reg = 0;
        for (const auto &[q, c] : exec.wiring) {
            if ((basis >> q) & 1)
                reg |= std::uint64_t{1} << c;
            else
                reg &= ~(std::uint64_t{1} << c);
        }
        dist[reg] += probs[basis];
    }

    // Fold per-qubit readout confusion into the register distribution.
    if (noise_ != nullptr && noise_->enabled()) {
        for (const auto &[q, c] : exec.wiring) {
            const ReadoutError *ro = noise_->readoutFor(q);
            if (ro == nullptr)
                continue;
            std::map<std::uint64_t, double> flipped;
            const std::uint64_t bit = std::uint64_t{1} << c;
            for (const auto &[reg, p] : dist) {
                const int true_bit = (reg & bit) ? 1 : 0;
                for (int read = 0; read < 2; ++read) {
                    const double weight = ro->confusion(true_bit, read);
                    if (weight <= 0.0)
                        continue;
                    const std::uint64_t out =
                        read ? (reg | bit) : (reg & ~bit);
                    flipped[out] += p * weight;
                }
            }
            dist = std::move(flipped);
        }
    }
    return dist;
}

Result
DensityMatrixSimulator::run(const Circuit &circuit, std::size_t shots)
{
    const Execution exec = execute(circuit);
    const std::map<std::uint64_t, double> dist = distribution(exec);

    Result result(circuit.numClbits());
    result.setExactDistribution(dist);
    result.setRetainedFraction(exec.retained);

    // Sample counts from the exact distribution.
    std::vector<std::uint64_t> keys;
    std::vector<double> probs;
    keys.reserve(dist.size());
    probs.reserve(dist.size());
    for (const auto &[reg, p] : dist) {
        keys.push_back(reg);
        probs.push_back(p);
    }
    for (std::size_t s = 0; s < shots; ++s)
        result.record(keys[sampleDiscrete(probs, rng_)]);
    return result;
}

DensityMatrix
DensityMatrixSimulator::finalState(const Circuit &circuit)
{
    return execute(circuit).state;
}

} // namespace qra
