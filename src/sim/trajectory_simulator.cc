#include "sim/trajectory_simulator.hh"

#include <cmath>

#include "common/error.hh"
#include "sim/kernels/kernels.hh"
#include "sim/kernels/plan_cache.hh"
#include "sim/shot_util.hh"

namespace qra {

TrajectorySimulator::TrajectorySimulator(std::uint64_t seed) : rng_(seed)
{
}

namespace {

/**
 * Guard against sampleDiscrete's drift fallback: when cumulative
 * rounding lets the draw fall past every branch, the last index comes
 * back even if its Born weight is zero — redirect to the heaviest
 * branch instead of collapsing onto an impossible one.
 */
std::size_t
nonDegenerateBranch(const std::vector<double> &weights,
                    std::size_t chosen)
{
    if (weights[chosen] > 1e-30)
        return chosen;
    std::size_t best = chosen;
    for (std::size_t k = 0; k < weights.size(); ++k)
        if (weights[k] > weights[best])
            best = k;
    return best;
}

} // namespace

void
TrajectorySimulator::sampleSite(const kernels::KrausSite &site,
                                StateVector &state)
{
    if (site.fixedWeights) {
        // Scaled-unitary branches: state-independent weights, one
        // uniform draw, one or two in-place kernels (tensor-product
        // branches split). No copies, no norms.
        const std::size_t chosen = sampleDiscrete(site.weights, rng_);
        for (const kernels::PlanEntry &entry : site.branches[chosen])
            state.applyKernel(entry);
        return;
    }
    // State-dependent one-qubit channel (thermal relaxation): one
    // read of the state gives the qubit's reduced density and from it
    // every branch weight tr(G_k rho_q); the chosen operator,
    // pre-scaled by 1/sqrt(w), is applied in one pass.
    const Qubit q = site.qubits[0];
    const kernels::QubitDensity rho = kernels::reduceQubitDensity(
        state.amplitudes().data(), state.dim(), q);
    weights_.resize(site.ops1q.size());
    for (std::size_t k = 0; k < site.ops1q.size(); ++k)
        weights_[k] = site.ops1q[k].weight(rho);
    const std::size_t chosen =
        nonDegenerateBranch(weights_, sampleDiscrete(weights_, rng_));
    if (weights_[chosen] < 1e-30)
        throw SimulationError("Kraus branch sampled with (near-)"
                              "zero Born weight (numerical issue)");
    const kernels::Kraus1q &op = site.ops1q[chosen];
    const double scale = 1.0 / std::sqrt(weights_[chosen]);
    kernels::PlanEntry entry;
    entry.kind = op.kind;
    entry.q0 = q;
    for (int j = 0; j < 4; ++j)
        entry.m[j] = op.m[j] * scale;
    state.applyKernel(entry);
}

bool
TrajectorySimulator::runShot(const kernels::TrajectoryPlan &plan,
                             std::span<const kernels::PlanEntry> entries,
                             StateVector &state,
                             std::uint64_t &register_value)
{
    using kernels::KernelKind;
    register_value = 0;
    for (const kernels::PlanEntry &entry : entries) {
        switch (entry.kind) {
          case KernelKind::Measure:
          {
            int outcome = state.measure(entry.q0, rng_);
            if (entry.site >= 0)
                outcome = plan.readout(entry.site)
                              .sampleReadout(outcome, rng_);
            if (outcome)
                register_value |= std::uint64_t{1} << entry.clbit;
            else
                register_value &= ~(std::uint64_t{1} << entry.clbit);
            continue;
          }
          case KernelKind::ResetQ:
            state.resetQubit(entry.q0, rng_);
            continue;
          case KernelKind::PostSelectQ:
          {
            const double p1 = state.probabilityOfOne(entry.q0);
            const double p = entry.postselectValue ? p1 : 1.0 - p1;
            if (p < 1e-12)
                return false; // discard this trajectory
            if (rng_.uniform() >= p)
                return false;
            state.postSelect(entry.q0, entry.postselectValue);
            continue;
          }
          case KernelKind::SampleKraus:
            sampleSite(plan.site(entry.site), state);
            continue;
          default:
            state.applyKernel(entry);
        }
    }
    return true;
}

std::shared_ptr<const kernels::TrajectoryPlan>
TrajectorySimulator::planFor(const Circuit &circuit) const
{
    if (kernels::PlanCache *cache = kernels::currentPlanCache())
        return cache->trajectoryPlan(circuit, noise_,
                                     kernels::currentFusionLevel());
    return std::make_shared<const kernels::TrajectoryPlan>(
        kernels::TrajectoryPlan::compile(circuit, noise_));
}

namespace {

/**
 * Split before the first entry that can draw: a measurement, a reset,
 * a PostSelect or a noise site. Noisy plans split at their first
 * noise site, which is near the start.
 */
SplitSteps<kernels::PlanEntry>
splitPlan(const kernels::TrajectoryPlan &plan)
{
    using kernels::KernelKind;
    return splitAtFirstDraw(
        plan.entries(), [](const kernels::PlanEntry &entry) {
            return entry.kind == KernelKind::Measure ||
                   entry.kind == KernelKind::ResetQ ||
                   entry.kind == KernelKind::PostSelectQ ||
                   entry.kind == KernelKind::SampleKraus;
        });
}

} // namespace

Result
TrajectorySimulator::run(const Circuit &circuit, std::size_t shots)
{
    // Lower once per job (or fetch the cached artifact): every shot
    // replays classified kernels and pre-built noise sites.
    const std::shared_ptr<const kernels::TrajectoryPlan> plan =
        planFor(circuit);
    return runPostSelectedShots<StateVector>(
        circuit, shots, splitPlan(*plan),
        [&](StateVector &state,
            std::span<const kernels::PlanEntry> entries,
            std::uint64_t &reg) {
            return runShot(*plan, entries, state, reg);
        });
}

StateVector
TrajectorySimulator::evolveOne(const Circuit &circuit)
{
    const std::shared_ptr<const kernels::TrajectoryPlan> plan =
        planFor(circuit);
    return firstKeptState<StateVector>(
        circuit, splitPlan(*plan),
        [&](StateVector &state,
            std::span<const kernels::PlanEntry> entries,
            std::uint64_t &reg) {
            return runShot(*plan, entries, state, reg);
        });
}

} // namespace qra
