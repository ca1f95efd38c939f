#include "sim/density_simulator.hh"

#include "common/error.hh"
#include "sim/kernels/plan_cache.hh"

namespace qra {

namespace {

/** A record branch lighter than this is dropped. */
constexpr double kDropWeight = 1e-15;

} // namespace

DensityMatrixSimulator::DensityMatrixSimulator(std::uint64_t seed)
    : rng_(seed)
{
}

std::string
DensityMatrixSimulator::branchLimitReason(std::size_t qubits,
                                          std::size_t records)
{
    if (records > kMaxRecords)
        return "density branches on at most " +
               std::to_string(kMaxRecords) +
               " mid-circuit measurements (circuit has " +
               std::to_string(records) + ")";
    // 2^records states of 16 * 4^qubits bytes each.
    if (records + 2 * qubits > 2 * DensityMatrix::kMaxQubits)
        return "density would hold 2^" + std::to_string(records) +
               " record branches of a " + std::to_string(qubits) +
               "-qubit state, more than one " +
               std::to_string(DensityMatrix::kMaxQubits) +
               "-qubit state (256 MiB)";
    return {};
}

DensityMatrixSimulator::Execution
DensityMatrixSimulator::execute(const Circuit &circuit)
{
    // Lower at the thread's fusion level; evolution is then one
    // in-place kernel per entry and branch. A PlanCache keeps the
    // distribution this feeds, not the plan.
    Execution exec;
    exec.plan = std::make_shared<const kernels::DensityPlan>(
        kernels::DensityPlan::compile(circuit, noise_));
    const std::string limit =
        branchLimitReason(circuit.numQubits(), exec.plan->records());
    if (!limit.empty())
        throw SimulationError(limit);

    std::vector<Branch> &branches = exec.branches;
    branches.push_back({DensityMatrix(circuit.numQubits())});
    for (const kernels::PlanEntry &entry : exec.plan->entries()) {
        switch (entry.kind) {
          case kernels::KernelKind::Measure:
            splitOnRecord(branches, entry);
            break;
          case kernels::KernelKind::PostSelectQ:
            exec.retained *= postSelectAll(branches, entry);
            break;
          default:
            for (Branch &branch : branches)
                branch.state.applyKernel(entry);
        }
    }
    return exec;
}

void
DensityMatrixSimulator::splitOnRecord(std::vector<Branch> &branches,
                                      const kernels::PlanEntry &entry)
{
    // The kept outcome 0 copies the branch only when outcome 1 is kept
    // too; the last kept outcome takes the branch itself.
    const std::uint64_t bit = std::uint64_t{1} << entry.clbit;
    std::vector<Branch> split;
    split.reserve(2 * branches.size());
    for (Branch &branch : branches) {
        const bool keep[2] = {
            branch.state.outcomeWeight(entry.q0, 0) >= kDropWeight,
            branch.state.outcomeWeight(entry.q0, 1) >= kDropWeight};
        for (const int outcome : {0, 1}) {
            if (!keep[outcome])
                continue;
            if (outcome == 0 && keep[1])
                split.push_back(branch);
            else
                split.push_back(std::move(branch));
            Branch &out = split.back();
            out.state.project(entry.q0, outcome);
            out.record =
                outcome ? (out.record | bit) : (out.record & ~bit);
        }
    }
    branches = std::move(split);
}

double
DensityMatrixSimulator::postSelectAll(std::vector<Branch> &branches,
                                      const kernels::PlanEntry &entry)
{
    const int value = entry.postselectValue;
    std::vector<double> weights;
    double kept = 0.0;
    for (const Branch &branch : branches) {
        weights.push_back(branch.state.outcomeWeight(entry.q0, value));
        kept += weights.back();
    }
    if (kept < 1e-12)
        throw SimulationError(
            "post-selection onto a zero-probability branch (qubit " +
            std::to_string(entry.q0) + " == " + std::to_string(value) +
            ")");
    std::vector<Branch> survivors;
    for (std::size_t b = 0; b < branches.size(); ++b) {
        if (weights[b] < kDropWeight)
            continue;
        branches[b].state.project(entry.q0, value, 1.0 / kept);
        survivors.push_back(std::move(branches[b]));
    }
    branches = std::move(survivors);
    return kept;
}

std::map<std::uint64_t, double>
DensityMatrixSimulator::exactDistribution(const Circuit &circuit)
{
    return registerDistribution(circuit)->distribution;
}

std::shared_ptr<const kernels::DensityDistribution>
DensityMatrixSimulator::registerDistribution(const Circuit &circuit)
{
    // The distribution depends only on (circuit, noise, fusion); a
    // miss evolves once.
    const auto build = [&]() {
        return std::make_shared<const kernels::DensityDistribution>(
            distribution(execute(circuit)));
    };
    if (kernels::PlanCache *cache = kernels::currentPlanCache())
        return cache->densityDistribution(
            circuit, noise_, kernels::currentFusionLevel(), build);
    return build();
}

kernels::DensityDistribution
DensityMatrixSimulator::distribution(const Execution &exec) const
{
    // Joint distribution over the classical register: each branch's
    // record bits plus the terminal bits off its diagonal; unmeasured
    // qubits are marginalised away.
    const auto &writers = exec.plan->clbitWriters();
    std::uint64_t record_mask = 0;
    for (const auto &w : writers)
        if (w.record)
            record_mask |= std::uint64_t{1} << w.clbit;
    std::map<std::uint64_t, double> dist;
    for (const Branch &branch : exec.branches) {
        const std::vector<double> probs = branch.state.probabilities();
        for (std::uint64_t basis = 0; basis < probs.size(); ++basis) {
            if (probs[basis] <= 0.0)
                continue;
            std::uint64_t reg = branch.record & record_mask;
            for (const auto &w : writers)
                if (!w.record && ((basis >> w.qubit) & 1))
                    reg |= std::uint64_t{1} << w.clbit;
            dist[reg] += probs[basis];
        }
    }

    // Fold readout confusion into the register distribution, once per
    // clbit, through the qubit that wrote it last.
    if (noise_ != nullptr && noise_->enabled()) {
        for (const auto &w : writers) {
            const ReadoutError *ro = noise_->readoutFor(w.qubit);
            if (ro == nullptr)
                continue;
            std::map<std::uint64_t, double> flipped;
            const std::uint64_t bit = std::uint64_t{1} << w.clbit;
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

    kernels::DensityDistribution out;
    out.retainedFraction = exec.retained;
    std::vector<double> probs;
    out.keys.reserve(dist.size());
    probs.reserve(dist.size());
    for (const auto &[reg, p] : dist) {
        out.keys.push_back(reg);
        probs.push_back(p);
    }
    out.sampler = CumulativeSampler(std::move(probs));
    out.distribution = std::move(dist);
    return out;
}

Result
DensityMatrixSimulator::run(const Circuit &circuit, std::size_t shots)
{
    const auto dist = registerDistribution(circuit);
    Result result(circuit.numClbits());
    result.setExactDistribution(dist->distribution);
    result.setRetainedFraction(dist->retainedFraction);

    // Count per key, then fold into the Result once.
    for (const auto &[i, count] : dist->sampler.counts(shots, rng_))
        result.record(dist->keys[i], count);
    return result;
}

DensityMatrix
DensityMatrixSimulator::finalState(const Circuit &circuit)
{
    Execution exec = execute(circuit);
    DensityMatrix state = std::move(exec.branches.front().state);
    for (std::size_t b = 1; b < exec.branches.size(); ++b)
        state += exec.branches[b].state;
    return state;
}

} // namespace qra
