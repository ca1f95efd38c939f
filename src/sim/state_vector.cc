#include "sim/state_vector.hh"

#include <algorithm>
#include <cmath>

#include "common/error.hh"
#include "math/linalg.hh"
#include "sim/kernels/kernels.hh"
#include "sim/kernels/plan.hh"

namespace qra {

namespace {

/** 2^@p num_qubits, validated before anything is allocated. */
std::size_t
checkedDim(std::size_t num_qubits)
{
    if (num_qubits == 0 || num_qubits > StateVector::kMaxQubits)
        throw SimulationError(
            "state vector supports 1.." +
            std::to_string(StateVector::kMaxQubits) + " qubits");
    return std::size_t{1} << num_qubits;
}

} // namespace

StateVector::StateVector(std::size_t num_qubits)
    : numQubits_(num_qubits),
      amps_(checkedDim(num_qubits), Complex{0.0, 0.0})
{
    amps_[0] = 1.0;
}

StateVector
StateVector::fromAmplitudes(std::vector<Complex> amps)
{
    const std::size_t dim = amps.size();
    if (dim < 2 || (dim & (dim - 1)) != 0)
        throw SimulationError("amplitude count must be a power of two");

    std::size_t num_qubits = 0;
    while ((std::size_t{1} << num_qubits) < dim)
        ++num_qubits;

    StateVector sv(num_qubits);
    linalg::normalize(amps);
    sv.amps_ = std::move(amps);
    return sv;
}

void
StateVector::checkQubit(Qubit q) const
{
    if (q >= numQubits_)
        throw IndexError("qubit index " + std::to_string(q) +
                         " out of range");
}

void
StateVector::applyMatrix(const Matrix &u, const std::vector<Qubit> &qubits)
{
    const std::size_t k = qubits.size();
    const std::size_t block = std::size_t{1} << k;
    if (u.rows() != block || u.cols() != block)
        throw SimulationError("gate matrix size does not match qubit "
                              "operand count");
    for (Qubit q : qubits)
        checkQubit(q);

    kernels::applyMatrix(amps_, u, qubits);
}

void
StateVector::applyUnitary(const Operation &op)
{
    if (!opIsUnitary(op.kind))
        throw SimulationError(std::string("applyUnitary on '") +
                              opName(op.kind) + "'");
    applyKernel(kernels::lowerOperation(op));
}

void
StateVector::applyKernel(const kernels::PlanEntry &entry)
{
    kernels::applyEntry(amps_.data(), numQubits_, entry);
}

int
StateVector::measure(Qubit q, Rng &rng)
{
    checkQubit(q);
    const double p1 = probabilityOfOne(q);
    const int outcome = rng.uniform() < p1 ? 1 : 0;
    const double p = outcome ? p1 : 1.0 - p1;
    if (p < 1e-15)
        throw SimulationError("measurement collapsed onto a zero-"
                              "probability branch (numerical issue)");
    kernels::collapseQubit(amps_.data(), amps_.size(), q, outcome,
                           1.0 / std::sqrt(p));
    return outcome;
}

double
StateVector::postSelect(Qubit q, int outcome)
{
    checkQubit(q);
    const double p1 = probabilityOfOne(q);
    const double p = outcome ? p1 : 1.0 - p1;
    if (p < 1e-12)
        throw SimulationError(
            "post-selection onto a zero-probability branch (qubit " +
            std::to_string(q) + " == " + std::to_string(outcome) + ")");
    kernels::collapseQubit(amps_.data(), amps_.size(), q, outcome,
                           1.0 / std::sqrt(p));
    return p;
}

double
StateVector::probabilityOfOne(Qubit q) const
{
    checkQubit(q);
    const std::uint64_t bit = std::uint64_t{1} << q;
    return std::min(
        1.0, kernels::normSquaredOnMask(amps_.data(), amps_.size(),
                                        bit, bit));
}

std::vector<double>
StateVector::probabilities() const
{
    std::vector<double> probs(amps_.size());
    kernels::computeProbabilities(amps_.data(), amps_.size(),
                                  probs.data());
    return probs;
}

std::vector<double>
StateVector::marginalProbabilities(const std::vector<Qubit> &qubits) const
{
    for (Qubit q : qubits)
        checkQubit(q);
    return kernels::marginalProbabilities(amps_.data(), amps_.size(),
                                          qubits);
}

BasisIndex
StateVector::sample(Rng &rng) const
{
    // One-off draw: a linear cumulative scan. Repeated sampling
    // should build a CumulativeSampler from probabilities() and count
    // its shots in one call instead; runSampled does.
    const double u = rng.uniform();
    double acc = 0.0;
    for (std::uint64_t i = 0; i < amps_.size(); ++i) {
        acc += std::norm(amps_[i]);
        if (u < acc)
            return i;
    }
    return amps_.size() - 1;
}

void
StateVector::resetQubit(Qubit q, Rng &rng)
{
    const int outcome = measure(q, rng);
    if (outcome == 1)
        kernels::applyX(amps_.data(), amps_.size(), q);
}

Matrix
StateVector::reducedQubitDensity(Qubit q) const
{
    checkQubit(q);
    const kernels::QubitDensity rho =
        kernels::reduceQubitDensity(amps_.data(), amps_.size(), q);
    return Matrix{{Complex{rho.r00, 0.0}, std::conj(rho.c01)},
                  {rho.c01, Complex{rho.r11, 0.0}}};
}

double
StateVector::qubitPurity(Qubit q) const
{
    return linalg::purity(reducedQubitDensity(q));
}

double
StateVector::fidelityWith(const StateVector &other) const
{
    if (numQubits_ != other.numQubits_)
        throw SimulationError("fidelity between different-size states");
    return linalg::stateFidelity(amps_, other.amps_);
}

double
StateVector::norm() const
{
    return std::sqrt(kernels::normSquaredOnMask(amps_.data(),
                                                amps_.size(), 0, 0));
}

} // namespace qra
