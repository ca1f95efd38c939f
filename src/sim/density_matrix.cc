#include "sim/density_matrix.hh"

#include <algorithm>
#include <cmath>

#include "common/error.hh"
#include "math/linalg.hh"
#include "noise/channels.hh"
#include "noise/kraus.hh"
#include "sim/kernels/density_plan.hh"
#include "sim/kernels/kernels.hh"

namespace qra {

namespace {

/** Matrix dimension, validated before anything is allocated. */
std::size_t
checkedDim(std::size_t num_qubits)
{
    if (num_qubits == 0 || num_qubits > DensityMatrix::kMaxQubits)
        throw SimulationError(
            "density matrix supports 1.." +
            std::to_string(DensityMatrix::kMaxQubits) + " qubits");
    return std::size_t{1} << num_qubits;
}

} // namespace

DensityMatrix::DensityMatrix(std::size_t num_qubits)
    : numQubits_(num_qubits),
      rho_(checkedDim(num_qubits), checkedDim(num_qubits))
{
    rho_(0, 0) = 1.0;
}

DensityMatrix
DensityMatrix::fromPureState(const std::vector<Complex> &amps)
{
    const std::size_t dim = amps.size();
    if (dim < 2 || (dim & (dim - 1)) != 0)
        throw SimulationError("amplitude count must be a power of two");
    std::size_t num_qubits = 0;
    while ((std::size_t{1} << num_qubits) < dim)
        ++num_qubits;

    DensityMatrix dm(num_qubits);
    dm.rho_ = linalg::outer(amps);
    return dm;
}

void
DensityMatrix::checkQubit(Qubit q) const
{
    if (q >= numQubits_)
        throw IndexError("qubit index " + std::to_string(q) +
                         " out of range");
}

void
DensityMatrix::applySuperoperator(const Matrix &s,
                                  const std::vector<Qubit> &qubits)
{
    std::vector<Qubit> operands = qubits;
    for (Qubit q : qubits) {
        checkQubit(q);
        operands.push_back(q + static_cast<Qubit>(numQubits_));
    }
    kernels::applyMatrix(rho_.data(), s, operands);
}

void
DensityMatrix::applyMatrix(const Matrix &u,
                           const std::vector<Qubit> &qubits)
{
    std::vector<Qubit> rows;
    for (Qubit q : qubits) {
        checkQubit(q);
        rows.push_back(q + static_cast<Qubit>(numQubits_));
    }
    kernels::applyMatrix(rho_.data(), u, rows);
    kernels::applyMatrix(rho_.data(), u.conjugate(), qubits);
}

void
DensityMatrix::applyUnitary(const Operation &op)
{
    if (!opIsUnitary(op.kind))
        throw SimulationError(std::string("applyUnitary on '") +
                              opName(op.kind) + "'");
    if (op.kind == OpKind::I)
        return;
    applyMatrix(op.matrix(), op.qubits);
}

void
DensityMatrix::applyKraus(const KrausChannel &channel,
                          const std::vector<Qubit> &qubits)
{
    applySuperoperator(kernels::superoperator(channel.operators()),
                       qubits);
}

void
DensityMatrix::applyKernel(const kernels::PlanEntry &entry)
{
    kernels::applyEntry(rho_.data().data(), 2 * numQubits_, entry);
}

double
DensityMatrix::probabilityOfOne(Qubit q) const
{
    return std::clamp(outcomeWeight(q, 1), 0.0, 1.0);
}

void
DensityMatrix::dephase(Qubit q)
{
    // An unread measurement is full phase damping.
    applyKraus(channels::phaseDamping(1.0), {q});
}

double
DensityMatrix::outcomeWeight(Qubit q, int outcome) const
{
    checkQubit(q);
    const std::uint64_t bit = std::uint64_t{1} << q;
    const std::uint64_t match = outcome ? bit : 0;
    double weight = 0.0;
    for (std::uint64_t i = 0; i < dim(); ++i)
        if ((i & bit) == match)
            weight += rho_(i, i).real();
    return weight;
}

void
DensityMatrix::project(Qubit q, int outcome, double scale)
{
    checkQubit(q);
    // Project the row index (qubit q + n), scaling, then the column
    // index (qubit q).
    Complex *amps = rho_.data().data();
    const std::uint64_t n = rho_.data().size();
    kernels::collapseQubit(amps, n, q + static_cast<Qubit>(numQubits_),
                           outcome, scale);
    kernels::collapseQubit(amps, n, q, outcome, 1.0);
}

DensityMatrix &
DensityMatrix::operator+=(const DensityMatrix &other)
{
    if (other.numQubits_ != numQubits_)
        throw SimulationError("density matrix sum over mismatched "
                              "registers");
    rho_ += other.rho_;
    return *this;
}

void
DensityMatrix::resetQubit(Qubit q)
{
    // Reset = full amplitude damping, Kraus {|0><0|, |0><1|}.
    applyKraus(channels::amplitudeDamping(1.0), {q});
}

std::vector<double>
DensityMatrix::probabilities() const
{
    std::vector<double> probs(dim());
    for (std::size_t i = 0; i < dim(); ++i)
        probs[i] = std::max(0.0, rho_(i, i).real());
    return probs;
}

double
DensityMatrix::purity() const
{
    return linalg::purity(rho_);
}

double
DensityMatrix::fidelityWithPure(const std::vector<Complex> &psi) const
{
    return linalg::mixedStateFidelity(rho_, psi);
}

Matrix
DensityMatrix::reducedQubitDensity(Qubit q) const
{
    checkQubit(q);
    std::vector<std::size_t> traced;
    for (std::size_t i = 0; i < numQubits_; ++i)
        if (i != q)
            traced.push_back(i);
    return linalg::partialTrace(rho_, numQubits_, traced);
}

double
DensityMatrix::trace() const
{
    return rho_.trace().real();
}

} // namespace qra
