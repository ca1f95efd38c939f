#include "math/linalg.hh"

#include <cmath>

#include "common/error.hh"

namespace qra {
namespace linalg {

void
normalize(std::vector<Complex> &v)
{
    double sum = 0.0;
    for (const auto &amp : v)
        sum += std::norm(amp);
    const double n = std::sqrt(sum);
    if (n < kTol)
        QRA_FATAL("cannot normalise a (near-)zero vector");
    for (auto &amp : v)
        amp /= n;
}

double
stateFidelity(const std::vector<Complex> &a, const std::vector<Complex> &b)
{
    if (a.size() != b.size())
        QRA_FATAL("stateFidelity dimension mismatch");
    Complex overlap{0.0, 0.0}; // <a|b>
    for (std::size_t i = 0; i < a.size(); ++i)
        overlap += std::conj(a[i]) * b[i];
    return std::norm(overlap);
}

double
mixedStateFidelity(const Matrix &rho, const std::vector<Complex> &psi)
{
    if (rho.rows() != psi.size() || !rho.isSquare())
        QRA_FATAL("mixedStateFidelity dimension mismatch");
    Complex sum{0.0, 0.0};
    for (std::size_t r = 0; r < rho.rows(); ++r)
        for (std::size_t c = 0; c < rho.cols(); ++c)
            sum += std::conj(psi[r]) * rho(r, c) * psi[c];
    return sum.real();
}

double
purity(const Matrix &rho)
{
    if (!rho.isSquare())
        QRA_FATAL("purity of a non-square matrix");
    // Tr(rho^2) = sum_ij rho_ij * rho_ji; for Hermitian rho this is
    // the squared Frobenius norm.
    double sum = 0.0;
    for (const auto &v : rho.data())
        sum += std::norm(v);
    return sum;
}

Matrix
outer(const std::vector<Complex> &psi)
{
    Matrix rho(psi.size(), psi.size());
    for (std::size_t r = 0; r < psi.size(); ++r)
        for (std::size_t c = 0; c < psi.size(); ++c)
            rho(r, c) = psi[r] * std::conj(psi[c]);
    return rho;
}

Matrix
partialTrace(const Matrix &rho, std::size_t num_qubits,
             const std::vector<std::size_t> &traced_qubits)
{
    const std::size_t dim = std::size_t{1} << num_qubits;
    if (rho.rows() != dim || rho.cols() != dim)
        QRA_FATAL("partialTrace: matrix does not match qubit count");

    std::uint64_t traced_mask = 0;
    for (std::size_t q : traced_qubits) {
        if (q >= num_qubits)
            QRA_FATAL("partialTrace: qubit index out of range");
        if (traced_mask & (std::uint64_t{1} << q))
            QRA_FATAL("partialTrace: duplicate traced qubit");
        traced_mask |= std::uint64_t{1} << q;
    }

    const std::size_t num_kept = num_qubits - traced_qubits.size();
    const std::size_t kept_dim = std::size_t{1} << num_kept;
    const std::size_t traced_dim =
        std::size_t{1} << traced_qubits.size();

    // Enumerate kept qubits in ascending order so they preserve their
    // relative order in the reduced matrix.
    std::vector<std::size_t> kept;
    kept.reserve(num_kept);
    for (std::size_t q = 0; q < num_qubits; ++q)
        if (!(traced_mask & (std::uint64_t{1} << q)))
            kept.push_back(q);

    auto expand = [&](std::size_t kept_bits,
                      std::size_t traced_bits) -> std::size_t {
        std::size_t full = 0;
        for (std::size_t i = 0; i < kept.size(); ++i)
            if ((kept_bits >> i) & 1)
                full |= std::size_t{1} << kept[i];
        for (std::size_t i = 0; i < traced_qubits.size(); ++i)
            if ((traced_bits >> i) & 1)
                full |= std::size_t{1} << traced_qubits[i];
        return full;
    };

    Matrix out(kept_dim, kept_dim);
    for (std::size_t r = 0; r < kept_dim; ++r) {
        for (std::size_t c = 0; c < kept_dim; ++c) {
            Complex sum{0.0, 0.0};
            for (std::size_t e = 0; e < traced_dim; ++e)
                sum += rho(expand(r, e), expand(c, e));
            out(r, c) = sum;
        }
    }
    return out;
}

} // namespace linalg
} // namespace qra
