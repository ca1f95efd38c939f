#include "noise/channels.hh"

#include <cmath>

#include "common/error.hh"
#include "math/gates.hh"

namespace qra {
namespace channels {

namespace {

void
checkProbability(double p, const char *what)
{
    if (p < 0.0 || p > 1.0)
        throw NoiseError(std::string(what) +
                         " probability must lie in [0, 1], got " +
                         std::to_string(p));
}

} // namespace

KrausChannel
depolarizing1(double p)
{
    checkProbability(p, "depolarizing");
    const double p_each = p / 3.0;
    std::vector<Matrix> ops;
    ops.push_back(Matrix::identity(2) *
                  Complex{std::sqrt(1.0 - p), 0.0});
    ops.push_back(gates::x() * Complex{std::sqrt(p_each), 0.0});
    ops.push_back(gates::y() * Complex{std::sqrt(p_each), 0.0});
    ops.push_back(gates::z() * Complex{std::sqrt(p_each), 0.0});
    return KrausChannel(std::move(ops), "depolarizing1");
}

KrausChannel
depolarizing2(double p)
{
    checkProbability(p, "depolarizing2");
    const Matrix paulis[4] = {Matrix::identity(2), gates::x(),
                              gates::y(), gates::z()};
    const double p_each = p / 15.0;

    std::vector<Matrix> ops;
    ops.reserve(16);
    for (int a = 0; a < 4; ++a) {
        for (int b = 0; b < 4; ++b) {
            const double weight =
                (a == 0 && b == 0) ? 1.0 - p : p_each;
            // Matrix bit 0 = first qubit: kron(second, first).
            ops.push_back(paulis[b].kron(paulis[a]) *
                          Complex{std::sqrt(weight), 0.0});
        }
    }
    return KrausChannel(std::move(ops), "depolarizing2");
}

KrausChannel
amplitudeDamping(double gamma)
{
    checkProbability(gamma, "amplitude damping");
    const Complex zero{0.0, 0.0};
    Matrix k0{{Complex{1.0, 0.0}, zero},
              {zero, Complex{std::sqrt(1.0 - gamma), 0.0}}};
    Matrix k1{{zero, Complex{std::sqrt(gamma), 0.0}}, {zero, zero}};
    return KrausChannel({std::move(k0), std::move(k1)},
                        "amplitude-damping");
}

KrausChannel
phaseDamping(double lambda)
{
    checkProbability(lambda, "phase damping");
    const Complex zero{0.0, 0.0};
    Matrix k0{{Complex{1.0, 0.0}, zero},
              {zero, Complex{std::sqrt(1.0 - lambda), 0.0}}};
    Matrix k1{{zero, zero}, {zero, Complex{std::sqrt(lambda), 0.0}}};
    return KrausChannel({std::move(k0), std::move(k1)},
                        "phase-damping");
}

KrausChannel
thermalRelaxation(double t1_ns, double t2_ns, double duration_ns)
{
    if (t1_ns <= 0.0 || t2_ns <= 0.0)
        throw NoiseError("T1 and T2 must be positive");
    if (t2_ns > 2.0 * t1_ns + 1e-9)
        throw NoiseError("unphysical relaxation times: T2 > 2*T1");
    if (duration_ns < 0.0)
        throw NoiseError("negative duration");

    const double gamma = 1.0 - std::exp(-duration_ns / t1_ns);

    // Total coherence decay must be exp(-t/T2). Amplitude damping
    // already contributes exp(-t/(2 T1)); pure dephasing supplies the
    // remainder: sqrt(1 - lambda) = exp(-t/T2 + t/(2 T1)).
    const double residual =
        std::exp(-duration_ns / t2_ns + duration_ns / (2.0 * t1_ns));
    const double lambda =
        std::max(0.0, 1.0 - residual * residual);

    return amplitudeDamping(gamma)
        .composeWith(phaseDamping(lambda));
}

} // namespace channels
} // namespace qra
