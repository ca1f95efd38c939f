#include "runtime/backend.hh"

#include "stabilizer/stabilizer_simulator.hh"

namespace qra {
namespace runtime {

std::string
Backend::rejectReason(const Circuit &circuit,
                      const NoiseModel *noise) const
{
    const BackendCapabilities &caps = capabilities();
    if (circuit.numQubits() > caps.maxQubits)
        return name() + " is limited to " +
               std::to_string(caps.maxQubits) + " qubits (circuit has " +
               std::to_string(circuit.numQubits()) + ")";
    if (noise != nullptr && !caps.supportsNoise)
        return name() + " does not support noise models";
    if (caps.cliffordOnly && !StabilizerSimulator::supports(circuit))
        return name() + " executes Clifford circuits only";
    return {};
}

} // namespace runtime
} // namespace qra
