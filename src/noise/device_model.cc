#include "noise/device_model.hh"

namespace qra {

DeviceModel::DeviceModel(std::string name, CouplingMap coupling,
                         NoiseModel noise)
    : name_(std::move(name)), coupling_(std::move(coupling)),
      noise_(std::move(noise))
{
}

DeviceModel
DeviceModel::ibmqx4()
{
    CouplingMap coupling(5);
    coupling.addEdge(1, 0);
    coupling.addEdge(2, 0);
    coupling.addEdge(2, 1);
    coupling.addEdge(3, 2);
    coupling.addEdge(3, 4);
    coupling.addEdge(4, 2);

    NoiseModel noise;

    // Gate durations (ns): single-qubit ~80, CNOT ~350.
    for (OpKind kind : {OpKind::X, OpKind::Y, OpKind::Z, OpKind::H,
                        OpKind::S, OpKind::Sdg, OpKind::T, OpKind::Tdg,
                        OpKind::SX, OpKind::RX, OpKind::RY, OpKind::RZ,
                        OpKind::P, OpKind::U})
        noise.setGateDuration(kind, 80.0);
    noise.setGateDuration(OpKind::I, 80.0);
    noise.setGateDuration(OpKind::CX, 350.0);
    noise.setGateDuration(OpKind::CY, 350.0);
    noise.setGateDuration(OpKind::CZ, 350.0);
    noise.setGateDuration(OpKind::Swap, 1050.0); // 3 CNOTs
    noise.setGateDuration(OpKind::CCX, 2100.0);
    noise.setGateDuration(OpKind::Measure, 1000.0);
    noise.setGateDuration(OpKind::Reset, 1000.0);

    // Single-qubit depolarising error.
    for (OpKind kind : {OpKind::X, OpKind::Y, OpKind::Z, OpKind::H,
                        OpKind::S, OpKind::Sdg, OpKind::T, OpKind::Tdg,
                        OpKind::SX, OpKind::RX, OpKind::RY, OpKind::RZ,
                        OpKind::P, OpKind::U})
        noise.setGateError(kind, 1.2e-3);

    // Two-qubit depolarising error: per-edge calibration, reflecting
    // the spread IBM reported across the six couplings.
    noise.setGateError(OpKind::CX, 2.8e-2);
    noise.setGateError(OpKind::CX, {1, 0}, 2.4e-2);
    noise.setGateError(OpKind::CX, {2, 0}, 2.7e-2);
    noise.setGateError(OpKind::CX, {2, 1}, 2.9e-2);
    noise.setGateError(OpKind::CX, {3, 2}, 3.4e-2);
    noise.setGateError(OpKind::CX, {3, 4}, 2.6e-2);
    noise.setGateError(OpKind::CX, {4, 2}, 3.1e-2);
    noise.setGateError(OpKind::CZ, 2.8e-2);
    noise.setGateError(OpKind::Swap, 7.0e-2);

    // Relaxation constants (ns): T1 ~45 us, T2 in the 20-40 us range.
    noise.setQubitRelaxation(0, 46000.0, 22000.0);
    noise.setQubitRelaxation(1, 44000.0, 31000.0);
    noise.setQubitRelaxation(2, 48000.0, 36000.0);
    noise.setQubitRelaxation(3, 42000.0, 25000.0);
    noise.setQubitRelaxation(4, 45000.0, 28000.0);

    // Readout confusion: asymmetric, |1> reads worse than |0>.
    noise.setReadoutError(0, ReadoutError(0.020, 0.032));
    noise.setReadoutError(1, ReadoutError(0.018, 0.030));
    noise.setReadoutError(2, ReadoutError(0.022, 0.036));
    noise.setReadoutError(3, ReadoutError(0.030, 0.046));
    noise.setReadoutError(4, ReadoutError(0.026, 0.040));

    return DeviceModel("ibmqx4", std::move(coupling), std::move(noise));
}

DeviceModel
DeviceModel::scaledNoise(double factor) const
{
    return DeviceModel(name_ + "_x" + std::to_string(factor), coupling_,
                       noise_.scaled(factor));
}

} // namespace qra
