/**
 * @file
 * DeviceModel: connectivity + calibration bundle describing a
 * (simulated) quantum computer. The ibmqx4() factory reproduces the
 * 5-qubit IBM Q "Tenerife" class of device the paper evaluated on:
 * directed CNOT connectivity and error magnitudes in the range IBM
 * published for that generation of hardware.
 */

#ifndef QRA_NOISE_DEVICE_MODEL_HH
#define QRA_NOISE_DEVICE_MODEL_HH

#include <string>

#include "noise/noise_model.hh"
#include "transpile/coupling_map.hh"

namespace qra {

/** A named device: coupling map plus noise calibration. */
class DeviceModel
{
  public:
    DeviceModel(std::string name, CouplingMap coupling,
                NoiseModel noise);

    const std::string &name() const { return name_; }
    const CouplingMap &couplingMap() const { return coupling_; }
    const NoiseModel &noiseModel() const { return noise_; }
    std::size_t numQubits() const { return coupling_.numQubits(); }

    /**
     * The 5-qubit ibmqx4-class device the paper's Tables 1-2 ran on.
     *
     * Native CNOT directions (control->target):
     *   q1->q0, q2->q0, q2->q1, q3->q2, q3->q4, q4->q2.
     * Calibration (ranges IBM reported for this device generation):
     *   T1 ~= 45 us, T2 ~= 20-40 us, single-qubit gate error ~1e-3,
     *   CNOT error 2-4e-2, readout error 3-7e-2, 1q gate 80 ns,
     *   CNOT ~350 ns.
     */
    static DeviceModel ibmqx4();

    /** Copy of this device with every error source scaled. */
    DeviceModel scaledNoise(double factor) const;

  private:
    std::string name_;
    CouplingMap coupling_;
    NoiseModel noise_;
};

} // namespace qra

#endif // QRA_NOISE_DEVICE_MODEL_HH
