/**
 * @file
 * Quantum teleportation guarded by dynamic assertions at protocol
 * boundaries: a classical assertion on the fresh target qubit, an
 * entanglement assertion on the Bell resource, and verification that
 * the teleported state arrives intact despite the checks.
 *
 * Run: ./build/examples/teleportation
 */

#include <cmath>
#include <cstdio>
#include <memory>

#include "qra.hh"

using namespace qra;

int
main()
{
    const double theta = 1.2345;
    const double expected_p1 = std::pow(std::sin(theta / 2.0), 2);

    // Teleport RY(theta)|0> from qubit 0 to qubit 2. Ops: 0 the
    // message state, 1-2 the Bell resource, 3-4 the Bell-basis
    // change, 5-6 the measurements, 7-8 the coherent corrections,
    // 9 the target's readout.
    const Circuit payload = library::teleportation(theta);

    // Assertion 1: before anything runs, the resource qubits are
    // still |0>.
    AssertionSpec fresh;
    fresh.assertion = std::make_shared<ClassicalAssertion>(0b00, 2);
    fresh.targets = {1, 2};
    fresh.insertAt = 0;
    fresh.label = "resource qubits fresh";

    // Assertion 2: after ops 1-2 the Bell resource is entangled.
    AssertionSpec bell;
    bell.assertion = std::make_shared<EntanglementAssertion>(2);
    bell.targets = {1, 2};
    bell.insertAt = 3;
    bell.label = "bell resource ready";

    const InstrumentedCircuit inst =
        instrument(payload, {fresh, bell});
    std::printf("%s\n", inst.circuit().draw().c_str());

    // The trajectory backend handles the mid-circuit measurements.
    TrajectorySimulator sim(4321);
    const Result r = sim.run(inst.circuit(), 20000);
    const AssertionReport report = analyze(inst, r);
    std::printf("%s\n", report.str(inst).c_str());

    // Teleportation fidelity: P(q2 reads 1) must equal
    // sin^2(theta/2) regardless of the correction bits.
    double p1 = 0.0;
    for (const auto &[payload_bits, p] : report.rawPayload)
        if ((payload_bits >> 2) & 1)
            p1 += p;
    std::printf("teleported P(1): measured %s, expected %s\n",
                formatDouble(p1, 4).c_str(),
                formatDouble(expected_p1, 4).c_str());

    const bool ok = std::abs(p1 - expected_p1) < 0.02 &&
                    report.anyErrorRate < 1e-9;
    std::printf("%s\n",
                ok ? "teleportation intact; all assertions silent"
                   : "UNEXPECTED: assertion fired or state damaged");
    return ok ? 0 : 1;
}
