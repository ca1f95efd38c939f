/**
 * @file
 * Factory functions for the standard single- and two-qubit noise
 * channels used by the device models.
 */

#ifndef QRA_NOISE_CHANNELS_HH
#define QRA_NOISE_CHANNELS_HH

#include "noise/kraus.hh"

namespace qra {
namespace channels {

/**
 * Single-qubit depolarising channel: with probability @p p the qubit
 * is replaced by the maximally mixed state (uniform X/Y/Z errors).
 * @pre 0 <= p <= 1.
 */
KrausChannel depolarizing1(double p);

/**
 * Two-qubit depolarising channel: uniform over the 15 non-identity
 * two-qubit Pauli errors with total probability @p p.
 */
KrausChannel depolarizing2(double p);

/**
 * Amplitude damping: |1> decays to |0> with probability @p gamma
 * (energy relaxation, T1).
 */
KrausChannel amplitudeDamping(double gamma);

/**
 * Phase damping: coherence decays with parameter @p lambda without
 * energy loss (pure dephasing, T_phi).
 */
KrausChannel phaseDamping(double lambda);

/**
 * Thermal relaxation over a window of @p duration_ns for a qubit with
 * relaxation time @p t1_ns and dephasing time @p t2_ns.
 *
 * Composition of amplitude damping (gamma = 1 - exp(-t/T1)) and pure
 * phase damping chosen so total dephasing matches exp(-t/T2).
 * @pre t2 <= 2 * t1 (physicality).
 */
KrausChannel thermalRelaxation(double t1_ns, double t2_ns,
                               double duration_ns);

} // namespace channels
} // namespace qra

#endif // QRA_NOISE_CHANNELS_HH
