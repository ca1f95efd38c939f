/**
 * @file
 * Stabilizer-tableau simulation state (Aaronson-Gottesman CHP).
 *
 * Every assertion circuit in the paper is Clifford (H, X, CNOT,
 * measurement), so assertion checking scales far beyond state-vector
 * reach on this backend. The n destabilizer and n stabilizer rows are
 * stored column-major and bit-packed as in Stim (arXiv:2103.02202):
 * per qubit an X and a Z bit column, plus a sign column, so a gate is
 * a few word operations per 64 rows.
 */

#ifndef QRA_STABILIZER_STABILIZER_STATE_HH
#define QRA_STABILIZER_STABILIZER_STATE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "circuit/gate.hh"
#include "common/rng.hh"
#include "math/types.hh"

namespace qra {

/** Stabilizer state over n qubits, initialised to |0...0>. */
class StabilizerState
{
  public:
    /** @param num_qubits Register size (no power-of-two limits). */
    explicit StabilizerState(std::size_t num_qubits);

    std::size_t numQubits() const { return numQubits_; }

    /** True when @p kind can be applied on this backend. */
    static bool isCliffordOp(OpKind kind);

    // --- Clifford gates ------------------------------------------------

    void applyH(Qubit q);
    void applyS(Qubit q);
    void applySdg(Qubit q);
    void applyX(Qubit q);
    void applyY(Qubit q);
    void applyZ(Qubit q);
    void applySx(Qubit q);
    void applyCx(Qubit control, Qubit target);
    void applyCy(Qubit control, Qubit target);
    void applyCz(Qubit a, Qubit b);
    void applySwap(Qubit a, Qubit b);

    /**
     * Apply one circuit operation.
     * @throws SimulationError for non-Clifford gates (T, RX, ...).
     */
    void applyUnitary(const Operation &op);

    // --- Measurement ---------------------------------------------------

    /** True when a Z measurement of @p q has a fixed outcome. */
    bool isDeterministic(Qubit q) const;

    /** P(measure q = 1): exactly 0, 0.5, or 1 for stabilizer states. */
    double probabilityOfOne(Qubit q) const;

    /** Measure @p q in the computational basis (collapsing). */
    int measure(Qubit q, Rng &rng);

    /**
     * Project @p q onto @p outcome.
     * @return Branch probability (0, 0.5 or 1); the state is
     *         unchanged when the return value is 0.
     */
    double postSelect(Qubit q, int outcome);

    /** Reset @p q to |0>. */
    void resetQubit(Qubit q, Rng &rng);

    /**
     * Stabilizer generators as Pauli strings, e.g. "+XX" and "+ZZ"
     * for a Bell pair. Qubit 0 is the leftmost character.
     */
    std::vector<std::string> stabilizerStrings() const;

  private:
    void checkQubit(Qubit q) const;

    /** Words per bit column: a destabilizer half, a stabilizer half. */
    std::size_t words() const { return 2 * halfWords_; }
    std::uint64_t *xCol(Qubit q) { return &bits_[2 * q * words()]; }
    std::uint64_t *zCol(Qubit q) { return xCol(q) + words(); }
    std::uint64_t *signs() { return xCol(numQubits_); }
    const std::uint64_t *xCol(Qubit q) const { return &bits_[2 * q * words()]; }
    const std::uint64_t *zCol(Qubit q) const { return xCol(q) + words(); }
    const std::uint64_t *signs() const { return xCol(numQubits_); }

    /** First stabilizer row (n + i) with an X at @p q, else 2n. */
    std::size_t findRandomizingRow(Qubit q) const;

    /** Apply a forced measurement outcome via the CHP update. */
    void collapse(Qubit q, std::size_t p, int outcome);

    /** Deterministic outcome of measuring @p q (requires such). */
    int deterministicOutcome(Qubit q) const;

    std::size_t numQubits_;
    /** ceil(n / 64): words per half column. */
    std::size_t halfWords_;
    /**
     * Per qubit an X then a Z column, then the sign column. Row i is
     * bit i of a column's destabilizer half, row n + i bit i of its
     * stabilizer half, so partners share a bit. Padding stays 0.
     */
    std::vector<std::uint64_t> bits_;
};

} // namespace qra

#endif // QRA_STABILIZER_STABILIZER_STATE_HH
