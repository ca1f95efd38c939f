#include "stabilizer/stabilizer_state.hh"

#include <bit>

#include "common/error.hh"

namespace qra {

StabilizerState::StabilizerState(std::size_t num_qubits)
    : numQubits_(num_qubits), halfWords_((num_qubits + 63) / 64)
{
    if (num_qubits == 0)
        throw SimulationError("stabilizer state needs >= 1 qubit");
    if (num_qubits > 4096)
        throw SimulationError("stabilizer backend caps at 4096 qubits");

    bits_.assign((2 * num_qubits + 1) * words(), 0);
    for (Qubit i = 0; i < num_qubits; ++i) {
        const std::uint64_t bit = std::uint64_t{1} << (i % 64);
        xCol(i)[i / 64] |= bit;              // destabilizer X_i
        zCol(i)[halfWords_ + i / 64] |= bit; // stabilizer Z_i
    }
}

void
StabilizerState::checkQubit(Qubit q) const
{
    if (q >= numQubits_)
        throw IndexError("qubit index " + std::to_string(q) +
                         " out of range");
}

bool
StabilizerState::isCliffordOp(OpKind kind)
{
    switch (kind) {
      case OpKind::I: case OpKind::X: case OpKind::Y: case OpKind::Z:
      case OpKind::H: case OpKind::S: case OpKind::Sdg:
      case OpKind::SX: case OpKind::CX: case OpKind::CY:
      case OpKind::CZ: case OpKind::Swap:
        return true;
      default:
        return false;
    }
}

// --- Gate conjugation rules ---------------------------------------------

void
StabilizerState::applyH(Qubit q)
{
    checkQubit(q);
    std::uint64_t *x = xCol(q), *z = zCol(q), *r = signs();
    for (std::size_t w = 0; w < words(); ++w) {
        r[w] ^= x[w] & z[w];
        std::swap(x[w], z[w]);
    }
}

void
StabilizerState::applyS(Qubit q)
{
    checkQubit(q);
    std::uint64_t *x = xCol(q), *z = zCol(q), *r = signs();
    for (std::size_t w = 0; w < words(); ++w) {
        r[w] ^= x[w] & z[w];
        z[w] ^= x[w];
    }
}

void
StabilizerState::applySdg(Qubit q)
{
    // Sdg = S Z: apply Z phase first, then S.
    applyZ(q);
    applyS(q);
}

void
StabilizerState::applyX(Qubit q)
{
    checkQubit(q);
    // Conjugation by X flips the sign of any row with a Z component.
    std::uint64_t *z = zCol(q), *r = signs();
    for (std::size_t w = 0; w < words(); ++w)
        r[w] ^= z[w];
}

void
StabilizerState::applyZ(Qubit q)
{
    checkQubit(q);
    std::uint64_t *x = xCol(q), *r = signs();
    for (std::size_t w = 0; w < words(); ++w)
        r[w] ^= x[w];
}

void
StabilizerState::applyY(Qubit q)
{
    checkQubit(q);
    std::uint64_t *x = xCol(q), *z = zCol(q), *r = signs();
    for (std::size_t w = 0; w < words(); ++w)
        r[w] ^= x[w] ^ z[w];
}

void
StabilizerState::applySx(Qubit q)
{
    // SX == H S H exactly (no phase discrepancy).
    applyH(q);
    applyS(q);
    applyH(q);
}

void
StabilizerState::applyCx(Qubit control, Qubit target)
{
    checkQubit(control);
    checkQubit(target);
    if (control == target)
        throw SimulationError("cx with identical operands");
    std::uint64_t *xc = xCol(control), *zc = zCol(control);
    std::uint64_t *xt = xCol(target), *zt = zCol(target);
    std::uint64_t *r = signs();
    for (std::size_t w = 0; w < words(); ++w) {
        r[w] ^= xc[w] & zt[w] & ~(xt[w] ^ zc[w]);
        xt[w] ^= xc[w];
        zc[w] ^= zt[w];
    }
}

void
StabilizerState::applyCz(Qubit a, Qubit b)
{
    // CZ = H(b) CX(a, b) H(b).
    applyH(b);
    applyCx(a, b);
    applyH(b);
}

void
StabilizerState::applyCy(Qubit control, Qubit target)
{
    // CY = Sdg(t) CX(c, t) S(t).
    applySdg(target);
    applyCx(control, target);
    applyS(target);
}

void
StabilizerState::applySwap(Qubit a, Qubit b)
{
    applyCx(a, b);
    applyCx(b, a);
    applyCx(a, b);
}

void
StabilizerState::applyUnitary(const Operation &op)
{
    switch (op.kind) {
      case OpKind::I: return;
      case OpKind::X: return applyX(op.qubits[0]);
      case OpKind::Y: return applyY(op.qubits[0]);
      case OpKind::Z: return applyZ(op.qubits[0]);
      case OpKind::H: return applyH(op.qubits[0]);
      case OpKind::S: return applyS(op.qubits[0]);
      case OpKind::Sdg: return applySdg(op.qubits[0]);
      case OpKind::SX: return applySx(op.qubits[0]);
      case OpKind::CX: return applyCx(op.qubits[0], op.qubits[1]);
      case OpKind::CY: return applyCy(op.qubits[0], op.qubits[1]);
      case OpKind::CZ: return applyCz(op.qubits[0], op.qubits[1]);
      case OpKind::Swap: return applySwap(op.qubits[0], op.qubits[1]);
      default:
        throw SimulationError(std::string("gate '") + opName(op.kind) +
                              "' is not Clifford; the stabilizer "
                              "backend cannot apply it");
    }
}

// --- Measurement ----------------------------------------------------------

std::size_t
StabilizerState::findRandomizingRow(Qubit q) const
{
    const std::uint64_t *x = xCol(q) + halfWords_;
    for (std::size_t w = 0; w < halfWords_; ++w)
        if (x[w])
            return numQubits_ + 64 * w + std::countr_zero(x[w]);
    return 2 * numQubits_;
}

bool
StabilizerState::isDeterministic(Qubit q) const
{
    checkQubit(q);
    return findRandomizingRow(q) == 2 * numQubits_;
}

int
StabilizerState::deterministicOutcome(Qubit q) const
{
    // The outcome is the sign of the product of the stabilizers whose
    // destabilizer partner anticommutes with Z_q. They commute, so
    // CHP's running product of them never truncates a phase, and its
    // i-exponent is summed per qubit instead: with each row's Pauli
    // written i^(xz) X^x Z^z and the product +/- Z_q (no X anywhere),
    // it is 2 sum r + sum_j (sum_a x_a z_a + 2 #{a < b : z_a x_b}).
    const std::uint64_t *sel = xCol(q);
    const std::uint64_t *r = signs() + halfWords_;
    unsigned phase = 0;
    for (std::size_t w = 0; w < halfWords_; ++w)
        phase += 2 * std::popcount(r[w] & sel[w]);
    for (Qubit j = 0; j < numQubits_; ++j) {
        const std::uint64_t *xj = xCol(j) + halfWords_;
        const std::uint64_t *zj = zCol(j) + halfWords_;
        unsigned z_par = 0;
        for (std::size_t w = 0; w < halfWords_; ++w) {
            const std::uint64_t x = xj[w] & sel[w], z = zj[w] & sel[w];
            if (!(x | z))
                continue;
            // Bit b of `below`: parity of z over this word's rows < b.
            std::uint64_t below = z << 1;
            for (int s = 1; s < 64; s *= 2)
                below ^= below << s;
            phase += std::popcount(x & z) +
                     2 * (std::popcount(x & below) + z_par * std::popcount(x));
            z_par ^= std::popcount(z) & 1;
        }
    }
    return (phase & 3) == 2 ? 1 : 0;
}

double
StabilizerState::probabilityOfOne(Qubit q) const
{
    return isDeterministic(q) ? deterministicOutcome(q) : 0.5;
}

void
StabilizerState::collapse(Qubit q, std::size_t p, int outcome)
{
    // Every other row i anticommuting with Z_q absorbs row p (CHP's
    // rowsum), all at once: rows are bits of a word, and each row's
    // i-exponent is a bit-sliced mod-4 counter (lo, hi). Where row p's
    // Pauli on qubit j anticommutes with row i's, the exponent moves
    // by +1, or by -1 where d is set (Stim's Pauli-product rule). As
    // in CHP the new sign is (exponent == 2), destabilizers included.
    const std::size_t pw = halfWords_ + (p - numQubits_) / 64;
    const std::uint64_t p_bit = std::uint64_t{1} << (p - numQubits_) % 64;
    std::uint64_t *r = signs();
    for (std::size_t w = 0; w < words(); ++w) {
        const std::uint64_t m = xCol(q)[w] & ~(w == pw ? p_bit : 0);
        if (!m)
            continue;
        std::uint64_t lo = 0, hi = r[w] ^ ((r[pw] & p_bit) ? ~0ULL : 0);
        for (Qubit j = 0; j < numQubits_; ++j) {
            std::uint64_t *xj = xCol(j), *zj = zCol(j);
            const std::uint64_t x1 = (xj[pw] & p_bit) ? ~0ULL : 0;
            const std::uint64_t z1 = (zj[pw] & p_bit) ? ~0ULL : 0;
            if (!(x1 | z1))
                continue;
            const std::uint64_t x2 = xj[w], z2 = zj[w];
            const std::uint64_t anti = (x1 & z2) ^ (z1 & x2);
            const std::uint64_t d = x1 ^ x2 ^ z1 ^ z2 ^ (x1 & z2);
            hi ^= anti & (lo ^ d);
            lo ^= anti;
            xj[w] ^= x1 & m;
            zj[w] ^= z1 & m;
        }
        r[w] = (r[w] & ~m) | (hi & ~lo & m);
    }

    // Old stabilizer becomes the destabilizer; the new stabilizer is
    // +/- Z_q per the outcome.
    const std::size_t dw = pw - halfWords_;
    for (std::size_t c = 0; c < bits_.size(); c += words()) {
        std::uint64_t *col = &bits_[c]; // every X, Z and sign column
        col[dw] = (col[dw] & ~p_bit) | (col[pw] & p_bit);
        col[pw] &= ~p_bit;
    }
    zCol(q)[pw] |= p_bit;
    if (outcome)
        r[pw] |= p_bit;
}

int
StabilizerState::measure(Qubit q, Rng &rng)
{
    if (isDeterministic(q))
        return deterministicOutcome(q);
    const int outcome = rng.uniform() < 0.5 ? 0 : 1;
    postSelect(q, outcome);
    return outcome;
}

double
StabilizerState::postSelect(Qubit q, int outcome)
{
    checkQubit(q);
    const std::size_t p = findRandomizingRow(q);
    if (p == 2 * numQubits_) // certain match or impossible branch
        return deterministicOutcome(q) == outcome ? 1.0 : 0.0;
    collapse(q, p, outcome);
    return 0.5;
}

void
StabilizerState::resetQubit(Qubit q, Rng &rng)
{
    if (measure(q, rng) == 1)
        applyX(q);
}

std::vector<std::string>
StabilizerState::stabilizerStrings() const
{
    std::vector<std::string> out;
    out.reserve(numQubits_);
    for (std::size_t i = 0; i < numQubits_; ++i) {
        const std::size_t w = halfWords_ + i / 64;
        const std::uint64_t bit = std::uint64_t{1} << (i % 64);
        std::string s(1, (signs()[w] & bit) ? '-' : '+');
        for (Qubit j = 0; j < numQubits_; ++j) {
            const bool x = xCol(j)[w] & bit, z = zCol(j)[w] & bit;
            s += x ? (z ? 'Y' : 'X') : (z ? 'Z' : 'I');
        }
        out.push_back(std::move(s));
    }
    return out;
}

} // namespace qra
