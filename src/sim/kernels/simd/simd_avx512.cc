/**
 * @file
 * AVX-512 tier of the gate-kernel dispatch table. Compiled with
 * -mavx512f -mavx512dq -ffp-contract=off. A __m512d holds W = 4
 * complexes, so the grouped paths need runs of at least 4 contiguous
 * compact indices (operand qubits >= 2); narrower geometries return
 * false and fall through to the AVX2 tier, which covers them.
 * addsub4 substitutes AVX-512's missing addsub with an IEEE-exact
 * sign-flip + add (see avx_util.hh).
 */

#include <cstdint>

#include "math/types.hh"
#include "sim/kernels/kernels.hh"
#include "sim/kernels/simd/avx_util.hh"
#include "sim/kernels/simd/dispatch.hh"
#include "sim/kernels/traversal.hh"

namespace qra {
namespace kernels {
namespace simd {
namespace {

constexpr std::uint64_t kW = 4; // complexes per __m512d

bool
general1qAvx512(Complex *amps, std::uint64_t n, Qubit q, Complex m00,
                Complex m01, Complex m10, Complex m11)
{
    if (q < 2)
        return false;
    const std::uint64_t bit = std::uint64_t{1} << q;
    const std::uint64_t low = bit - 1;
    const __m512d v00r = bcastRe4(m00), v00i = bcastIm4(m00);
    const __m512d v01r = bcastRe4(m01), v01i = bcastIm4(m01);
    const __m512d v10r = bcastRe4(m10), v10i = bcastIm4(m10);
    const __m512d v11r = bcastRe4(m11), v11i = bcastIm4(m11);
    forEachCompact(
        n >> 1, 2, bit,
        [=](std::uint64_t begin, std::uint64_t end) {
            const auto scalarOne = [=](std::uint64_t h) {
                const std::uint64_t i0 = ((h & ~low) << 1) | (h & low);
                const std::uint64_t i1 = i0 | bit;
                const Complex a0 = amps[i0];
                const Complex a1 = amps[i1];
                amps[i0] = m00 * a0 + m01 * a1;
                amps[i1] = m10 * a0 + m11 * a1;
            };
            std::uint64_t h = begin;
            for (; h < end && (h & (kW - 1)) != 0; ++h)
                scalarOne(h);
            for (; h + kW <= end; h += kW) {
                const std::uint64_t i0 = ((h & ~low) << 1) | (h & low);
                const __m512d v0 = load4(amps + i0);
                const __m512d v1 = load4(amps + i0 + bit);
                store4(amps + i0,
                       _mm512_add_pd(cmulC4(v0, v00r, v00i),
                                     cmulC4(v1, v01r, v01i)));
                store4(amps + i0 + bit,
                       _mm512_add_pd(cmulC4(v0, v10r, v10i),
                                     cmulC4(v1, v11r, v11i)));
            }
            for (; h < end; ++h)
                scalarOne(h);
        });
    return true;
}

bool
diagonal1qAvx512(Complex *amps, std::uint64_t n, Qubit q, Complex d0,
                 Complex d1)
{
    const std::uint64_t bit = std::uint64_t{1} << q;
    if (q < 2) {
        // Sub-vector period: bake the d0/d1 pattern into the lanes
        // (q==0 alternates per complex, q==1 per two complexes; a
        // 4-complex vector at i % 4 == 0 always starts the pattern).
        const Complex pat[4] = {d0, q == 0 ? d1 : d0,
                                q == 0 ? d0 : d1, d1};
        const __m512d dr = _mm512_setr_pd(
            pat[0].real(), pat[0].real(), pat[1].real(),
            pat[1].real(), pat[2].real(), pat[2].real(),
            pat[3].real(), pat[3].real());
        const __m512d di = _mm512_setr_pd(
            pat[0].imag(), pat[0].imag(), pat[1].imag(),
            pat[1].imag(), pat[2].imag(), pat[2].imag(),
            pat[3].imag(), pat[3].imag());
        parallelFor(n, [=](std::uint64_t begin, std::uint64_t end) {
            std::uint64_t i = begin;
            for (; i < end && (i & (kW - 1)) != 0; ++i)
                amps[i] *= (i & bit) ? d1 : d0;
            for (; i + kW <= end; i += kW)
                store4(amps + i, cmulC4(load4(amps + i), dr, di));
            for (; i < end; ++i)
                amps[i] *= (i & bit) ? d1 : d0;
        });
        return true;
    }
    const __m512d d0r = bcastRe4(d0), d0i = bcastIm4(d0);
    const __m512d d1r = bcastRe4(d1), d1i = bcastIm4(d1);
    parallelFor(n, [=](std::uint64_t begin, std::uint64_t end) {
        std::uint64_t i = begin;
        for (; i < end && (i & (kW - 1)) != 0; ++i)
            amps[i] *= (i & bit) ? d1 : d0;
        for (; i + kW <= end; i += kW) {
            // i % 4 == 0 and bit >= 4: one diagonal per vector.
            const bool hi = (i & bit) != 0;
            store4(amps + i, cmulC4(load4(amps + i), hi ? d1r : d0r,
                                    hi ? d1i : d0i));
        }
        for (; i < end; ++i)
            amps[i] *= (i & bit) ? d1 : d0;
    });
    return true;
}

bool
antidiagonal1qAvx512(Complex *amps, std::uint64_t n, Qubit q,
                     Complex a01, Complex a10)
{
    if (q < 2)
        return false;
    const std::uint64_t bit = std::uint64_t{1} << q;
    const std::uint64_t low = bit - 1;
    const __m512d m01r = bcastRe4(a01), m01i = bcastIm4(a01);
    const __m512d m10r = bcastRe4(a10), m10i = bcastIm4(a10);
    forEachCompact(
        n >> 1, 2, bit,
        [=](std::uint64_t begin, std::uint64_t end) {
            const auto scalarOne = [=](std::uint64_t h) {
                const std::uint64_t i0 = ((h & ~low) << 1) | (h & low);
                const std::uint64_t i1 = i0 | bit;
                const Complex a0 = amps[i0];
                amps[i0] = a01 * amps[i1];
                amps[i1] = a10 * a0;
            };
            std::uint64_t h = begin;
            for (; h < end && (h & (kW - 1)) != 0; ++h)
                scalarOne(h);
            for (; h + kW <= end; h += kW) {
                const std::uint64_t i0 = ((h & ~low) << 1) | (h & low);
                const __m512d v0 = load4(amps + i0);
                const __m512d v1 = load4(amps + i0 + bit);
                store4(amps + i0, cmulC4(v1, m01r, m01i));
                store4(amps + i0 + bit, cmulC4(v0, m10r, m10i));
            }
            for (; h < end; ++h)
                scalarOne(h);
        });
    return true;
}

bool
phaseOnMaskAvx512(Complex *amps, std::uint64_t n, std::uint64_t mask,
                  Complex phase)
{
    if ((mask & 3) != 0)
        return false; // need runs of 4: lowest mask bit >= 4
    const __m512d pr = bcastRe4(phase), pi = bcastIm4(phase);
    std::uint64_t bits[64];
    std::size_t k = 0;
    for (std::uint64_t rest = mask; rest != 0; rest &= rest - 1)
        bits[k++] = rest & ~(rest - 1);
    const std::uint64_t *bits_data = bits;
    parallelFor(n >> k, [=](std::uint64_t begin, std::uint64_t end) {
        std::uint64_t h = begin;
        for (; h < end && (h & (kW - 1)) != 0; ++h)
            amps[expandIndex(h, bits_data, k) | mask] *= phase;
        for (; h + kW <= end; h += kW) {
            Complex *p = amps + (expandIndex(h, bits_data, k) | mask);
            store4(p, cmulC4(load4(p), pr, pi));
        }
        for (; h < end; ++h)
            amps[expandIndex(h, bits_data, k) | mask] *= phase;
    });
    return true;
}

bool
controlled1qAvx512(Complex *amps, std::uint64_t n, Qubit control,
                   Qubit target, Complex m00, Complex m01, Complex m10,
                   Complex m11)
{
    if (control < 2 || target < 2)
        return false;
    const std::uint64_t cbit = std::uint64_t{1} << control;
    const std::uint64_t tbit = std::uint64_t{1} << target;
    std::uint64_t bits[2] = {cbit < tbit ? cbit : tbit,
                             cbit < tbit ? tbit : cbit};
    const __m512d v00r = bcastRe4(m00), v00i = bcastIm4(m00);
    const __m512d v01r = bcastRe4(m01), v01i = bcastIm4(m01);
    const __m512d v10r = bcastRe4(m10), v10i = bcastIm4(m10);
    const __m512d v11r = bcastRe4(m11), v11i = bcastIm4(m11);
    forEachCompact(
        n >> 2, 2, bits[1],
        [=](std::uint64_t begin, std::uint64_t end) {
            const auto scalarOne = [=](std::uint64_t h) {
                const std::uint64_t i0 =
                    expandIndex(h, bits, 2) | cbit;
                const std::uint64_t i1 = i0 | tbit;
                const Complex a0 = amps[i0];
                const Complex a1 = amps[i1];
                amps[i0] = m00 * a0 + m01 * a1;
                amps[i1] = m10 * a0 + m11 * a1;
            };
            std::uint64_t h = begin;
            for (; h < end && (h & (kW - 1)) != 0; ++h)
                scalarOne(h);
            for (; h + kW <= end; h += kW) {
                const std::uint64_t i0 =
                    expandIndex(h, bits, 2) | cbit;
                const __m512d v0 = load4(amps + i0);
                const __m512d v1 = load4(amps + i0 + tbit);
                store4(amps + i0,
                       _mm512_add_pd(cmulC4(v0, v00r, v00i),
                                     cmulC4(v1, v01r, v01i)));
                store4(amps + i0 + tbit,
                       _mm512_add_pd(cmulC4(v0, v10r, v10i),
                                     cmulC4(v1, v11r, v11i)));
            }
            for (; h < end; ++h)
                scalarOne(h);
        });
    return true;
}

bool
general2qAvx512(Complex *amps, std::uint64_t n, Qubit q0, Qubit q1,
                const Complex *m)
{
    if (q0 < 2 || q1 < 2)
        return false;
    const std::uint64_t b0 = std::uint64_t{1} << q0;
    const std::uint64_t b1 = std::uint64_t{1} << q1;
    std::uint64_t bits[2] = {b0 < b1 ? b0 : b1, b0 < b1 ? b1 : b0};
    __m512d cr[16], ci[16];
    for (int e = 0; e < 16; ++e) {
        cr[e] = bcastRe4(m[e]);
        ci[e] = bcastIm4(m[e]);
    }
    forEachCompact(
        n >> 2, 4, bits[1],
        [=](std::uint64_t begin, std::uint64_t end) {
            const auto scalarOne = [=](std::uint64_t h) {
                const std::uint64_t base = expandIndex(h, bits, 2);
                const std::uint64_t i1 = base | b0;
                const std::uint64_t i2 = base | b1;
                const std::uint64_t i3 = base | b0 | b1;
                const Complex a0 = amps[base];
                const Complex a1 = amps[i1];
                const Complex a2 = amps[i2];
                const Complex a3 = amps[i3];
                amps[base] =
                    m[0] * a0 + m[1] * a1 + m[2] * a2 + m[3] * a3;
                amps[i1] =
                    m[4] * a0 + m[5] * a1 + m[6] * a2 + m[7] * a3;
                amps[i2] =
                    m[8] * a0 + m[9] * a1 + m[10] * a2 + m[11] * a3;
                amps[i3] =
                    m[12] * a0 + m[13] * a1 + m[14] * a2 + m[15] * a3;
            };
            std::uint64_t h = begin;
            for (; h < end && (h & (kW - 1)) != 0; ++h)
                scalarOne(h);
            for (; h + kW <= end; h += kW) {
                const std::uint64_t base = expandIndex(h, bits, 2);
                const __m512d a0 = load4(amps + base);
                const __m512d a1 = load4(amps + (base | b0));
                const __m512d a2 = load4(amps + (base | b1));
                const __m512d a3 = load4(amps + (base | b0 | b1));
                for (int r = 0; r < 4; ++r) {
                    const int e = 4 * r;
                    __m512d acc = _mm512_add_pd(
                        cmulC4(a0, cr[e], ci[e]),
                        cmulC4(a1, cr[e + 1], ci[e + 1]));
                    acc = _mm512_add_pd(
                        acc, cmulC4(a2, cr[e + 2], ci[e + 2]));
                    acc = _mm512_add_pd(
                        acc, cmulC4(a3, cr[e + 3], ci[e + 3]));
                    const std::uint64_t off =
                        ((r & 1) ? b0 : 0) | ((r & 2) ? b1 : 0);
                    store4(amps + (base | off), acc);
                }
            }
            for (; h < end; ++h)
                scalarOne(h);
        });
    return true;
}

// ---- reductions ------------------------------------------------------
//
// One __m512d accumulator covers all eight lane slots (dispatch.hh):
// a 4-complex load is [re0, im0, ..., re3, im3], so acc lane j is
// exactly lanes[j]. Block starts are 4-aligned, making the mapping
// global; the caller folds lanes left to right.

bool
normSqLanesAvx512(const Complex *amps, std::uint64_t begin,
                  std::uint64_t end, const std::uint64_t *bits,
                  std::size_t k, std::uint64_t match, double *lanes)
{
    if (k != 0 && bits[0] < 4)
        return false; // group of 4 compact indices not contiguous
    if (begin == end)
        return true; // geometry probe
    __m512d acc = _mm512_loadu_pd(lanes);
    std::uint64_t h = begin; // 4-aligned per the dispatch contract
    for (; h + kW <= end; h += kW) {
        const __m512d v =
            load4(amps + (expandIndex(h, bits, k) | match));
        acc = _mm512_add_pd(acc, _mm512_mul_pd(v, v));
    }
    _mm512_storeu_pd(lanes, acc);
    for (; h < end; ++h) {
        const std::uint64_t i = expandIndex(h, bits, k) | match;
        const double re = amps[i].real();
        const double im = amps[i].imag();
        lanes[2 * (h & 3)] += re * re;
        lanes[2 * (h & 3) + 1] += im * im;
    }
    return true;
}

/** probs pair-add: evens + odds of the squared vector, each pair sum
 * rounding once, exactly like scalar re*re + im*im. */
inline __m256d
pairSums(__m512d sq)
{
    const __m512i idxe = _mm512_setr_epi64(0, 2, 4, 6, 0, 0, 0, 0);
    const __m512i idxo = _mm512_setr_epi64(1, 3, 5, 7, 0, 0, 0, 0);
    const __m256d evens =
        _mm512_castpd512_pd256(_mm512_permutexvar_pd(idxe, sq));
    const __m256d odds =
        _mm512_castpd512_pd256(_mm512_permutexvar_pd(idxo, sq));
    return _mm256_add_pd(evens, odds);
}

bool
probFillAvx512(const Complex *amps, double *probs, std::uint64_t begin,
               std::uint64_t end)
{
    std::uint64_t i = begin;
    for (; i + 8 <= end; i += 8) {
        const __m512d v0 = load4(amps + i);
        const __m512d v1 = load4(amps + i + 4);
        const __m256d p0 = pairSums(_mm512_mul_pd(v0, v0));
        const __m256d p1 = pairSums(_mm512_mul_pd(v1, v1));
        _mm512_storeu_pd(probs + i, _mm512_insertf64x4(
                                        _mm512_castpd256_pd512(p0), p1, 1));
    }
    for (; i < end; ++i) {
        const double re = amps[i].real();
        const double im = amps[i].imag();
        probs[i] = re * re + im * im;
    }
    return true;
}

} // namespace

const KernelTable kAvx512Table = {
    general1qAvx512,   diagonal1qAvx512,   antidiagonal1qAvx512,
    phaseOnMaskAvx512, controlled1qAvx512, general2qAvx512,
};

const ReduceTable kAvx512Reduce = {
    normSqLanesAvx512,
    probFillAvx512,
};

} // namespace simd
} // namespace kernels
} // namespace qra
