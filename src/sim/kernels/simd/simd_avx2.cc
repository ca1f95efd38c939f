/**
 * @file
 * AVX2 tier of the gate-kernel dispatch table. Compiled with
 * -mavx2 -ffp-contract=off; see dispatch.hh for the bit-exactness
 * contract and avx_util.hh for the complex-multiply building blocks.
 *
 * Geometry notes (a __m256d holds W = 2 complexes):
 *  - Pair kernels on target q >= 1 process two adjacent compact
 *    indices per vector: compact index h expands to contiguous i0
 *    runs of length 2^q, so after peeling to even h both lanes sit in
 *    the same run. Chunk bounds from the lane splitter are arbitrary,
 *    hence every body scalar-peels its head and tail with the exact
 *    std::complex arithmetic of the oracle (the TU's -ffp-contract=off
 *    keeps those peels un-fused).
 *  - q == 0 folds the *pair* into one vector instead: [a0, a1] is
 *    contiguous memory, the 2x2 matrix becomes per-lane constants and
 *    two 128-bit broadcasts. No alignment requirement, no peel.
 *  - Shapes a routine cannot lay out this way return false before
 *    touching memory and fall down the dispatch ladder.
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

bool
general1qAvx2(Complex *amps, std::uint64_t n, Qubit q, Complex m00,
              Complex m01, Complex m10, Complex m11)
{
    const std::uint64_t bit = std::uint64_t{1} << q;
    if (q == 0) {
        // One vector = one (a0, a1) pair at amps[2h].
        const __m256d r0r = laneRe(m00, m10), r0i = laneIm(m00, m10);
        const __m256d r1r = laneRe(m01, m11), r1i = laneIm(m01, m11);
        parallelFor(n >> 1, [=](std::uint64_t begin, std::uint64_t end) {
            for (std::uint64_t h = begin; h < end; ++h) {
                const __m256d v = load2(amps + 2 * h);
                const __m256d out = _mm256_add_pd(
                    cmulC(bcastLo(v), r0r, r0i),
                    cmulC(bcastHi(v), r1r, r1i));
                store2(amps + 2 * h, out);
            }
        });
        return true;
    }
    const std::uint64_t low = bit - 1;
    const __m256d v00r = bcastRe(m00), v00i = bcastIm(m00);
    const __m256d v01r = bcastRe(m01), v01i = bcastIm(m01);
    const __m256d v10r = bcastRe(m10), v10i = bcastIm(m10);
    const __m256d v11r = bcastRe(m11), v11i = bcastIm(m11);
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
            for (; h < end && (h & 1) != 0; ++h)
                scalarOne(h);
            for (; h + 2 <= end; h += 2) {
                const std::uint64_t i0 = ((h & ~low) << 1) | (h & low);
                const __m256d v0 = load2(amps + i0);
                const __m256d v1 = load2(amps + i0 + bit);
                store2(amps + i0,
                       _mm256_add_pd(cmulC(v0, v00r, v00i),
                                     cmulC(v1, v01r, v01i)));
                store2(amps + i0 + bit,
                       _mm256_add_pd(cmulC(v0, v10r, v10i),
                                     cmulC(v1, v11r, v11i)));
            }
            for (; h < end; ++h)
                scalarOne(h);
        });
    return true;
}

bool
diagonal1qAvx2(Complex *amps, std::uint64_t n, Qubit q, Complex d0,
               Complex d1)
{
    const std::uint64_t bit = std::uint64_t{1} << q;
    if (q == 0) {
        // d alternates per complex: per-lane constants, no peel on
        // even boundaries only — peel odd heads.
        const __m256d dr = laneRe(d0, d1), di = laneIm(d0, d1);
        parallelFor(n, [=](std::uint64_t begin, std::uint64_t end) {
            std::uint64_t i = begin;
            for (; i < end && (i & 1) != 0; ++i)
                amps[i] *= d1;
            for (; i + 2 <= end; i += 2)
                store2(amps + i, cmulC(load2(amps + i), dr, di));
            for (; i < end; ++i)
                amps[i] *= d0;
        });
        return true;
    }
    const __m256d d0r = bcastRe(d0), d0i = bcastIm(d0);
    const __m256d d1r = bcastRe(d1), d1i = bcastIm(d1);
    parallelFor(n, [=](std::uint64_t begin, std::uint64_t end) {
        std::uint64_t i = begin;
        for (; i < end && (i & 1) != 0; ++i)
            amps[i] *= (i & bit) ? d1 : d0;
        for (; i + 2 <= end; i += 2) {
            // i even and bit >= 2: both lanes share one diagonal.
            const bool hi = (i & bit) != 0;
            store2(amps + i, cmulC(load2(amps + i), hi ? d1r : d0r,
                                   hi ? d1i : d0i));
        }
        for (; i < end; ++i)
            amps[i] *= (i & bit) ? d1 : d0;
    });
    return true;
}

bool
antidiagonal1qAvx2(Complex *amps, std::uint64_t n, Qubit q, Complex a01,
                   Complex a10)
{
    const std::uint64_t bit = std::uint64_t{1} << q;
    if (q == 0) {
        const __m256d mr = laneRe(a01, a10), mi = laneIm(a01, a10);
        parallelFor(n >> 1, [=](std::uint64_t begin, std::uint64_t end) {
            for (std::uint64_t h = begin; h < end; ++h) {
                const __m256d v = load2(amps + 2 * h);
                store2(amps + 2 * h, cmulC(swapLanes(v), mr, mi));
            }
        });
        return true;
    }
    const std::uint64_t low = bit - 1;
    const __m256d m01r = bcastRe(a01), m01i = bcastIm(a01);
    const __m256d m10r = bcastRe(a10), m10i = bcastIm(a10);
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
            for (; h < end && (h & 1) != 0; ++h)
                scalarOne(h);
            for (; h + 2 <= end; h += 2) {
                const std::uint64_t i0 = ((h & ~low) << 1) | (h & low);
                const __m256d v0 = load2(amps + i0);
                const __m256d v1 = load2(amps + i0 + bit);
                store2(amps + i0, cmulC(v1, m01r, m01i));
                store2(amps + i0 + bit, cmulC(v0, m10r, m10i));
            }
            for (; h < end; ++h)
                scalarOne(h);
        });
    return true;
}

bool
phaseOnMaskAvx2(Complex *amps, std::uint64_t n, std::uint64_t mask,
                Complex phase)
{
    const __m256d pr = bcastRe(phase), pi = bcastIm(phase);
    if (mask == 1) {
        // Touch the odd complex of each pair; blend keeps the even
        // one's bits (multiplying by 1+0i could flip a -0.0).
        parallelFor(n >> 1,
                    [=](std::uint64_t begin, std::uint64_t end) {
                        for (std::uint64_t h = begin; h < end; ++h) {
                            const __m256d v = load2(amps + 2 * h);
                            const __m256d prod = cmulC(v, pr, pi);
                            store2(amps + 2 * h,
                                   _mm256_blend_pd(v, prod, 0b1100));
                        }
                    });
        return true;
    }
    if ((mask & 1) != 0)
        return false; // multi-bit mask through bit 0: scalar ladder
    std::uint64_t bits[64];
    std::size_t k = 0;
    for (std::uint64_t rest = mask; rest != 0; rest &= rest - 1)
        bits[k++] = rest & ~(rest - 1);
    const std::uint64_t *bits_data = bits;
    parallelFor(n >> k, [=](std::uint64_t begin, std::uint64_t end) {
        std::uint64_t h = begin;
        for (; h < end && (h & 1) != 0; ++h)
            amps[expandIndex(h, bits_data, k) | mask] *= phase;
        for (; h + 2 <= end; h += 2) {
            // Lowest mask bit >= 2: h, h+1 expand contiguously.
            Complex *p = amps + (expandIndex(h, bits_data, k) | mask);
            store2(p, cmulC(load2(p), pr, pi));
        }
        for (; h < end; ++h)
            amps[expandIndex(h, bits_data, k) | mask] *= phase;
    });
    return true;
}

bool
controlled1qAvx2(Complex *amps, std::uint64_t n, Qubit control,
                 Qubit target, Complex m00, Complex m01, Complex m10,
                 Complex m11)
{
    const std::uint64_t cbit = std::uint64_t{1} << control;
    const std::uint64_t tbit = std::uint64_t{1} << target;
    std::uint64_t bits[2] = {cbit < tbit ? cbit : tbit,
                             cbit < tbit ? tbit : cbit};
    if (target == 0 && control >= 1) {
        // (a0, a1) is the contiguous pair at i0 = base | cbit: the
        // q == 0 broadcast layout, offset into the control subspace.
        const __m256d r0r = laneRe(m00, m10), r0i = laneIm(m00, m10);
        const __m256d r1r = laneRe(m01, m11), r1i = laneIm(m01, m11);
        forEachCompact(
            n >> 2, 2, bits[1],
            [=](std::uint64_t begin, std::uint64_t end) {
                for (std::uint64_t h = begin; h < end; ++h) {
                    Complex *p =
                        amps + (expandIndex(h, bits, 2) | cbit);
                    const __m256d v = load2(p);
                    store2(p, _mm256_add_pd(
                                  cmulC(bcastLo(v), r0r, r0i),
                                  cmulC(bcastHi(v), r1r, r1i)));
                }
            });
        return true;
    }
    if (control == 0 || target == 0)
        return false; // control on bit 0: pairs not contiguous
    const __m256d v00r = bcastRe(m00), v00i = bcastIm(m00);
    const __m256d v01r = bcastRe(m01), v01i = bcastIm(m01);
    const __m256d v10r = bcastRe(m10), v10i = bcastIm(m10);
    const __m256d v11r = bcastRe(m11), v11i = bcastIm(m11);
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
            for (; h < end && (h & 1) != 0; ++h)
                scalarOne(h);
            for (; h + 2 <= end; h += 2) {
                const std::uint64_t i0 =
                    expandIndex(h, bits, 2) | cbit;
                const __m256d v0 = load2(amps + i0);
                const __m256d v1 = load2(amps + i0 + tbit);
                store2(amps + i0,
                       _mm256_add_pd(cmulC(v0, v00r, v00i),
                                     cmulC(v1, v01r, v01i)));
                store2(amps + i0 + tbit,
                       _mm256_add_pd(cmulC(v0, v10r, v10i),
                                     cmulC(v1, v11r, v11i)));
            }
            for (; h < end; ++h)
                scalarOne(h);
        });
    return true;
}

bool
general2qAvx2(Complex *amps, std::uint64_t n, Qubit q0, Qubit q1,
              const Complex *m)
{
    const std::uint64_t b0 = std::uint64_t{1} << q0;
    const std::uint64_t b1 = std::uint64_t{1} << q1;
    std::uint64_t bits[2] = {b0 < b1 ? b0 : b1, b0 < b1 ? b1 : b0};
    if (q0 >= 1 && q1 >= 1) {
        // Two adjacent groups per iteration: four two-complex loads
        // at base, base|b0, base|b1, base|b0|b1.
        __m256d cr[16], ci[16];
        for (int e = 0; e < 16; ++e) {
            cr[e] = bcastRe(m[e]);
            ci[e] = bcastIm(m[e]);
        }
        forEachCompact(
            n >> 2, 4, bits[1],
            [=](std::uint64_t begin, std::uint64_t end) {
                const auto scalarOne = [=](std::uint64_t h) {
                    const std::uint64_t base =
                        expandIndex(h, bits, 2);
                    const std::uint64_t i1 = base | b0;
                    const std::uint64_t i2 = base | b1;
                    const std::uint64_t i3 = base | b0 | b1;
                    const Complex a0 = amps[base];
                    const Complex a1 = amps[i1];
                    const Complex a2 = amps[i2];
                    const Complex a3 = amps[i3];
                    amps[base] = m[0] * a0 + m[1] * a1 + m[2] * a2 +
                                 m[3] * a3;
                    amps[i1] = m[4] * a0 + m[5] * a1 + m[6] * a2 +
                               m[7] * a3;
                    amps[i2] = m[8] * a0 + m[9] * a1 + m[10] * a2 +
                               m[11] * a3;
                    amps[i3] = m[12] * a0 + m[13] * a1 + m[14] * a2 +
                               m[15] * a3;
                };
                std::uint64_t h = begin;
                for (; h < end && (h & 1) != 0; ++h)
                    scalarOne(h);
                for (; h + 2 <= end; h += 2) {
                    const std::uint64_t base =
                        expandIndex(h, bits, 2);
                    const __m256d a0 = load2(amps + base);
                    const __m256d a1 = load2(amps + (base | b0));
                    const __m256d a2 = load2(amps + (base | b1));
                    const __m256d a3 =
                        load2(amps + (base | b0 | b1));
                    for (int r = 0; r < 4; ++r) {
                        const int e = 4 * r;
                        __m256d acc = _mm256_add_pd(
                            cmulC(a0, cr[e], ci[e]),
                            cmulC(a1, cr[e + 1], ci[e + 1]));
                        acc = _mm256_add_pd(
                            acc, cmulC(a2, cr[e + 2], ci[e + 2]));
                        acc = _mm256_add_pd(
                            acc, cmulC(a3, cr[e + 3], ci[e + 3]));
                        const std::uint64_t off =
                            ((r & 1) ? b0 : 0) | ((r & 2) ? b1 : 0);
                        store2(amps + (base | off), acc);
                    }
                }
                for (; h < end; ++h)
                    scalarOne(h);
            });
        return true;
    }
    // One operand is qubit 0: each group is two contiguous pairs at
    // base and base|bhi; one group per iteration, no alignment. Mem
    // slot s (pair position) maps to matrix-local index l[s]: the
    // identity when q0 == 0, the two-bit swap when q1 == 0 (both are
    // involutions, so l also maps local columns to mem slots).
    const std::uint64_t bhi = bits[1];
    const int l[4] = {0, q0 == 0 ? 1 : 2, q0 == 0 ? 2 : 1, 3};
    __m256d loR[4], loI[4], hiR[4], hiI[4];
    for (int c = 0; c < 4; ++c) {
        loR[c] = laneRe(m[l[0] * 4 + c], m[l[1] * 4 + c]);
        loI[c] = laneIm(m[l[0] * 4 + c], m[l[1] * 4 + c]);
        hiR[c] = laneRe(m[l[2] * 4 + c], m[l[3] * 4 + c]);
        hiI[c] = laneIm(m[l[2] * 4 + c], m[l[3] * 4 + c]);
    }
    forEachCompact(
        n >> 2, 4, bits[1],
        [=](std::uint64_t begin, std::uint64_t end) {
            for (std::uint64_t h = begin; h < end; ++h) {
                const std::uint64_t base = expandIndex(h, bits, 2);
                const __m256d vlo = load2(amps + base);
                const __m256d vhi = load2(amps + base + bhi);
                // Column c lives at mem slot l[c].
                __m256d col[4];
                for (int c = 0; c < 4; ++c) {
                    const int s = l[c];
                    const __m256d src = s < 2 ? vlo : vhi;
                    col[c] = (s & 1) ? bcastHi(src) : bcastLo(src);
                }
                __m256d rlo = _mm256_add_pd(
                    cmulC(col[0], loR[0], loI[0]),
                    cmulC(col[1], loR[1], loI[1]));
                rlo = _mm256_add_pd(rlo,
                                    cmulC(col[2], loR[2], loI[2]));
                rlo = _mm256_add_pd(rlo,
                                    cmulC(col[3], loR[3], loI[3]));
                __m256d rhi = _mm256_add_pd(
                    cmulC(col[0], hiR[0], hiI[0]),
                    cmulC(col[1], hiR[1], hiI[1]));
                rhi = _mm256_add_pd(rhi,
                                    cmulC(col[2], hiR[2], hiI[2]));
                rhi = _mm256_add_pd(rhi,
                                    cmulC(col[3], hiR[3], hiI[3]));
                store2(amps + base, rlo);
                store2(amps + base + bhi, rhi);
            }
        });
    return true;
}

// ---- reductions ------------------------------------------------------
//
// Lane contract (dispatch.hh): slot 2*(h&3) holds re^2 partials, slot
// 2*(h&3)+1 holds im^2 partials; acc_lo covers slots 0..3 (compact
// indices h with h&3 in {0,1}), acc_hi slots 4..7. Block starts are
// 4-aligned, so the vector accumulators map exactly onto the slots
// and the caller's left-to-right fold is tier-independent.

bool
normSqLanesAvx2(const Complex *amps, std::uint64_t begin,
                std::uint64_t end, const std::uint64_t *bits,
                std::size_t k, std::uint64_t match, double *lanes)
{
    if (k != 0 && bits[0] < 4)
        return false; // group of 4 compact indices not contiguous
    if (begin == end)
        return true; // geometry probe
    __m256d acc_lo = _mm256_loadu_pd(lanes);
    __m256d acc_hi = _mm256_loadu_pd(lanes + 4);
    std::uint64_t h = begin; // 4-aligned per the dispatch contract
    for (; h + 4 <= end; h += 4) {
        const std::uint64_t i0 = expandIndex(h, bits, k) | match;
        const __m256d v0 = load2(amps + i0);
        const __m256d v1 = load2(amps + i0 + 2);
        acc_lo = _mm256_add_pd(acc_lo, _mm256_mul_pd(v0, v0));
        acc_hi = _mm256_add_pd(acc_hi, _mm256_mul_pd(v1, v1));
    }
    _mm256_storeu_pd(lanes, acc_lo);
    _mm256_storeu_pd(lanes + 4, acc_hi);
    for (; h < end; ++h) {
        const std::uint64_t i = expandIndex(h, bits, k) | match;
        const double re = amps[i].real();
        const double im = amps[i].imag();
        lanes[2 * (h & 3)] += re * re;
        lanes[2 * (h & 3) + 1] += im * im;
    }
    return true;
}

bool
probFillAvx2(const Complex *amps, double *probs, std::uint64_t begin,
             std::uint64_t end)
{
    std::uint64_t i = begin;
    for (; i + 4 <= end; i += 4) {
        // hadd(a, b) = [a0+a1, b0+b1, a2+a3, b2+b3]; reorder to
        // [p0, p1, p2, p3] with a 0,2,1,3 permute. Each pair sum
        // rounds once, exactly like scalar re*re + im*im.
        const __m256d sq0 =
            _mm256_mul_pd(load2(amps + i), load2(amps + i));
        const __m256d sq1 =
            _mm256_mul_pd(load2(amps + i + 2), load2(amps + i + 2));
        _mm256_storeu_pd(probs + i,
                         _mm256_permute4x64_pd(_mm256_hadd_pd(sq0, sq1),
                                               0b11011000));
    }
    for (; i < end; ++i) {
        const double re = amps[i].real();
        const double im = amps[i].imag();
        probs[i] = re * re + im * im;
    }
    return true;
}

} // namespace

const KernelTable kAvx2Table = {
    general1qAvx2,    diagonal1qAvx2,  antidiagonal1qAvx2,
    phaseOnMaskAvx2,  controlled1qAvx2, general2qAvx2,
};

const ReduceTable kAvx2Reduce = {
    normSqLanesAvx2,
    probFillAvx2,
};

} // namespace simd
} // namespace kernels
} // namespace qra
