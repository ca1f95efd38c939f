/**
 * @file
 * Portable tier of the kernel dispatch tables: the same grouped
 * layouts as the AVX2 tier (a vector = 4 doubles = 2 complexes),
 * expressed through std::experimental::simd when the toolchain ships
 * it and through a hand-unrolled 4-wide value type otherwise. No ISA
 * flags: this TU compiles on any target, so non-x86 builds get more
 * than the scalar oracle for both gate updates and reductions.
 *
 * Bit-exactness (dispatch.hh contract): every operation below is a
 * per-element IEEE multiply or add — vaddsub flips signs by
 * multiplying with exact ±1.0 — and the TU is compiled with
 * -ffp-contract=off, so results match the scalar oracle bit for bit
 * whether the backing type is a real vector register or a plain
 * array.
 */

#include <cstdint>

#include "math/types.hh"
#include "sim/kernels/kernels.hh"
#include "sim/kernels/simd/dispatch.hh"
#include "sim/kernels/traversal.hh"

#if __has_include(<experimental/simd>)
#include <experimental/simd>
#define QRA_PORTABLE_STDSIMD 1
#endif

namespace qra {
namespace kernels {
namespace simd {
namespace {

#ifdef QRA_PORTABLE_STDSIMD

namespace stdx = std::experimental;

/** Two interleaved complexes: [re0, im0, re1, im1]. */
struct V
{
    stdx::fixed_size_simd<double, 4> r;
};

inline V
vload(const Complex *p)
{
    V v;
    v.r.copy_from(reinterpret_cast<const double *>(p),
                  stdx::element_aligned);
    return v;
}

inline V
vloadd(const double *p)
{
    V v;
    v.r.copy_from(p, stdx::element_aligned);
    return v;
}

inline void
vstore(Complex *p, V v)
{
    v.r.copy_to(reinterpret_cast<double *>(p), stdx::element_aligned);
}

inline void
vstored(double *p, V v)
{
    v.r.copy_to(p, stdx::element_aligned);
}

inline V
vset(double a, double b, double c, double d)
{
    const double vals[4] = {a, b, c, d};
    V v;
    v.r.copy_from(vals, stdx::element_aligned);
    return v;
}

inline V
vadd(V a, V b)
{
    return V{a.r + b.r};
}

inline V
vmul(V a, V b)
{
    return V{a.r * b.r};
}

/** Permute by a compile-time index map (j = lane index). Goes
 * through a stack array instead of the simd generator constructor:
 * GCC 12's generator ctor miscompiles at -O2 when the source vector
 * was copy_from'd through a casted pointer (returns zeros). The
 * round-trip folds to shuffles under optimization anyway. */
template <typename Map>
inline V
vperm(V v, Map map)
{
    double tmp[4];
    v.r.copy_to(tmp, stdx::element_aligned);
    const double out[4] = {
        tmp[map(std::size_t{0})], tmp[map(std::size_t{1})],
        tmp[map(std::size_t{2})], tmp[map(std::size_t{3})]};
    V o;
    o.r.copy_from(out, stdx::element_aligned);
    return o;
}

#else // !QRA_PORTABLE_STDSIMD — hand-unrolled generic fallback

struct V
{
    double r[4];
};

inline V
vload(const Complex *p)
{
    const double *d = reinterpret_cast<const double *>(p);
    return V{{d[0], d[1], d[2], d[3]}};
}

inline V
vloadd(const double *p)
{
    return V{{p[0], p[1], p[2], p[3]}};
}

inline void
vstore(Complex *p, V v)
{
    double *d = reinterpret_cast<double *>(p);
    d[0] = v.r[0];
    d[1] = v.r[1];
    d[2] = v.r[2];
    d[3] = v.r[3];
}

inline void
vstored(double *p, V v)
{
    p[0] = v.r[0];
    p[1] = v.r[1];
    p[2] = v.r[2];
    p[3] = v.r[3];
}

inline V
vset(double a, double b, double c, double d)
{
    return V{{a, b, c, d}};
}

inline V
vadd(V a, V b)
{
    return V{{a.r[0] + b.r[0], a.r[1] + b.r[1], a.r[2] + b.r[2],
              a.r[3] + b.r[3]}};
}

inline V
vmul(V a, V b)
{
    return V{{a.r[0] * b.r[0], a.r[1] * b.r[1], a.r[2] * b.r[2],
              a.r[3] * b.r[3]}};
}

template <typename Map>
inline V
vperm(V v, Map map)
{
    return V{{v.r[map(std::size_t{0})], v.r[map(std::size_t{1})],
              v.r[map(std::size_t{2})], v.r[map(std::size_t{3})]}};
}

#endif // QRA_PORTABLE_STDSIMD

/** [re, im, re', im'] -> [im, re, im', re']. */
inline V
vswapRI(V v)
{
    return vperm(v, [](std::size_t j) { return j ^ 1; });
}

/** Swap the two complex lanes. */
inline V
vswapLanes(V v)
{
    return vperm(v, [](std::size_t j) { return j ^ 2; });
}

/** Broadcast the low / high complex to both lanes. */
inline V
vbcastLo(V v)
{
    return vperm(v, [](std::size_t j) { return j & 1; });
}

inline V
vbcastHi(V v)
{
    return vperm(v, [](std::size_t j) { return (j & 1) | 2; });
}

/** a +/- b per even/odd element: a + b * (-1, +1, -1, +1). The ±1.0
 * products are IEEE-exact sign flips / identities, so this matches
 * _mm256_addsub_pd and the scalar subtract/add bit for bit. */
inline V
vaddsub(V a, V b)
{
    return vadd(a, vmul(b, vset(-1.0, 1.0, -1.0, 1.0)));
}

inline V
vbcastRe(Complex m)
{
    return vset(m.real(), m.real(), m.real(), m.real());
}

inline V
vbcastIm(Complex m)
{
    return vset(m.imag(), m.imag(), m.imag(), m.imag());
}

/** Distinct constants for the low / high complex lane. */
inline V
vlaneRe(Complex lo, Complex hi)
{
    return vset(lo.real(), lo.real(), hi.real(), hi.real());
}

inline V
vlaneIm(Complex lo, Complex hi)
{
    return vset(lo.imag(), lo.imag(), hi.imag(), hi.imag());
}

/** Complex multiply by broadcast constants (libstdc++ fast path). */
inline V
vcmulC(V v, V mr, V mi)
{
    return vaddsub(vmul(v, mr), vmul(vswapRI(v), mi));
}

// ---- gate kernels (layouts mirror simd_avx2.cc) ----------------------

bool
general1qPortable(Complex *amps, std::uint64_t n, Qubit q, Complex m00,
                  Complex m01, Complex m10, Complex m11)
{
    const std::uint64_t bit = std::uint64_t{1} << q;
    if (q == 0) {
        const V r0r = vlaneRe(m00, m10), r0i = vlaneIm(m00, m10);
        const V r1r = vlaneRe(m01, m11), r1i = vlaneIm(m01, m11);
        parallelFor(n >> 1, [=](std::uint64_t begin, std::uint64_t end) {
            for (std::uint64_t h = begin; h < end; ++h) {
                const V v = vload(amps + 2 * h);
                vstore(amps + 2 * h,
                       vadd(vcmulC(vbcastLo(v), r0r, r0i),
                            vcmulC(vbcastHi(v), r1r, r1i)));
            }
        });
        return true;
    }
    const std::uint64_t low = bit - 1;
    const V v00r = vbcastRe(m00), v00i = vbcastIm(m00);
    const V v01r = vbcastRe(m01), v01i = vbcastIm(m01);
    const V v10r = vbcastRe(m10), v10i = vbcastIm(m10);
    const V v11r = vbcastRe(m11), v11i = vbcastIm(m11);
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
                const V v0 = vload(amps + i0);
                const V v1 = vload(amps + i0 + bit);
                vstore(amps + i0, vadd(vcmulC(v0, v00r, v00i),
                                       vcmulC(v1, v01r, v01i)));
                vstore(amps + i0 + bit,
                       vadd(vcmulC(v0, v10r, v10i),
                            vcmulC(v1, v11r, v11i)));
            }
            for (; h < end; ++h)
                scalarOne(h);
        });
    return true;
}

bool
diagonal1qPortable(Complex *amps, std::uint64_t n, Qubit q, Complex d0,
                   Complex d1)
{
    const std::uint64_t bit = std::uint64_t{1} << q;
    if (q == 0) {
        const V dr = vlaneRe(d0, d1), di = vlaneIm(d0, d1);
        parallelFor(n, [=](std::uint64_t begin, std::uint64_t end) {
            std::uint64_t i = begin;
            for (; i < end && (i & 1) != 0; ++i)
                amps[i] *= d1;
            for (; i + 2 <= end; i += 2)
                vstore(amps + i, vcmulC(vload(amps + i), dr, di));
            for (; i < end; ++i)
                amps[i] *= d0;
        });
        return true;
    }
    const V d0r = vbcastRe(d0), d0i = vbcastIm(d0);
    const V d1r = vbcastRe(d1), d1i = vbcastIm(d1);
    parallelFor(n, [=](std::uint64_t begin, std::uint64_t end) {
        std::uint64_t i = begin;
        for (; i < end && (i & 1) != 0; ++i)
            amps[i] *= (i & bit) ? d1 : d0;
        for (; i + 2 <= end; i += 2) {
            const bool hi = (i & bit) != 0;
            vstore(amps + i, vcmulC(vload(amps + i), hi ? d1r : d0r,
                                    hi ? d1i : d0i));
        }
        for (; i < end; ++i)
            amps[i] *= (i & bit) ? d1 : d0;
    });
    return true;
}

bool
antidiagonal1qPortable(Complex *amps, std::uint64_t n, Qubit q,
                       Complex a01, Complex a10)
{
    const std::uint64_t bit = std::uint64_t{1} << q;
    if (q == 0) {
        const V mr = vlaneRe(a01, a10), mi = vlaneIm(a01, a10);
        parallelFor(n >> 1, [=](std::uint64_t begin, std::uint64_t end) {
            for (std::uint64_t h = begin; h < end; ++h) {
                const V v = vload(amps + 2 * h);
                vstore(amps + 2 * h, vcmulC(vswapLanes(v), mr, mi));
            }
        });
        return true;
    }
    const std::uint64_t low = bit - 1;
    const V m01r = vbcastRe(a01), m01i = vbcastIm(a01);
    const V m10r = vbcastRe(a10), m10i = vbcastIm(a10);
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
                const V v0 = vload(amps + i0);
                const V v1 = vload(amps + i0 + bit);
                vstore(amps + i0, vcmulC(v1, m01r, m01i));
                vstore(amps + i0 + bit, vcmulC(v0, m10r, m10i));
            }
            for (; h < end; ++h)
                scalarOne(h);
        });
    return true;
}

bool
phaseOnMaskPortable(Complex *amps, std::uint64_t n, std::uint64_t mask,
                    Complex phase)
{
    const V pr = vbcastRe(phase), pi = vbcastIm(phase);
    if (mask == 1) {
        // Touch the odd complex of each pair; keep the even one's
        // bits verbatim (multiplying by 1+0i could flip a -0.0).
        parallelFor(n >> 1,
                    [=](std::uint64_t begin, std::uint64_t end) {
                        for (std::uint64_t h = begin; h < end; ++h) {
                            Complex *p = amps + 2 * h;
                            const V prod = vcmulC(vload(p), pr, pi);
                            double hi[4];
                            vstored(hi, prod);
                            reinterpret_cast<double *>(p)[2] = hi[2];
                            reinterpret_cast<double *>(p)[3] = hi[3];
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
            Complex *p = amps + (expandIndex(h, bits_data, k) | mask);
            vstore(p, vcmulC(vload(p), pr, pi));
        }
        for (; h < end; ++h)
            amps[expandIndex(h, bits_data, k) | mask] *= phase;
    });
    return true;
}

bool
controlled1qPortable(Complex *amps, std::uint64_t n, Qubit control,
                     Qubit target, Complex m00, Complex m01,
                     Complex m10, Complex m11)
{
    const std::uint64_t cbit = std::uint64_t{1} << control;
    const std::uint64_t tbit = std::uint64_t{1} << target;
    std::uint64_t bits[2] = {cbit < tbit ? cbit : tbit,
                             cbit < tbit ? tbit : cbit};
    if (target == 0 && control >= 1) {
        const V r0r = vlaneRe(m00, m10), r0i = vlaneIm(m00, m10);
        const V r1r = vlaneRe(m01, m11), r1i = vlaneIm(m01, m11);
        forEachCompact(
            n >> 2, 2, bits[1],
            [=](std::uint64_t begin, std::uint64_t end) {
                for (std::uint64_t h = begin; h < end; ++h) {
                    Complex *p =
                        amps + (expandIndex(h, bits, 2) | cbit);
                    const V v = vload(p);
                    vstore(p, vadd(vcmulC(vbcastLo(v), r0r, r0i),
                                   vcmulC(vbcastHi(v), r1r, r1i)));
                }
            });
        return true;
    }
    if (control == 0 || target == 0)
        return false; // control on bit 0: pairs not contiguous
    const V v00r = vbcastRe(m00), v00i = vbcastIm(m00);
    const V v01r = vbcastRe(m01), v01i = vbcastIm(m01);
    const V v10r = vbcastRe(m10), v10i = vbcastIm(m10);
    const V v11r = vbcastRe(m11), v11i = vbcastIm(m11);
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
                const V v0 = vload(amps + i0);
                const V v1 = vload(amps + i0 + tbit);
                vstore(amps + i0, vadd(vcmulC(v0, v00r, v00i),
                                       vcmulC(v1, v01r, v01i)));
                vstore(amps + i0 + tbit,
                       vadd(vcmulC(v0, v10r, v10i),
                            vcmulC(v1, v11r, v11i)));
            }
            for (; h < end; ++h)
                scalarOne(h);
        });
    return true;
}

bool
general2qPortable(Complex *amps, std::uint64_t n, Qubit q0, Qubit q1,
                  const Complex *m)
{
    const std::uint64_t b0 = std::uint64_t{1} << q0;
    const std::uint64_t b1 = std::uint64_t{1} << q1;
    std::uint64_t bits[2] = {b0 < b1 ? b0 : b1, b0 < b1 ? b1 : b0};
    if (q0 >= 1 && q1 >= 1) {
        V cr[16], ci[16];
        for (int e = 0; e < 16; ++e) {
            cr[e] = vbcastRe(m[e]);
            ci[e] = vbcastIm(m[e]);
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
                    const V a0 = vload(amps + base);
                    const V a1 = vload(amps + (base | b0));
                    const V a2 = vload(amps + (base | b1));
                    const V a3 = vload(amps + (base | b0 | b1));
                    for (int r = 0; r < 4; ++r) {
                        const int e = 4 * r;
                        V acc = vadd(vcmulC(a0, cr[e], ci[e]),
                                     vcmulC(a1, cr[e + 1], ci[e + 1]));
                        acc = vadd(acc,
                                   vcmulC(a2, cr[e + 2], ci[e + 2]));
                        acc = vadd(acc,
                                   vcmulC(a3, cr[e + 3], ci[e + 3]));
                        const std::uint64_t off =
                            ((r & 1) ? b0 : 0) | ((r & 2) ? b1 : 0);
                        vstore(amps + (base | off), acc);
                    }
                }
                for (; h < end; ++h)
                    scalarOne(h);
            });
        return true;
    }
    // One operand is qubit 0 (see simd_avx2.cc for the slot map).
    const std::uint64_t bhi = bits[1];
    const int l[4] = {0, q0 == 0 ? 1 : 2, q0 == 0 ? 2 : 1, 3};
    V loR[4], loI[4], hiR[4], hiI[4];
    for (int c = 0; c < 4; ++c) {
        loR[c] = vlaneRe(m[l[0] * 4 + c], m[l[1] * 4 + c]);
        loI[c] = vlaneIm(m[l[0] * 4 + c], m[l[1] * 4 + c]);
        hiR[c] = vlaneRe(m[l[2] * 4 + c], m[l[3] * 4 + c]);
        hiI[c] = vlaneIm(m[l[2] * 4 + c], m[l[3] * 4 + c]);
    }
    forEachCompact(
        n >> 2, 4, bits[1],
        [=](std::uint64_t begin, std::uint64_t end) {
            for (std::uint64_t h = begin; h < end; ++h) {
                const std::uint64_t base = expandIndex(h, bits, 2);
                const V vlo = vload(amps + base);
                const V vhi = vload(amps + base + bhi);
                V col[4];
                for (int c = 0; c < 4; ++c) {
                    const int s = l[c];
                    const V src = s < 2 ? vlo : vhi;
                    col[c] = (s & 1) ? vbcastHi(src) : vbcastLo(src);
                }
                V rlo = vadd(vcmulC(col[0], loR[0], loI[0]),
                             vcmulC(col[1], loR[1], loI[1]));
                rlo = vadd(rlo, vcmulC(col[2], loR[2], loI[2]));
                rlo = vadd(rlo, vcmulC(col[3], loR[3], loI[3]));
                V rhi = vadd(vcmulC(col[0], hiR[0], hiI[0]),
                             vcmulC(col[1], hiR[1], hiI[1]));
                rhi = vadd(rhi, vcmulC(col[2], hiR[2], hiI[2]));
                rhi = vadd(rhi, vcmulC(col[3], hiR[3], hiI[3]));
                vstore(amps + base, rlo);
                vstore(amps + base + bhi, rhi);
            }
        });
    return true;
}

// ---- reductions ------------------------------------------------------
//
// Two V accumulators mirror the AVX2 tier: acc_lo holds lane slots
// 0..3, acc_hi slots 4..7 (dispatch.hh lane contract). Block starts
// are 4-aligned, so the mapping is global and the caller's fold is
// tier-independent.

bool
normSqLanesPortable(const Complex *amps, std::uint64_t begin,
                    std::uint64_t end, const std::uint64_t *bits,
                    std::size_t k, std::uint64_t match, double *lanes)
{
    if (k != 0 && bits[0] < 4)
        return false; // group of 4 compact indices not contiguous
    if (begin == end)
        return true; // geometry probe
    V acc_lo = vloadd(lanes);
    V acc_hi = vloadd(lanes + 4);
    std::uint64_t h = begin; // 4-aligned per the dispatch contract
    for (; h + 4 <= end; h += 4) {
        const std::uint64_t i0 = expandIndex(h, bits, k) | match;
        const V v0 = vload(amps + i0);
        const V v1 = vload(amps + i0 + 2);
        acc_lo = vadd(acc_lo, vmul(v0, v0));
        acc_hi = vadd(acc_hi, vmul(v1, v1));
    }
    vstored(lanes, acc_lo);
    vstored(lanes + 4, acc_hi);
    for (; h < end; ++h) {
        const std::uint64_t i = expandIndex(h, bits, k) | match;
        const double re = amps[i].real();
        const double im = amps[i].imag();
        lanes[2 * (h & 3)] += re * re;
        lanes[2 * (h & 3) + 1] += im * im;
    }
    return true;
}

/**
 * Declines every call, so computeProbabilities falls through to the
 * scalar loop: the four-wide pair sums through a stack buffer
 * measured 0.96x of scalar (median of 11 perf_simulator runs at 16
 * qubits on a 4-core AVX-512 Xeon).
 */
bool
probFillPortable(const Complex *, double *, std::uint64_t,
                 std::uint64_t)
{
    return false;
}

} // namespace

const KernelTable kPortableTable = {
    general1qPortable,   diagonal1qPortable,   antidiagonal1qPortable,
    phaseOnMaskPortable, controlled1qPortable, general2qPortable,
};

const ReduceTable kPortableReduce = {
    normSqLanesPortable,
    probFillPortable,
};

} // namespace simd
} // namespace kernels
} // namespace qra
