#include "sim/kernels/kernels.hh"

#include <algorithm>
#include <array>

#include "common/error.hh"
#include "obs/metrics.hh"
#include "sim/kernels/parallel.hh"
#include "sim/kernels/simd/dispatch.hh"
#include "sim/kernels/traversal.hh"

namespace qra {
namespace kernels {

namespace {

/** Sort single-bit masks ascending (k is tiny, insertion sort). */
template <std::size_t K>
std::array<std::uint64_t, K>
sortedBits(const std::array<std::uint64_t, K> &bits)
{
    std::array<std::uint64_t, K> sorted = bits;
    std::sort(sorted.begin(), sorted.end());
    return sorted;
}

/** Which dispatch tier actually ran, for traces (obs counters). */
void
recordDispatch(simd::Tier tier)
{
    if (!obs::metricsEnabled())
        return;
    static const std::array<obs::CounterHandle, 4> handles = [] {
        auto &registry = obs::MetricsRegistry::global();
        return std::array<obs::CounterHandle, 4>{
            registry.counter("sim.kernels.dispatch.scalar"),
            registry.counter("sim.kernels.dispatch.portable"),
            registry.counter("sim.kernels.dispatch.avx2"),
            registry.counter("sim.kernels.dispatch.avx512"),
        };
    }();
    obs::count(handles[static_cast<int>(tier)]);
}

/** Which tier a reduction call resolved to (obs counters). */
void
recordReduce(simd::Tier tier)
{
    if (!obs::metricsEnabled())
        return;
    static const std::array<obs::CounterHandle, 4> handles = [] {
        auto &registry = obs::MetricsRegistry::global();
        return std::array<obs::CounterHandle, 4>{
            registry.counter("sim.kernels.reduce.scalar"),
            registry.counter("sim.kernels.reduce.portable"),
            registry.counter("sim.kernels.reduce.avx2"),
            registry.counter("sim.kernels.reduce.avx512"),
        };
    }();
    obs::count(handles[static_cast<int>(tier)]);
}

/** The canonical left-to-right lane fold (see kernels.hh). */
inline double
foldLanes(const double lanes[8])
{
    double total = lanes[0];
    for (int j = 1; j < 8; ++j)
        total += lanes[j];
    return total;
}

/** One reduce-table entry resolved for a whole reduction call. */
struct ReducePick
{
    const simd::ReduceTable *table = nullptr;
    simd::Tier tier = simd::Tier::Scalar;
};

/**
 * Resolve the widest tier whose @p probe (an empty-range entry call,
 * a pure geometry check) accepts, and record the obs counter. The
 * geometry is fixed for the whole call, so one probe decides every
 * block.
 */
template <typename Probe>
ReducePick
pickReduce(Probe &&probe)
{
    const simd::ReduceLadder ladder = simd::activeReduceLadder();
    ReducePick pick;
    for (int t = 0; t < ladder.count; ++t)
        if (probe(ladder.tables[t])) {
            pick.table = ladder.tables[t];
            pick.tier = ladder.tiers[t];
            break;
        }
    recordReduce(pick.tier);
    return pick;
}

} // namespace

void
applyGeneral1q(Complex *amps, std::uint64_t n, Qubit q, Complex m00,
               Complex m01, Complex m10, Complex m11)
{
    const std::uint64_t bit = std::uint64_t{1} << q;
    const simd::Ladder ladder = simd::activeLadder();
    for (int t = 0; t < ladder.count; ++t)
        if (ladder.tables[t]->general1q(amps, n, q, m00, m01, m10,
                                        m11)) {
            recordDispatch(ladder.tiers[t]);
            return;
        }
    recordDispatch(simd::Tier::Scalar);
    const std::uint64_t low = bit - 1;
    forEachCompact(
        n >> 1, 2, bit,
        [=](std::uint64_t begin, std::uint64_t end) {
            for (std::uint64_t h = begin; h < end; ++h) {
                const std::uint64_t i0 = ((h & ~low) << 1) | (h & low);
                const std::uint64_t i1 = i0 | bit;
                const Complex a0 = amps[i0];
                const Complex a1 = amps[i1];
                amps[i0] = m00 * a0 + m01 * a1;
                amps[i1] = m10 * a0 + m11 * a1;
            }
        });
}

void
applyDiagonal1q(Complex *amps, std::uint64_t n, Qubit q, Complex d0,
                Complex d1)
{
    const std::uint64_t bit = std::uint64_t{1} << q;
    const simd::Ladder ladder = simd::activeLadder();
    for (int t = 0; t < ladder.count; ++t)
        if (ladder.tables[t]->diagonal1q(amps, n, q, d0, d1)) {
            recordDispatch(ladder.tiers[t]);
            return;
        }
    recordDispatch(simd::Tier::Scalar);
    parallelFor(n, [=](std::uint64_t begin, std::uint64_t end) {
        for (std::uint64_t i = begin; i < end; ++i)
            amps[i] *= (i & bit) ? d1 : d0;
    });
}

void
applyAntiDiagonal1q(Complex *amps, std::uint64_t n, Qubit q, Complex a01,
                    Complex a10)
{
    const std::uint64_t bit = std::uint64_t{1} << q;
    const simd::Ladder ladder = simd::activeLadder();
    for (int t = 0; t < ladder.count; ++t)
        if (ladder.tables[t]->antidiagonal1q(amps, n, q, a01, a10)) {
            recordDispatch(ladder.tiers[t]);
            return;
        }
    recordDispatch(simd::Tier::Scalar);
    const std::uint64_t low = bit - 1;
    forEachCompact(
        n >> 1, 2, bit,
        [=](std::uint64_t begin, std::uint64_t end) {
            for (std::uint64_t h = begin; h < end; ++h) {
                const std::uint64_t i0 = ((h & ~low) << 1) | (h & low);
                const std::uint64_t i1 = i0 | bit;
                const Complex a0 = amps[i0];
                amps[i0] = a01 * amps[i1];
                amps[i1] = a10 * a0;
            }
        });
}

void
applyX(Complex *amps, std::uint64_t n, Qubit q)
{
    const std::uint64_t bit = std::uint64_t{1} << q;
    const std::uint64_t low = bit - 1;
    parallelFor(n >> 1, [=](std::uint64_t begin, std::uint64_t end) {
        for (std::uint64_t h = begin; h < end; ++h) {
            const std::uint64_t i0 = ((h & ~low) << 1) | (h & low);
            std::swap(amps[i0], amps[i0 | bit]);
        }
    });
}

void
applyCX(Complex *amps, std::uint64_t n, Qubit control, Qubit target)
{
    const std::uint64_t cbit = std::uint64_t{1} << control;
    const std::uint64_t tbit = std::uint64_t{1} << target;
    const auto bits = sortedBits<2>({cbit, tbit});
    parallelFor(n >> 2, [=](std::uint64_t begin, std::uint64_t end) {
        for (std::uint64_t h = begin; h < end; ++h) {
            const std::uint64_t i0 =
                expandIndex(h, bits.data(), 2) | cbit;
            std::swap(amps[i0], amps[i0 | tbit]);
        }
    });
}

void
applyCCX(Complex *amps, std::uint64_t n, Qubit control0, Qubit control1,
         Qubit target)
{
    const std::uint64_t c0 = std::uint64_t{1} << control0;
    const std::uint64_t c1 = std::uint64_t{1} << control1;
    const std::uint64_t tbit = std::uint64_t{1} << target;
    const auto bits = sortedBits<3>({c0, c1, tbit});
    parallelFor(n >> 3, [=](std::uint64_t begin, std::uint64_t end) {
        for (std::uint64_t h = begin; h < end; ++h) {
            const std::uint64_t i0 =
                expandIndex(h, bits.data(), 3) | c0 | c1;
            std::swap(amps[i0], amps[i0 | tbit]);
        }
    });
}

void
applySwap(Complex *amps, std::uint64_t n, Qubit q0, Qubit q1)
{
    const std::uint64_t b0 = std::uint64_t{1} << q0;
    const std::uint64_t b1 = std::uint64_t{1} << q1;
    const auto bits = sortedBits<2>({b0, b1});
    parallelFor(n >> 2, [=](std::uint64_t begin, std::uint64_t end) {
        for (std::uint64_t h = begin; h < end; ++h) {
            const std::uint64_t base = expandIndex(h, bits.data(), 2);
            std::swap(amps[base | b0], amps[base | b1]);
        }
    });
}

void
applyPhaseOnMask(Complex *amps, std::uint64_t n, std::uint64_t mask,
                 Complex phase)
{
    const simd::Ladder ladder = simd::activeLadder();
    for (int t = 0; t < ladder.count; ++t)
        if (ladder.tables[t]->phaseOnMask(amps, n, mask, phase)) {
            recordDispatch(ladder.tiers[t]);
            return;
        }
    recordDispatch(simd::Tier::Scalar);
    // Iterate only the subspace where every mask bit is set.
    std::array<std::uint64_t, 64> bits{};
    std::size_t k = 0;
    for (std::uint64_t rest = mask; rest != 0; rest &= rest - 1)
        bits[k++] = rest & ~(rest - 1);
    const std::uint64_t *bits_data = bits.data();
    parallelFor(n >> k, [=](std::uint64_t begin, std::uint64_t end) {
        for (std::uint64_t h = begin; h < end; ++h)
            amps[expandIndex(h, bits_data, k) | mask] *= phase;
    });
}

void
applyControlled1q(Complex *amps, std::uint64_t n, Qubit control,
                  Qubit target, Complex m00, Complex m01, Complex m10,
                  Complex m11)
{
    const std::uint64_t cbit = std::uint64_t{1} << control;
    const std::uint64_t tbit = std::uint64_t{1} << target;
    const simd::Ladder ladder = simd::activeLadder();
    for (int t = 0; t < ladder.count; ++t)
        if (ladder.tables[t]->controlled1q(amps, n, control, target,
                                           m00, m01, m10, m11)) {
            recordDispatch(ladder.tiers[t]);
            return;
        }
    recordDispatch(simd::Tier::Scalar);
    const auto bits = sortedBits<2>({cbit, tbit});
    forEachCompact(
        n >> 2, 2, cbit > tbit ? cbit : tbit,
        [=](std::uint64_t begin, std::uint64_t end) {
            for (std::uint64_t h = begin; h < end; ++h) {
                const std::uint64_t i0 =
                    expandIndex(h, bits.data(), 2) | cbit;
                const std::uint64_t i1 = i0 | tbit;
                const Complex a0 = amps[i0];
                const Complex a1 = amps[i1];
                amps[i0] = m00 * a0 + m01 * a1;
                amps[i1] = m10 * a0 + m11 * a1;
            }
        });
}

void
applyGeneral2q(Complex *amps, std::uint64_t n, Qubit q0, Qubit q1,
               const Matrix &u)
{
    QRA_ASSERT(u.rows() == 4 && u.cols() == 4,
               "two-qubit kernel requires a 4x4 matrix");
    const std::uint64_t b0 = std::uint64_t{1} << q0;
    const std::uint64_t b1 = std::uint64_t{1} << q1;
    std::array<Complex, 16> m;
    for (std::size_t r = 0; r < 4; ++r)
        for (std::size_t c = 0; c < 4; ++c)
            m[4 * r + c] = u(r, c);
    const simd::Ladder ladder = simd::activeLadder();
    for (int t = 0; t < ladder.count; ++t)
        if (ladder.tables[t]->general2q(amps, n, q0, q1, m.data())) {
            recordDispatch(ladder.tiers[t]);
            return;
        }
    recordDispatch(simd::Tier::Scalar);
    const auto bits = sortedBits<2>({b0, b1});
    forEachCompact(
        n >> 2, 4, b0 > b1 ? b0 : b1,
        [=](std::uint64_t begin, std::uint64_t end) {
            for (std::uint64_t h = begin; h < end; ++h) {
                const std::uint64_t base =
                    expandIndex(h, bits.data(), 2);
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
            }
        });
}

void
applyGenericK(Complex *amps, std::uint64_t n, const Matrix &u,
              const std::vector<Qubit> &qubits)
{
    const std::size_t k = qubits.size();
    const std::size_t block = std::size_t{1} << k;
    QRA_ASSERT(u.rows() == block && u.cols() == block,
               "matrix size does not match operand count");

    std::vector<std::uint64_t> bits(k);
    for (std::size_t j = 0; j < k; ++j)
        bits[j] = std::uint64_t{1} << qubits[j];
    std::vector<std::uint64_t> insert_order = bits;
    std::sort(insert_order.begin(), insert_order.end());

    std::vector<std::uint64_t> offsets(block, 0);
    for (std::size_t local = 0; local < block; ++local)
        for (std::size_t j = 0; j < k; ++j)
            if ((local >> j) & 1)
                offsets[local] |= bits[j];

    const std::uint64_t bases = n >> k;
    parallelFor(
        bases, std::max<std::uint64_t>(1, kParallelGrain >> k),
        [&](std::uint64_t begin, std::uint64_t end) {
            std::vector<Complex> in(block), out(block);
            for (std::uint64_t b = begin; b < end; ++b) {
                const std::uint64_t base =
                    expandIndex(b, insert_order.data(), k);
                for (std::size_t local = 0; local < block; ++local)
                    in[local] = amps[base | offsets[local]];
                for (std::size_t r = 0; r < block; ++r) {
                    Complex acc{0.0, 0.0};
                    for (std::size_t c = 0; c < block; ++c)
                        acc += u(r, c) * in[c];
                    out[r] = acc;
                }
                for (std::size_t local = 0; local < block; ++local)
                    amps[base | offsets[local]] = out[local];
            }
        });
}

void
applyMatrix(std::vector<Complex> &amps, const Matrix &u,
            const std::vector<Qubit> &qubits)
{
    const std::size_t k = qubits.size();
    const std::size_t block = std::size_t{1} << k;
    QRA_ASSERT(u.rows() == block && u.cols() == block,
               "matrix size does not match operand count");
    if (k == 1) {
        if (u.isDiagonal(0.0))
            applyDiagonal1q(amps.data(), amps.size(), qubits[0],
                            u(0, 0), u(1, 1));
        else
            applyGeneral1q(amps.data(), amps.size(), qubits[0],
                           u(0, 0), u(0, 1), u(1, 0), u(1, 1));
        return;
    }
    if (k == 2) {
        applyGeneral2q(amps.data(), amps.size(), qubits[0], qubits[1],
                       u);
        return;
    }
    applyGenericK(amps.data(), amps.size(), u, qubits);
}

double
normSquaredOnMask(const Complex *amps, std::uint64_t n,
                  std::uint64_t mask, std::uint64_t match)
{
    QRA_ASSERT((match & ~mask) == 0,
               "normSquaredOnMask match must be a subset of mask");
    // Iterate the compact space with the mask bits stripped; each
    // compact index expands back with the match bits set, so only
    // matching amplitudes are ever read (no data-dependent branch).
    std::array<std::uint64_t, 64> bits{};
    std::size_t k = 0;
    for (std::uint64_t rest = mask; rest != 0; rest &= rest - 1)
        bits[k++] = rest & ~(rest - 1);
    const std::uint64_t *bits_data = bits.data();
    const ReducePick pick =
        pickReduce([=](const simd::ReduceTable *table) {
            return table->normSqLanes(amps, 0, 0, bits_data, k, match,
                                      nullptr);
        });
    return deterministicSum(
        n >> k, [=](std::uint64_t begin, std::uint64_t end) {
            double lanes[8] = {0.0};
            if (pick.table == nullptr ||
                !pick.table->normSqLanes(amps, begin, end, bits_data,
                                         k, match, lanes)) {
                for (std::uint64_t h = begin; h < end; ++h) {
                    const std::uint64_t i =
                        expandIndex(h, bits_data, k) | match;
                    const double re = amps[i].real();
                    const double im = amps[i].imag();
                    lanes[2 * (h & 3)] += re * re;
                    lanes[2 * (h & 3) + 1] += im * im;
                }
            }
            return foldLanes(lanes);
        });
}

void
collapseQubit(Complex *amps, std::uint64_t n, Qubit q, int outcome,
              double scale)
{
    const std::uint64_t bit = std::uint64_t{1} << q;
    const std::uint64_t keep = outcome ? bit : 0;
    parallelFor(n, [=](std::uint64_t begin, std::uint64_t end) {
        for (std::uint64_t i = begin; i < end; ++i)
            amps[i] = (i & bit) == keep ? amps[i] * scale
                                        : Complex{0.0, 0.0};
    });
}

void
computeProbabilities(const Complex *amps, std::uint64_t n, double *probs)
{
    const ReducePick pick =
        pickReduce([=](const simd::ReduceTable *table) {
            return table->probFill(amps, probs, 0, 0);
        });
    parallelFor(n, [=](std::uint64_t begin, std::uint64_t end) {
        if (pick.table != nullptr &&
            pick.table->probFill(amps, probs, begin, end))
            return;
        for (std::uint64_t i = begin; i < end; ++i) {
            const double re = amps[i].real();
            const double im = amps[i].imag();
            probs[i] = re * re + im * im;
        }
    });
}

namespace {

/** Marginal scatter over one range, in index order. */
void
marginalScatter(const Complex *amps, std::uint64_t begin,
                std::uint64_t end, const std::uint64_t *bits,
                std::size_t k, double *histogram)
{
    for (std::uint64_t i = begin; i < end; ++i) {
        std::uint64_t key = 0;
        for (std::size_t j = 0; j < k; ++j)
            key |= ((i & bits[j]) != 0 ? std::uint64_t{1} : 0) << j;
        histogram[key] += std::norm(amps[i]);
    }
}

} // namespace

std::vector<double>
marginalProbabilities(const Complex *amps, std::uint64_t n,
                      const std::vector<Qubit> &qubits)
{
    const std::size_t k = qubits.size();
    const std::uint64_t dim = std::uint64_t{1} << k;
    std::vector<std::uint64_t> bits(k);
    for (std::size_t j = 0; j < k; ++j)
        bits[j] = std::uint64_t{1} << qubits[j];

    // No tier has a marginal slot: a vector norms strip ahead of the
    // scatter lost to the inline scan on every tier.
    recordReduce(simd::Tier::Scalar);

    std::vector<double> marginal(dim, 0.0);
    const std::uint64_t blocks = (n + kReduceBlock - 1) / kReduceBlock;
    // Scratch budget: 32 MiB of partial histograms. Wider marginals
    // (close to the full register) fall back to the serial scatter;
    // assertion-ancilla marginals are far below the cap.
    constexpr std::uint64_t kScratchDoubles = std::uint64_t{1} << 22;
    if (blocks <= 1 || blocks * dim > kScratchDoubles) {
        marginalScatter(amps, 0, n, bits.data(), k, marginal.data());
        return marginal;
    }

    std::vector<double> partials(blocks * dim, 0.0);
    double *partials_data = partials.data();
    const std::uint64_t *bits_data = bits.data();
    parallelFor(blocks, /*grain=*/1,
                [=](std::uint64_t b0, std::uint64_t b1) {
                    for (std::uint64_t b = b0; b < b1; ++b) {
                        const std::uint64_t begin = b * kReduceBlock;
                        marginalScatter(amps, begin,
                                        std::min(n, begin + kReduceBlock),
                                        bits_data, k,
                                        partials_data + b * dim);
                    }
                });

    // Merge in block order: fixed blocks, fixed order, so rounding is
    // identical at every lane count.
    for (std::uint64_t b = 0; b < blocks; ++b)
        for (std::uint64_t j = 0; j < dim; ++j)
            marginal[j] += partials[b * dim + j];
    return marginal;
}

namespace {

/** Reduced-density sums over pair range [begin, end) (compact). */
QubitDensity
qubitDensityRange(const Complex *amps, std::uint64_t begin,
                  std::uint64_t end, std::uint64_t bit)
{
    const std::uint64_t low = bit - 1;
    double r00 = 0.0, r11 = 0.0, c_re = 0.0, c_im = 0.0;
    for (std::uint64_t h = begin; h < end; ++h) {
        const std::uint64_t i0 = ((h & ~low) << 1) | (h & low);
        const double re0 = amps[i0].real(), im0 = amps[i0].imag();
        const double re1 = amps[i0 | bit].real();
        const double im1 = amps[i0 | bit].imag();
        r00 += re0 * re0 + im0 * im0;
        r11 += re1 * re1 + im1 * im1;
        c_re += re0 * re1 + im0 * im1;
        c_im += re0 * im1 - im0 * re1;
    }
    return {r00, r11, Complex{c_re, c_im}};
}

} // namespace

QubitDensity
reduceQubitDensity(const Complex *amps, std::uint64_t n, Qubit q)
{
    const std::uint64_t bit = std::uint64_t{1} << q;
    const std::uint64_t pairs = n >> 1;
    if (pairs <= kReduceBlock)
        return qubitDensityRange(amps, 0, pairs, bit);

    const std::uint64_t blocks =
        (pairs + kReduceBlock - 1) / kReduceBlock;
    std::vector<QubitDensity> partials(blocks);
    QubitDensity *partials_data = partials.data();
    parallelFor(blocks, /*grain=*/1,
                [=](std::uint64_t b0, std::uint64_t b1) {
                    for (std::uint64_t b = b0; b < b1; ++b) {
                        const std::uint64_t begin = b * kReduceBlock;
                        partials_data[b] = qubitDensityRange(
                            amps, begin,
                            std::min(pairs, begin + kReduceBlock), bit);
                    }
                });
    QubitDensity total;
    for (const QubitDensity &partial : partials) {
        total.r00 += partial.r00;
        total.r11 += partial.r11;
        total.c01 += partial.c01;
    }
    return total;
}

} // namespace kernels
} // namespace qra
