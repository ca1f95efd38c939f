/**
 * @file
 * Runtime CPU-dispatch for the vectorized gate and reduction kernels.
 *
 * The SIMD layer is organised as per-tier kernel tables: one
 * translation unit per ISA tier (simd_portable.cc, simd_avx2.cc,
 * simd_avx512.cc), each compiled with exactly the flags its
 * intrinsics need and exporting a KernelTable of streaming gate
 * entry points plus a ReduceTable of measurement-side reduction
 * entry points. Every entry decides from *geometry alone* (target
 * qubit, mask shape, state size) whether it supports the call,
 * returning false before touching any amplitude when it does not;
 * the dispatcher in kernels.cc then falls down the ladder to the
 * next tier and ultimately to the scalar oracle. Tiers are therefore
 * free to cover only the profitable layouts — unsupported shapes are
 * not errors, just fall-throughs.
 *
 * Tier selection (highest wins, all clamped to what the CPU supports
 * and what was compiled in):
 *   1. a thread-local TierScope (EngineOptions::simdTier, which
 *      qra_run --simd sets, installed by the engine's shard runner),
 *   2. the QRA_SIMD environment variable
 *      (scalar | portable | avx2 | avx512), read once,
 *   3. the cpuid-probed default.
 *
 * The portable tier is ISA-agnostic (std::experimental::simd when
 * the toolchain ships it, a hand-unrolled generic otherwise), so it
 * is "detected" on every CPU it was compiled for — non-x86 builds
 * get more than the scalar oracle.
 *
 * Bit-exactness contract: every table entry must produce amplitudes
 * (and reduction lane partials) bit-identical to the scalar kernels
 * in kernels.cc (libstdc++ std::complex semantics: per complex
 * multiply two element products, then a separate subtract/add —
 * never FMA-contracted; IEEE addition commutativity is the only
 * reordering relied upon). The SIMD TUs are compiled with
 * -ffp-contract=off to keep their scalar peel/tail loops on the same
 * arithmetic.
 *
 * Reduction lane contract: the norm reduction accumulates into a
 * fixed 8-double lane array shared by all tiers. For a compact index
 * h the element's squared real part lands in lanes[2*(h&3)] and its
 * squared imaginary part in lanes[2*(h&3)+1]; the caller folds
 * lanes[0]+lanes[1]+...+lanes[7] left to right. Because the
 * dispatcher only ever passes 4-aligned block starts (deterministicSum
 * blocks), a 4-complex vector accumulator maps exactly onto the lane
 * slots, and the fold — hence the final double — is bit-identical
 * across tiers, thread counts and lane counts.
 */

#ifndef QRA_SIM_KERNELS_SIMD_DISPATCH_HH
#define QRA_SIM_KERNELS_SIMD_DISPATCH_HH

#include <cstdint>
#include <string_view>
#include <vector>

#include "math/types.hh"

namespace qra {
namespace kernels {
namespace simd {

/** Instruction-set tiers, ordered so higher = wider/more specific. */
enum class Tier : int
{
    Scalar = 0,
    Portable = 1,
    Avx2 = 2,
    Avx512 = 3,
};

/** Printable name ("scalar" / "portable" / "avx2" / "avx512"). */
const char *tierName(Tier tier);

/** Parse a tier name; returns false (and leaves @p out) on junk. */
bool parseTier(std::string_view name, Tier *out);

/** Highest tier compiled into this binary (QRA_ENABLE_* options). */
Tier compiledTier();

/** Highest tier this CPU supports, clamped to compiledTier(). The
 * portable tier needs no CPU features, so it is detected whenever it
 * was compiled in. */
Tier detectedTier();

/**
 * The tier dispatch starts from on this thread right now: TierScope
 * override, else QRA_SIMD env, else detectedTier(). Always clamped
 * to detectedTier() — forcing a wider tier than the CPU has cannot
 * select unusable code.
 */
Tier currentTier();

/**
 * RAII thread-local tier override, mirroring FusionScope: the engine
 * installs one per shard runner from EngineOptions::simdTier.
 * @p tier -1 inherits the surrounding selection.
 */
class TierScope
{
  public:
    explicit TierScope(int tier);
    ~TierScope();

    TierScope(const TierScope &) = delete;
    TierScope &operator=(const TierScope &) = delete;

  private:
    int saved_;
};

/** Tiers usable in this binary on this CPU, ascending (never empty:
 * scalar is always present). */
std::vector<Tier> availableTiers();

/**
 * One ISA tier's gate-kernel entry points. Each returns true if it
 * handled the call, false — before any memory access — when the
 * geometry is out of its supported shape. Pair entries walk the
 * state through forEachCompact (traversal.hh). The 2q matrix is
 * row-major Complex[16] with matrix bit 0 = q0.
 */
struct KernelTable
{
    bool (*general1q)(Complex *amps, std::uint64_t n, Qubit q,
                      Complex m00, Complex m01, Complex m10,
                      Complex m11);
    bool (*diagonal1q)(Complex *amps, std::uint64_t n, Qubit q,
                       Complex d0, Complex d1);
    bool (*antidiagonal1q)(Complex *amps, std::uint64_t n, Qubit q,
                           Complex a01, Complex a10);
    bool (*phaseOnMask)(Complex *amps, std::uint64_t n,
                        std::uint64_t mask, Complex phase);
    bool (*controlled1q)(Complex *amps, std::uint64_t n, Qubit control,
                         Qubit target, Complex m00, Complex m01,
                         Complex m10, Complex m11);
    bool (*general2q)(Complex *amps, std::uint64_t n, Qubit q0,
                      Qubit q1, const Complex *m);
};

/**
 * One ISA tier's measurement-side entry points: the masked norm
 * reduction (see the lane contract in the file comment) and the
 * elementwise probability fill. normSqLanes fills the caller's
 * lanes[8] partials for one contiguous sub-range whose @p begin is
 * 4-aligned; the caller folds the lanes and owns block order. A call
 * with begin == end is a pure geometry probe: it must return the same
 * support verdict without touching @p lanes (which may be null) or
 * @p probs.
 */
struct ReduceTable
{
    /**
     * Masked norm-squared lane partials over compact [begin, end):
     * h expands to i = expandIndex(h, bits, k) | match, and
     * lanes[2*(h&3)] += re(amps[i])^2, lanes[2*(h&3)+1] += im^2.
     * Supported geometry: k == 0, or bits[0] >= 4 so that aligned
     * groups of four compact indices expand contiguously.
     */
    bool (*normSqLanes)(const Complex *amps, std::uint64_t begin,
                        std::uint64_t end, const std::uint64_t *bits,
                        std::size_t k, std::uint64_t match,
                        double *lanes);
    /**
     * Probability fill: probs[i] = |amps[i]|^2 over [begin, end), each
     * pair sum rounding once, exactly like scalar re*re + im*im. Any
     * @p begin (parallelFor chunks carry no alignment).
     */
    bool (*probFill)(const Complex *amps, double *probs,
                     std::uint64_t begin, std::uint64_t end);
};

#ifdef QRA_SIMD_PORTABLE
/** Portable tier tables (simd_portable.cc). */
extern const KernelTable kPortableTable;
extern const ReduceTable kPortableReduce;
#endif
#ifdef QRA_SIMD_AVX2
/** AVX2 tier tables (simd_avx2.cc). */
extern const KernelTable kAvx2Table;
extern const ReduceTable kAvx2Reduce;
#endif
#ifdef QRA_SIMD_AVX512
/** AVX-512 tier tables (simd_avx512.cc). */
extern const KernelTable kAvx512Table;
extern const ReduceTable kAvx512Reduce;
#endif

/** The gate tables to try for the current selection, widest first. */
struct Ladder
{
    const KernelTable *tables[3];
    Tier tiers[3];
    int count = 0;
};

/** The reduce tables to try, widest first (same selection rules). */
struct ReduceLadder
{
    const ReduceTable *tables[3];
    Tier tiers[3];
    int count = 0;
};

/** Build the ladder for currentTier(). Cheap (two TLS/atomic reads). */
Ladder activeLadder();
ReduceLadder activeReduceLadder();

} // namespace simd
} // namespace kernels
} // namespace qra

#endif // QRA_SIM_KERNELS_SIMD_DISPATCH_HH
