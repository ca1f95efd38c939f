/**
 * @file
 * Bit-exactness parity suite for the SIMD kernel tiers and the
 * cache-blocked traversal.
 *
 * The contract under test (simd/dispatch.hh): every vectorized tier
 * and both traversal walks produce amplitudes *bit-identical* to the
 * scalar oracle loops in kernels.cc — not merely close. Each case
 * therefore compares raw bytes (memcmp), never EXPECT_NEAR: a single
 * FMA contraction, addend reordering, or −0.0 sign flip fails loudly.
 *
 * Tiers above what this CPU supports are clamped away by dispatch, so
 * the suite exercises exactly availableTiers() and stays green on
 * scalar-only hardware and -DQRA_ENABLE_AVX2=OFF builds.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <vector>

#include "circuit/circuit.hh"
#include "common/error.hh"
#include "common/rng.hh"
#include "math/matrix.hh"
#include "math/types.hh"
#include "obs/metrics.hh"
#include "runtime/execution_engine.hh"
#include "runtime/thread_pool.hh"
#include "sim/kernels/kernels.hh"
#include "sim/kernels/parallel.hh"
#include "sim/kernels/simd/dispatch.hh"
#include "sim/kernels/traversal.hh"
#include "sim/statevector_simulator.hh"

using namespace qra;
using namespace qra::kernels;
using simd::Tier;
using simd::TierScope;

namespace {

/** Unnormalised random state: parity needs arithmetic, not physics. */
std::vector<Complex>
randomState(std::size_t num_qubits, std::uint64_t seed)
{
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    std::vector<Complex> amps(std::size_t{1} << num_qubits);
    for (Complex &a : amps)
        a = Complex{dist(rng), dist(rng)};
    return amps;
}

Complex
randomComplex(std::mt19937_64 &rng)
{
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    const double re = dist(rng);
    return Complex{re, dist(rng)};
}

::testing::AssertionResult
bitIdentical(const std::vector<Complex> &a, const std::vector<Complex> &b)
{
    if (a.size() != b.size())
        return ::testing::AssertionFailure() << "size mismatch";
    if (std::memcmp(a.data(), b.data(), a.size() * sizeof(Complex)) == 0)
        return ::testing::AssertionSuccess();
    for (std::size_t i = 0; i < a.size(); ++i)
        if (std::memcmp(&a[i], &b[i], sizeof(Complex)) != 0)
            return ::testing::AssertionFailure()
                   << "first divergence at amplitude " << i << ": ("
                   << a[i].real() << "," << a[i].imag() << ") vs ("
                   << b[i].real() << "," << b[i].imag() << ")";
    return ::testing::AssertionFailure() << "memcmp mismatch";
}

/**
 * Run @p apply on copies of the same random state under a forced
 * scalar scope and under every wider available tier; every pair must
 * be bit-identical. @p apply gets the raw amplitude vector.
 */
template <typename Apply>
void
expectTierParity(std::size_t num_qubits, std::uint64_t seed,
                 const Apply &apply)
{
    const std::vector<Complex> input = randomState(num_qubits, seed);

    std::vector<Complex> oracle = input;
    {
        TierScope scope(static_cast<int>(Tier::Scalar));
        apply(oracle);
    }

    for (Tier tier : simd::availableTiers()) {
        if (tier == Tier::Scalar)
            continue;
        std::vector<Complex> candidate = input;
        {
            TierScope scope(static_cast<int>(tier));
            apply(candidate);
        }
        EXPECT_TRUE(bitIdentical(oracle, candidate))
            << "tier " << simd::tierName(tier) << " on " << num_qubits
            << " qubits";
    }
}

} // namespace

// ---- per-kernel-class parity, every geometry --------------------------

TEST(SimdParity, General1qAllTargetsAllSizes)
{
    std::mt19937_64 rng(11);
    for (std::size_t nq : {1u, 2u, 3u, 5u, 8u, 11u}) {
        for (Qubit q = 0; q < nq; ++q) {
            const Complex m00 = randomComplex(rng);
            const Complex m01 = randomComplex(rng);
            const Complex m10 = randomComplex(rng);
            const Complex m11 = randomComplex(rng);
            expectTierParity(nq, 100 * nq + q, [&](auto &amps) {
                applyGeneral1q(amps.data(), amps.size(), q, m00, m01,
                               m10, m11);
            });
        }
    }
}

TEST(SimdParity, Diagonal1qAllTargetsAllSizes)
{
    std::mt19937_64 rng(12);
    for (std::size_t nq : {1u, 2u, 3u, 5u, 9u}) {
        for (Qubit q = 0; q < nq; ++q) {
            const Complex d0 = randomComplex(rng);
            const Complex d1 = randomComplex(rng);
            expectTierParity(nq, 200 * nq + q, [&](auto &amps) {
                applyDiagonal1q(amps.data(), amps.size(), q, d0, d1);
            });
        }
    }
}

TEST(SimdParity, AntiDiagonal1qAllTargetsAllSizes)
{
    std::mt19937_64 rng(13);
    for (std::size_t nq : {1u, 2u, 3u, 5u, 9u}) {
        for (Qubit q = 0; q < nq; ++q) {
            const Complex a01 = randomComplex(rng);
            const Complex a10 = randomComplex(rng);
            expectTierParity(nq, 300 * nq + q, [&](auto &amps) {
                applyAntiDiagonal1q(amps.data(), amps.size(), q, a01,
                                    a10);
            });
        }
    }
}

TEST(SimdParity, PhaseOnMaskSingleMultiAndOddMasks)
{
    std::mt19937_64 rng(14);
    const std::size_t nq = 9;
    std::vector<std::uint64_t> masks;
    for (Qubit q = 0; q < nq; ++q)
        masks.push_back(std::uint64_t{1} << q); // Z on each qubit
    masks.push_back(0b11);        // CZ, includes bit 0 (odd mask)
    masks.push_back(0b110);       // CZ on {1,2}, even mask
    masks.push_back(0b101);       // CCZ-shape with bit 0
    masks.push_back(0b101000);    // multi-bit, even
    masks.push_back((std::uint64_t{1} << nq) - 1); // all qubits
    for (std::uint64_t mask : masks) {
        const Complex phase = randomComplex(rng);
        expectTierParity(nq, 400 + mask, [&](auto &amps) {
            applyPhaseOnMask(amps.data(), amps.size(), mask, phase);
        });
    }
}

TEST(SimdParity, Controlled1qAllPairs)
{
    std::mt19937_64 rng(15);
    for (std::size_t nq : {2u, 3u, 5u, 8u}) {
        for (Qubit c = 0; c < nq; ++c) {
            for (Qubit t = 0; t < nq; ++t) {
                if (c == t)
                    continue;
                const Complex m00 = randomComplex(rng);
                const Complex m01 = randomComplex(rng);
                const Complex m10 = randomComplex(rng);
                const Complex m11 = randomComplex(rng);
                expectTierParity(nq, 500 * nq + 16 * c + t,
                                 [&](auto &amps) {
                                     applyControlled1q(
                                         amps.data(), amps.size(), c, t,
                                         m00, m01, m10, m11);
                                 });
            }
        }
    }
}

TEST(SimdParity, General2qAllPairs)
{
    std::mt19937_64 rng(16);
    for (std::size_t nq : {2u, 3u, 5u, 8u}) {
        for (Qubit q0 = 0; q0 < nq; ++q0) {
            for (Qubit q1 = 0; q1 < nq; ++q1) {
                if (q0 == q1)
                    continue;
                Matrix u(4, 4);
                for (std::size_t r = 0; r < 4; ++r)
                    for (std::size_t col = 0; col < 4; ++col)
                        u(r, col) = randomComplex(rng);
                expectTierParity(nq, 600 * nq + 16 * q0 + q1,
                                 [&](auto &amps) {
                                     applyGeneral2q(amps.data(),
                                                    amps.size(), q0, q1,
                                                    u);
                                 });
            }
        }
    }
}

TEST(SimdParity, RandomizedCircuitEndToEnd)
{
    // Full production path — plan lowering, fusion, classification —
    // on a random circuit: the final state must be bit-identical at
    // every tier (fused matrices are themselves tier-independent
    // because every kernel the fuser runs is bit-exact).
    const std::size_t nq = 9;
    Circuit c(nq, nq, "simd_parity");
    Rng rng(123);
    for (std::size_t i = 0; i < 120; ++i) {
        const Qubit q = static_cast<Qubit>(rng.below(nq));
        const Qubit r = static_cast<Qubit>(
            (q + 1 + rng.below(nq - 1)) % nq);
        switch (rng.below(6)) {
        case 0:
            c.h(q);
            break;
        case 1:
            c.t(q);
            break;
        case 2:
            c.ry(rng.uniform() * 3.0, q);
            break;
        case 3:
            c.cx(q, r);
            break;
        case 4:
            c.cz(q, r);
            break;
        default:
            c.rz(rng.uniform() * 3.0, q);
        }
    }

    std::vector<Complex> oracle;
    {
        TierScope scope(static_cast<int>(Tier::Scalar));
        StatevectorSimulator sim(7);
        oracle = sim.finalState(c).amplitudes();
    }
    for (Tier tier : simd::availableTiers()) {
        if (tier == Tier::Scalar)
            continue;
        TierScope scope(static_cast<int>(tier));
        StatevectorSimulator sim(7);
        const std::vector<Complex> amps =
            sim.finalState(c).amplitudes();
        EXPECT_TRUE(bitIdentical(oracle, amps))
            << "tier " << simd::tierName(tier);
    }
}

// ---- parity under lane-split execution --------------------------------

TEST(SimdParity, MultiThreadedLanesMatchSerialScalar)
{
    // 17 qubits: the compact ranges exceed 2 * kParallelGrain, so a
    // 4-lane scope genuinely splits — and splits at arbitrary (non
    // power-of-two-aligned) chunk bounds, exercising the vector
    // bodies' scalar peel/tail against the oracle.
    const std::size_t nq = 17;
    std::mt19937_64 rng(17);
    const Complex m00 = randomComplex(rng), m01 = randomComplex(rng);
    const Complex m10 = randomComplex(rng), m11 = randomComplex(rng);
    Matrix u(4, 4);
    for (std::size_t r = 0; r < 4; ++r)
        for (std::size_t col = 0; col < 4; ++col)
            u(r, col) = randomComplex(rng);

    const std::vector<Complex> input = randomState(nq, 99);
    auto applyAll = [&](std::vector<Complex> &amps) {
        applyGeneral1q(amps.data(), amps.size(), 0, m00, m01, m10, m11);
        applyGeneral1q(amps.data(), amps.size(), 16, m00, m01, m10,
                       m11);
        applyControlled1q(amps.data(), amps.size(), 16, 0, m00, m01,
                          m10, m11);
        applyGeneral2q(amps.data(), amps.size(), 0, 16, u);
        applyGeneral2q(amps.data(), amps.size(), 7, 8, u);
    };

    std::vector<Complex> oracle = input;
    {
        TierScope scope(static_cast<int>(Tier::Scalar));
        applyAll(oracle); // serial: no ParallelScope
    }

    runtime::ThreadPool pool(4);
    for (Tier tier : simd::availableTiers()) {
        std::vector<Complex> candidate = input;
        {
            TierScope scope(static_cast<int>(tier));
            ParallelScope lanes(&pool, 4);
            applyAll(candidate);
        }
        EXPECT_TRUE(bitIdentical(oracle, candidate))
            << "tier " << simd::tierName(tier) << " with 4 lanes";
    }
}

// ---- blocked vs linear traversal --------------------------------------

TEST(TraversalParity, BlockedMatchesLinearAtEveryTier)
{
    // A 4 KiB budget makes qubit 12's 64 KiB pair stride take the
    // tiled walk on a 13-qubit state; under the default 1 MiB budget
    // the same calls walk linearly. The blocked-walk counter shows
    // which walk each run took, so the memcmp never compares a linear
    // walk with itself.
    const std::size_t nq = 13;
    const Qubit hi = 12;
    std::mt19937_64 rng(18);
    const Complex m00 = randomComplex(rng), m01 = randomComplex(rng);
    const Complex m10 = randomComplex(rng), m11 = randomComplex(rng);
    Matrix u(4, 4);
    for (std::size_t r = 0; r < 4; ++r)
        for (std::size_t col = 0; col < 4; ++col)
            u(r, col) = randomComplex(rng);
    const auto applyPairKernels = [&](std::vector<Complex> &amps) {
        applyGeneral1q(amps.data(), amps.size(), hi, m00, m01, m10,
                       m11);
        applyAntiDiagonal1q(amps.data(), amps.size(), hi, m01, m10);
        applyControlled1q(amps.data(), amps.size(), hi, 3, m00, m01,
                          m10, m11);
        applyGeneral2q(amps.data(), amps.size(), 2, hi, u);
    };
    auto &registry = obs::MetricsRegistry::global();
    const auto blockedWalks = [&] {
        return registry.snapshot()
            .counters["sim.kernels.traversal.blocked"];
    };

    const std::vector<Complex> input = randomState(nq, 77);
    runtime::ThreadPool pool(4);
    obs::setMetricsEnabled(true);
    for (Tier tier : simd::availableTiers()) {
        TierScope scope(static_cast<int>(tier));
        ParallelScope lanes(&pool, 4);
        std::vector<Complex> blocked = input;
        std::vector<Complex> linear = input;

        const auto before = blockedWalks();
        {
            CacheBlockScope budget(4096);
            applyPairKernels(blocked);
        }
        const auto after_blocked = blockedWalks();
        applyPairKernels(linear);

        EXPECT_EQ(after_blocked - before, 4u)
            << "tier " << simd::tierName(tier)
            << ": every pair kernel walks in tiles";
        EXPECT_EQ(blockedWalks(), after_blocked)
            << "tier " << simd::tierName(tier)
            << ": the default budget walks linearly";
        EXPECT_TRUE(bitIdentical(linear, blocked))
            << "tier " << simd::tierName(tier);
    }
    obs::setMetricsEnabled(false);
}

TEST(TraversalParity, ResolvePicksBlockedOnlyAboveBudget)
{
    {
        CacheBlockScope budget(4096);
        // Stride 1<<12 * 16 B = 64 KiB > 4 KiB, and 4096 compact
        // indices span four tiles of the 1024-index floor: tiled.
        EXPECT_EQ(blockedTile(4096, 2, std::uint64_t{1} << 12), 1024u);
        // Low qubit: 16 B stride sits inside any budget: linear.
        EXPECT_EQ(blockedTile(4096, 2, 1), 0u);
        // A range of one tile walks linearly whatever its stride.
        EXPECT_EQ(blockedTile(1024, 2, std::uint64_t{1} << 12), 0u);
    }
    {
        // A tile's amplitudes fill the budget: 64 KiB holds 2048 pairs
        // or 1024 quads.
        CacheBlockScope budget(std::size_t{1} << 16);
        const std::uint64_t stride = std::uint64_t{1} << 13;
        EXPECT_EQ(blockedTile(std::uint64_t{1} << 14, 2, stride), 2048u);
        EXPECT_EQ(blockedTile(std::uint64_t{1} << 14, 4, stride), 1024u);
        // The stride must exceed the budget, not merely reach it.
        EXPECT_EQ(blockedTile(std::uint64_t{1} << 14, 2, stride / 2), 0u);
    }
    // The default 1 MiB budget: qubit 16's 1 MiB stride stays linear,
    // qubit 17's 2 MiB stride tiles.
    EXPECT_EQ(blockedTile(std::uint64_t{1} << 17, 2,
                          std::uint64_t{1} << 16),
              0u);
    EXPECT_EQ(blockedTile(std::uint64_t{1} << 17, 2,
                          std::uint64_t{1} << 17),
              std::uint64_t{1} << 15);
}

// ---- dispatch plumbing ------------------------------------------------

TEST(SimdDispatch, AvailableTiersAscendingFromScalar)
{
    const std::vector<Tier> tiers = simd::availableTiers();
    ASSERT_FALSE(tiers.empty());
    EXPECT_EQ(tiers.front(), Tier::Scalar);
    for (std::size_t i = 1; i < tiers.size(); ++i)
        EXPECT_LT(static_cast<int>(tiers[i - 1]),
                  static_cast<int>(tiers[i]));
    EXPECT_LE(simd::detectedTier(), simd::compiledTier());
}

TEST(SimdDispatch, ForcedTierClampsToDetected)
{
    // Forcing a wider tier than the CPU/build has must clamp, never
    // select unusable code.
    TierScope scope(static_cast<int>(Tier::Avx512));
    EXPECT_LE(simd::currentTier(), simd::detectedTier());
}

TEST(SimdDispatch, NestedTierScopesInheritAndRestore)
{
    const Tier ambient = simd::currentTier();
    {
        TierScope outer(static_cast<int>(Tier::Scalar));
        EXPECT_EQ(simd::currentTier(), Tier::Scalar);
        {
            // -1 inherits the surrounding tier.
            TierScope inherit(-1);
            EXPECT_EQ(simd::currentTier(), Tier::Scalar);
        }
        {
            TierScope inner(static_cast<int>(simd::detectedTier()));
            EXPECT_EQ(simd::currentTier(), simd::detectedTier());
        }
        // The outer tier returns when the inner scope exits.
        EXPECT_EQ(simd::currentTier(), Tier::Scalar);
    }
    EXPECT_EQ(simd::currentTier(), ambient);
}

TEST(SimdDispatch, ParseTierRoundTrips)
{
    Tier tier;
    ASSERT_TRUE(simd::parseTier("scalar", &tier));
    EXPECT_EQ(tier, Tier::Scalar);
    ASSERT_TRUE(simd::parseTier("portable", &tier));
    EXPECT_EQ(tier, Tier::Portable);
    ASSERT_TRUE(simd::parseTier("avx2", &tier));
    EXPECT_EQ(tier, Tier::Avx2);
    ASSERT_TRUE(simd::parseTier("avx512", &tier));
    EXPECT_EQ(tier, Tier::Avx512);
    EXPECT_FALSE(simd::parseTier("sse9", &tier));
    EXPECT_FALSE(simd::parseTier("", &tier));
    for (Tier t : simd::availableTiers()) {
        Tier back;
        ASSERT_TRUE(simd::parseTier(simd::tierName(t), &back));
        EXPECT_EQ(back, t);
    }
}

TEST(SimdDispatch, DispatchCountersRecordSelectedTier)
{
    auto &registry = obs::MetricsRegistry::global();
    const auto before =
        registry.snapshot().counters["sim.kernels.dispatch.scalar"];
    obs::setMetricsEnabled(true);
    {
        TierScope scope(static_cast<int>(Tier::Scalar));
        std::vector<Complex> amps = randomState(6, 1);
        applyGeneral1q(amps.data(), amps.size(), 3, Complex{0, 1},
                       Complex{1, 0}, Complex{0, -1}, Complex{-1, 0});
    }
    obs::setMetricsEnabled(false);
    const auto after =
        registry.snapshot().counters["sim.kernels.dispatch.scalar"];
    EXPECT_GT(after, before);
}

TEST(SimdDispatch, EngineOptionsValidatesTier)
{
    EXPECT_THROW(runtime::ExecutionEngine(
                     runtime::EngineOptions{.threads = 1, .simdTier = 4}),
                 ValueError);
    // -1 (auto) and every real tier construct fine; the tier is
    // clamped at dispatch time, not rejected.
    for (int tier = -1; tier <= 3; ++tier)
        EXPECT_NO_THROW(runtime::ExecutionEngine(
            runtime::EngineOptions{.threads = 1, .simdTier = tier}));
}

// ---- expandIndex contract ---------------------------------------------

TEST(ExpandIndex, DebugAssertsRejectMalformedBitArrays)
{
#ifdef NDEBUG
    GTEST_SKIP() << "expandIndex contract asserts compile out under "
                    "NDEBUG";
#else
    const std::uint64_t zero_entry[] = {0};
    EXPECT_THROW(expandIndex(5, zero_entry, 1), Error);
    const std::uint64_t multi_bit[] = {0b110};
    EXPECT_THROW(expandIndex(5, multi_bit, 1), Error);
    const std::uint64_t descending[] = {4, 2};
    EXPECT_THROW(expandIndex(5, descending, 2), Error);
#endif
}

TEST(ExpandIndex, WellFormedInsertionMatchesManualBitMath)
{
    // Insert zeros at bits 1 and 3: compact 0b111 -> 0b10101.
    const std::uint64_t bits[] = {2, 8};
    EXPECT_EQ(expandIndex(0b111, bits, 2), 0b10101u);
    EXPECT_EQ(expandIndex(0, bits, 2), 0u);
}
