/**
 * @file
 * Bit-exactness parity suite for the vectorized measurement pipeline:
 * the reduction kernels (normSquaredOnMask, marginalProbabilities),
 * the computeProbabilities fill, the sampler guards sampled execution
 * relies on, the CacheBlockScope budget override, and the end-to-end
 * sampled-counts invariant.
 *
 * The contract (kernels.hh "parallel measurement/sampling
 * reductions"): every reduction accumulates fixed kReduceBlock blocks
 * into a fixed 8-double lane array folded in a static order, so the
 * result is *bit-identical* — memcmp, never EXPECT_NEAR — across SIMD
 * tiers, thread counts, and lane counts. The forced-scalar loops are
 * the oracle, exactly like the gate-kernel suite. Tiers above what
 * this CPU supports are clamped away by dispatch, so the suite
 * exercises exactly availableTiers() and stays green on scalar-only
 * hardware and -DQRA_ENABLE_*=OFF builds.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "circuit/circuit.hh"
#include "common/error.hh"
#include "common/rng.hh"
#include "math/gates.hh"
#include "math/types.hh"
#include "noise/channels.hh"
#include "noise/kraus.hh"
#include "obs/metrics.hh"
#include "runtime/execution_engine.hh"
#include "runtime/thread_pool.hh"
#include "sim/kernels/kernels.hh"
#include "sim/kernels/noise_plan.hh"
#include "sim/kernels/parallel.hh"
#include "sim/kernels/simd/dispatch.hh"
#include "sim/kernels/traversal.hh"
#include "sim/state_vector.hh"
#include "sim/statevector_simulator.hh"

using namespace qra;
using namespace qra::kernels;
using runtime::EngineOptions;
using runtime::ExecutionEngine;
using runtime::Job;
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

/** Bitwise double equality: distinguishes -0.0/0.0, catches NaN. */
::testing::AssertionResult
bitEqual(double a, double b)
{
    if (std::memcmp(&a, &b, sizeof(double)) == 0)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << a << " and " << b << " differ bitwise";
}

::testing::AssertionResult
bitEqual(const std::vector<double> &a, const std::vector<double> &b)
{
    if (a.size() != b.size())
        return ::testing::AssertionFailure() << "size mismatch";
    for (std::size_t i = 0; i < a.size(); ++i)
        if (std::memcmp(&a[i], &b[i], sizeof(double)) != 0)
            return ::testing::AssertionFailure()
                   << "first divergence at entry " << i << ": " << a[i]
                   << " vs " << b[i];
    return ::testing::AssertionSuccess();
}

/**
 * Evaluate @p reduce under a forced scalar scope (serial), then under
 * every available tier serially and with 4 lanes; every result must
 * be bitwise equal to the scalar oracle.
 */
template <typename Reduce>
void
expectReductionParity(const Reduce &reduce, const char *what)
{
    double oracle;
    {
        TierScope scope(static_cast<int>(Tier::Scalar));
        oracle = reduce();
    }
    runtime::ThreadPool pool(4);
    for (Tier tier : simd::availableTiers()) {
        TierScope scope(static_cast<int>(tier));
        EXPECT_TRUE(bitEqual(oracle, reduce()))
            << what << ": tier " << simd::tierName(tier) << " serial";
        {
            ParallelScope lanes(&pool, 4);
            EXPECT_TRUE(bitEqual(oracle, reduce()))
                << what << ": tier " << simd::tierName(tier)
                << " with 4 lanes";
        }
    }
}

} // namespace

// ---- normSquaredOnMask -------------------------------------------------

TEST(ReductionParity, NormSquaredOnMaskAcrossTiersAndLanes)
{
    // 17 qubits = two kReduceBlock blocks plus a ragged tail in the
    // compact space once a mask strips bits.
    const std::vector<Complex> amps = randomState(17, 101);
    const std::uint64_t n = amps.size();

    struct Case
    {
        std::uint64_t mask;
        std::uint64_t match;
    };
    const Case cases[] = {
        {0, 0},                   // total norm, pure sum
        {1, 1},                   // q0: vector support rejected (k>0,
                                  // lowest bit < 4) -> scalar fallback
        {2, 0},                   // q1: still scalar fallback
        {4, 4},                   // q2: lowest vector-friendly qubit
        {std::uint64_t{1} << 16, 0},            // high qubit
        {(std::uint64_t{1} << 16) | 4, 4},      // multi-bit mask
        {0b11000, 0b01000},                     // adjacent mid bits
    };
    for (const Case &c : cases)
        expectReductionParity(
            [&]() {
                return normSquaredOnMask(amps.data(), n, c.mask,
                                         c.match);
            },
            "normSquaredOnMask");
}

TEST(ReductionParity, NormSquaredOnMaskSmallAndEdgeSizes)
{
    // Sizes around the vector width: tails of every phase, plus the
    // single-amplitude state.
    for (std::size_t nq : {0u, 1u, 2u, 3u, 5u}) {
        const std::vector<Complex> amps = randomState(nq, 7 + nq);
        expectReductionParity(
            [&]() {
                return normSquaredOnMask(amps.data(), amps.size(), 0,
                                         0);
            },
            "normSquaredOnMask small");
    }
}

// ---- computeProbabilities ----------------------------------------------

TEST(ReductionParity, ComputeProbabilitiesAcrossTiersAndLanes)
{
    const std::vector<Complex> amps = randomState(16, 202);
    const std::uint64_t n = amps.size();

    std::vector<double> oracle_probs(n);
    {
        TierScope scope(static_cast<int>(Tier::Scalar));
        computeProbabilities(amps.data(), n, oracle_probs.data());
    }
    // The scalar elementwise values are std::norm exactly.
    for (std::size_t i = 0; i < n; ++i)
        ASSERT_TRUE(bitEqual(oracle_probs[i], std::norm(amps[i])));

    runtime::ThreadPool pool(4);
    for (Tier tier : simd::availableTiers()) {
        TierScope scope(static_cast<int>(tier));
        for (int lanes = 1; lanes <= 4; lanes += 3) {
            std::vector<double> probs(n, -1.0);
            if (lanes > 1) {
                ParallelScope scope_lanes(&pool, 4);
                computeProbabilities(amps.data(), n, probs.data());
            } else {
                computeProbabilities(amps.data(), n, probs.data());
            }
            EXPECT_TRUE(bitEqual(oracle_probs, probs))
                << "tier " << simd::tierName(tier) << " lanes "
                << lanes;
        }
    }
}

TEST(ReductionParity, ComputeProbabilitiesOddSizesAndOffsets)
{
    // Lengths and starts off every vector width: the fill's tails.
    const std::vector<Complex> amps = randomState(10, 505);
    for (const std::size_t offset : {0u, 1u, 3u})
        for (const std::size_t n : {1u, 3u, 7u, 9u, 1000u}) {
            std::vector<double> oracle(n);
            {
                TierScope scope(static_cast<int>(Tier::Scalar));
                computeProbabilities(amps.data() + offset, n,
                                     oracle.data());
            }
            for (Tier tier : simd::availableTiers()) {
                TierScope scope(static_cast<int>(tier));
                std::vector<double> probs(n, -1.0);
                computeProbabilities(amps.data() + offset, n,
                                     probs.data());
                EXPECT_TRUE(bitEqual(oracle, probs))
                    << "tier " << simd::tierName(tier) << " offset "
                    << offset << " n " << n;
            }
        }
}

// ---- marginalProbabilities ---------------------------------------------

TEST(ReductionParity, MarginalProbabilitiesAcrossTiersAndLanes)
{
    const std::vector<Complex> amps = randomState(12, 404);
    const std::uint64_t n = amps.size();

    const std::vector<std::vector<Qubit>> marginals = {
        {0},           // single low qubit
        {11},          // single high qubit
        {0, 3, 5},     // scattered ascending
        {5, 3, 0},     // scattered descending (bit order matters)
        {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, // identity-width
    };
    runtime::ThreadPool pool(4);
    for (const std::vector<Qubit> &qubits : marginals) {
        std::vector<double> oracle;
        {
            TierScope scope(static_cast<int>(Tier::Scalar));
            oracle = marginalProbabilities(amps.data(), n, qubits);
        }
        for (Tier tier : simd::availableTiers()) {
            TierScope scope(static_cast<int>(tier));
            EXPECT_TRUE(bitEqual(
                oracle, marginalProbabilities(amps.data(), n, qubits)))
                << "tier " << simd::tierName(tier) << " serial";
            {
                ParallelScope lanes(&pool, 4);
                EXPECT_TRUE(bitEqual(
                    oracle,
                    marginalProbabilities(amps.data(), n, qubits)))
                    << "tier " << simd::tierName(tier)
                    << " with 4 lanes";
            }
        }
    }
}

// ---- StateVector measure-probability path ------------------------------

TEST(ReductionParity, ProbabilityOfOneAcrossTiers)
{
    Circuit circuit(9);
    for (Qubit q = 0; q < 9; ++q)
        circuit.h(q);
    for (Qubit q = 0; q + 1 < 9; ++q)
        circuit.cx(q, q + 1);
    circuit.rz(0.37, 4).ry(1.1, 7);

    std::vector<double> oracle(9);
    {
        TierScope scope(static_cast<int>(Tier::Scalar));
        StatevectorSimulator sim(5);
        const StateVector state = sim.finalState(circuit);
        for (Qubit q = 0; q < 9; ++q)
            oracle[q] = state.probabilityOfOne(q);
    }
    for (Tier tier : simd::availableTiers()) {
        TierScope scope(static_cast<int>(tier));
        StatevectorSimulator sim(5);
        const StateVector state = sim.finalState(circuit);
        for (Qubit q = 0; q < 9; ++q)
            EXPECT_TRUE(bitEqual(oracle[q], state.probabilityOfOne(q)))
                << "tier " << simd::tierName(tier) << " qubit " << q;
    }
}

// ---- one-read Born weights of one-qubit Kraus sites ---------------------

TEST(ReducedDensityWeights, MatchDirectNormOnCopyAndAcrossLanes)
{
    // Relaxation sets have diagonal Gram matrices and never reach the
    // c01 term; amplitude damping after a fixed ry (real G01) or rx
    // (imaginary G01) does. At T2 = 2 T1 the dephasing part is empty,
    // so thermalRelaxation carries all-zero operators.
    const std::vector<KrausChannel> sets = {
        KrausChannel({gates::ry(0.7)})
            .composeWith(channels::amplitudeDamping(0.3)),
        KrausChannel({gates::rx(1.1)})
            .composeWith(channels::amplitudeDamping(0.45)),
        channels::thermalRelaxation(50000.0, 100000.0, 400.0),
        channels::thermalRelaxation(50000.0, 30000.0, 400.0),
    };
    runtime::ThreadPool pool(4);
    std::mt19937_64 rng(2024);
    // 18 qubits: the pair space spans two kReduceBlock blocks.
    for (const std::size_t num_qubits : {5u, 18u}) {
        const std::vector<Complex> amps =
            randomState(num_qubits, 600 + num_qubits);
        for (const KrausChannel &set : sets) {
            const Qubit q = static_cast<Qubit>(rng() % num_qubits);
            std::vector<kernels::Kraus1q> ops;
            std::vector<double> serial;
            const QubitDensity rho =
                reduceQubitDensity(amps.data(), amps.size(), q);
            for (const Matrix &k : set.operators()) {
                ops.emplace_back(k);
                std::vector<Complex> branch = amps;
                applyMatrix(branch, k, {q});
                double direct = 0.0;
                for (const Complex &a : branch)
                    direct += std::norm(a);
                serial.push_back(ops.back().weight(rho));
                EXPECT_NEAR(serial.back(), direct, 1e-13 * direct)
                    << set.name() << " on qubit " << q << " of "
                    << num_qubits;
            }
            for (const std::size_t lanes : {1u, 2u, 4u}) {
                ParallelScope scope(&pool, lanes);
                const QubitDensity laned =
                    reduceQubitDensity(amps.data(), amps.size(), q);
                for (std::size_t k = 0; k < ops.size(); ++k)
                    EXPECT_TRUE(bitEqual(serial[k], ops[k].weight(laned)))
                        << set.name() << " operator " << k << " with "
                        << lanes << " lanes";
            }
        }
    }
}

TEST(ReducedDensityWeights, ReducedQubitDensityIsTheKernelSums)
{
    // StateVector::reducedQubitDensity reads the same one-pass sums.
    StatevectorSimulator sim(3);
    Circuit circuit(3);
    circuit.h(0).t(0).ry(0.8, 1).rz(0.5, 1).ry(1.2, 2).s(2);
    const StateVector state = sim.finalState(circuit);
    for (Qubit q = 0; q < 3; ++q) {
        const QubitDensity rho = reduceQubitDensity(
            state.amplitudes().data(), state.dim(), q);
        const Matrix m = state.reducedQubitDensity(q);
        EXPECT_TRUE(bitEqual(m(0, 0).real(), rho.r00));
        EXPECT_TRUE(bitEqual(m(1, 1).real(), rho.r11));
        EXPECT_EQ(m(1, 0), rho.c01);
        EXPECT_EQ(m(0, 1), std::conj(rho.c01));
        // rho_01 = sum a0 conj(a1), computed directly.
        const std::uint64_t bit = std::uint64_t{1} << q;
        Complex r01{0.0, 0.0};
        for (std::uint64_t i = 0; i < state.dim(); ++i)
            if ((i & bit) == 0)
                r01 += state.amplitude(i) * std::conj(state.amplitude(i | bit));
        EXPECT_NEAR(std::abs(m(0, 1) - r01), 0.0, 1e-15);
        EXPECT_NEAR(rho.r00 + rho.r11, 1.0, 1e-12);
        // The T, RZ and S phases make every coherence complex, so a
        // dropped conjugate shows.
        EXPECT_GT(std::abs(rho.c01.imag()), 0.05) << "qubit " << q;
    }
}

// ---- sampler guards ------------------------------------------------------
//
// Sampled execution moves the probabilities into a CumulativeSampler,
// whose last running sum is the total; the sampler refuses a total no
// draw can use instead of sampling garbage (common/test_rng.cc checks
// it on plain weights). These run the sampled build's own steps,
// computeProbabilities (what StateVector::probabilities fills) moved
// into the sampler, on raw amplitudes no normalised StateVector could
// hold.

TEST(SamplerGuards, DenormalUnderflowStateThrowsNotGarbage)
{
    // |amp|^2 of a ~1e-300 amplitude underflows past the subnormal
    // range to exactly 0.0, so every probability of a denormal-heavy
    // state is 0 — the sampled build must refuse it.
    const std::vector<Complex> amps(1 << 6, Complex{1e-300, 0.0});
    std::vector<double> probs(amps.size());
    computeProbabilities(amps.data(), amps.size(), probs.data());
    EXPECT_TRUE(std::all_of(probs.begin(), probs.end(),
                            [](double p) { return p == 0.0; }));
    EXPECT_THROW(CumulativeSampler(std::move(probs)), ValueError);
}

TEST(SamplerGuards, InfiniteAmplitudeThrowsThroughTheSampledBuild)
{
    std::vector<Complex> amps = randomState(6, 55);
    amps[17] = Complex{std::numeric_limits<double>::infinity(), 0.0};
    std::vector<double> probs(amps.size());
    computeProbabilities(amps.data(), amps.size(), probs.data());
    EXPECT_FALSE(std::isfinite(probs[17]));
    EXPECT_THROW(CumulativeSampler(std::move(probs)), ValueError);
}

// ---- CacheBlockScope -----------------------------------------------------

TEST(CacheBlock, ScopeOverridesAndRestores)
{
    const std::size_t ambient = cacheBlockBytes();
    {
        CacheBlockScope scope(8192);
        EXPECT_EQ(cacheBlockBytes(), 8192u);
        {
            // 0 inherits the surrounding selection.
            CacheBlockScope inner(0);
            EXPECT_EQ(cacheBlockBytes(), 8192u);
        }
        {
            // Non-power-of-two rounds down; tiny values hit the floor.
            CacheBlockScope inner(12345);
            EXPECT_EQ(cacheBlockBytes(), 8192u);
        }
        {
            CacheBlockScope inner(1);
            EXPECT_EQ(cacheBlockBytes(), 4096u);
        }
        EXPECT_EQ(cacheBlockBytes(), 8192u);
    }
    EXPECT_EQ(cacheBlockBytes(), ambient);
}

// ---- obs counters --------------------------------------------------------

TEST(ReduceCounters, RecordSelectedTier)
{
    auto &registry = obs::MetricsRegistry::global();
    // How much @p run, called under TierScope(@p tier), bumps
    // sim.kernels.reduce.<counted>.
    auto increments = [&](Tier tier, const char *counted,
                          const auto &run) {
        const std::string key =
            std::string("sim.kernels.reduce.") + counted;
        const auto before = registry.snapshot().counters[key];
        obs::setMetricsEnabled(true);
        {
            TierScope scope(static_cast<int>(tier));
            run();
        }
        obs::setMetricsEnabled(false);
        return registry.snapshot().counters[key] - before;
    };
    const std::vector<Tier> tiers = simd::availableTiers();
    auto available = [&](Tier tier) {
        return std::find(tiers.begin(), tiers.end(), tier) != tiers.end();
    };
    const std::vector<Complex> amps = randomState(6, 1);

    EXPECT_GT(increments(Tier::Scalar, "scalar", [&] {
                  normSquaredOnMask(amps.data(), amps.size(), 0, 0);
              }),
              0u);

    // A slot that lost to the tier below declines every call, so the
    // ladder falls through and the lower tier's counter records it.
    if (available(Tier::Portable)) {
        std::vector<double> probs(amps.size());
        EXPECT_GT(increments(Tier::Portable, "scalar", [&] {
                      computeProbabilities(amps.data(), amps.size(),
                                           probs.data());
                  }),
                  0u);
    }
    // No tier has a marginal slot.
    for (Tier tier : tiers)
        EXPECT_GT(increments(tier, "scalar", [&] {
                      marginalProbabilities(amps.data(), amps.size(),
                                            {0, 2});
                  }),
                  0u)
            << simd::tierName(tier);
}

// ---- end-to-end sampled counts -------------------------------------------

namespace {

/** Terminal-measurement circuit hitting the identity-marginal path. */
Circuit
measureAllCircuit()
{
    Circuit circuit(5, 5);
    circuit.h(0).cx(0, 1).cx(1, 2).ry(0.4, 3).cx(2, 4).rz(0.9, 4);
    circuit.measureAll();
    return circuit;
}

/** Scrambled-subset measurement: the true-marginal sampled path. */
Circuit
subsetMeasureCircuit()
{
    Circuit circuit(6, 3);
    circuit.h(0).cx(0, 3).ry(0.8, 5).cx(3, 5).h(2);
    circuit.measure(4, 0).measure(1, 1).measure(5, 2);
    return circuit;
}

std::map<std::uint64_t, std::size_t>
sampledCounts(const Circuit &circuit, int tier, std::size_t threads,
              bool adaptive)
{
    ExecutionEngine engine(EngineOptions{.threads = threads,
                                         .shardShots = 512,
                                         .maxShards = 8,
                                         .simdTier = tier});
    Job job(circuit, 2048, "statevector", 99);
    if (!adaptive)
        return engine.run(job).rawCounts();
    job.stopping.waveShots = 512;
    return engine.run(job).rawCounts();
}

} // namespace

TEST(SampledCountsParity, IdenticalAcrossTiersThreadsAndWaves)
{
    for (const Circuit &circuit :
         {measureAllCircuit(), subsetMeasureCircuit()}) {
        const auto oracle = sampledCounts(
            circuit, static_cast<int>(Tier::Scalar), 1, false);
        ASSERT_FALSE(oracle.empty());
        for (Tier tier : simd::availableTiers()) {
            for (std::size_t threads : {std::size_t{1},
                                        std::size_t{4}}) {
                EXPECT_EQ(oracle,
                          sampledCounts(circuit,
                                        static_cast<int>(tier),
                                        threads, false))
                    << "run: tier " << simd::tierName(tier)
                    << " threads " << threads;
                EXPECT_EQ(oracle,
                          sampledCounts(circuit,
                                        static_cast<int>(tier),
                                        threads, true))
                    << "waves: tier " << simd::tierName(tier)
                    << " threads " << threads;
            }
        }
    }
}

TEST(SampledCountsParity, CacheBlockBudgetIsCountsInvariant)
{
    // The blocked-traversal budget is a pure locality knob: forcing a
    // tiny per-plan budget (so Auto picks Blocked everywhere) must
    // not move a single count.
    const Circuit circuit = measureAllCircuit();
    const auto oracle = sampledCounts(
        circuit, static_cast<int>(Tier::Scalar), 1, false);
    ExecutionEngine engine(EngineOptions{.threads = 4,
                                         .shardShots = 512,
                                         .maxShards = 8,
                                         .simdTier = -1,
                                         .cacheBlockBytes = 4096});
    Job job(circuit, 2048, "statevector", 99);
    EXPECT_EQ(oracle, engine.run(job).rawCounts());
}
