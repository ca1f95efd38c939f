/** @file Tests for the ideal shot-based simulator. */

#include <bit>
#include <cmath>

#include <gtest/gtest.h>

#include "common/error.hh"
#include "common/hash.hh"
#include "sim/statevector_simulator.hh"
#include "testutil.hh"

namespace qra {
namespace {

TEST(StatevectorSimulatorTest, DeterministicCircuit)
{
    Circuit c(2, 2);
    c.x(0).measureAll();
    StatevectorSimulator sim(1);
    const Result r = sim.run(c, 100);
    EXPECT_EQ(r.shots(), 100u);
    EXPECT_EQ(r.count("01"), 100u); // clbit0 (rightmost) is 1
}

TEST(StatevectorSimulatorTest, BellPairCorrelations)
{
    Circuit c(2, 2);
    c.h(0).cx(0, 1).measureAll();
    StatevectorSimulator sim(42);
    const Result r = sim.run(c, 10000);
    EXPECT_EQ(r.count(0b01), 0u);
    EXPECT_EQ(r.count(0b10), 0u);
    EXPECT_NEAR(r.probability(std::uint64_t{0b00}), 0.5, 0.03);
    EXPECT_NEAR(r.probability(std::uint64_t{0b11}), 0.5, 0.03);
}

TEST(StatevectorSimulatorTest, NoMeasurementsYieldsZeroRegister)
{
    Circuit c(1, 1);
    c.h(0);
    StatevectorSimulator sim(2);
    const Result r = sim.run(c, 10);
    EXPECT_EQ(r.count(std::uint64_t{0}), 10u);
}

TEST(StatevectorSimulatorTest, PartialMeasurement)
{
    Circuit c(3, 1);
    c.x(2).measure(2, 0);
    StatevectorSimulator sim(3);
    const Result r = sim.run(c, 50);
    EXPECT_EQ(r.count(std::uint64_t{1}), 50u);
}

TEST(StatevectorSimulatorTest, MidCircuitMeasurementForcesPerShot)
{
    // Measure then keep operating on the measured qubit: per-shot
    // path must handle the collapse correctly.
    Circuit c(1, 2);
    c.h(0).measure(0, 0).x(0).measure(0, 1);
    StatevectorSimulator sim(7);
    const Result r = sim.run(c, 2000);
    // Second bit is always the complement of the first.
    for (const auto &[key, n] : r.rawCounts()) {
        const int b0 = key & 1;
        const int b1 = (key >> 1) & 1;
        EXPECT_NE(b0, b1) << "outcome " << key << " x" << n;
    }
    EXPECT_NEAR(r.probability(std::uint64_t{0b10}), 0.5, 0.05);

    // A qubit measured twice is mid-circuit too; the second read
    // repeats the collapsed first one.
    Circuit twice(1, 2);
    twice.h(0).measure(0, 0).measure(0, 1);
    const Result rt = sim.run(twice, 2000);
    for (const auto &[key, n] : rt.rawCounts())
        EXPECT_EQ(key & 1, (key >> 1) & 1) << "outcome " << key << " x" << n;
    EXPECT_NEAR(rt.probability(std::uint64_t{0b11}), 0.5, 0.05);
}

TEST(StatevectorSimulatorTest, ResetPath)
{
    Circuit c(1, 1);
    c.h(0).reset(0).measure(0, 0);
    StatevectorSimulator sim(11);
    const Result r = sim.run(c, 500);
    EXPECT_EQ(r.count(std::uint64_t{0}), 500u);
}

TEST(StatevectorSimulatorTest, PostSelectConditionsDistribution)
{
    // Bell pair, post-select q0 == 1: all shots read 11.
    Circuit c(2, 2);
    c.h(0).cx(0, 1).postSelect(0, 1).measureAll();
    StatevectorSimulator sim(13);
    const Result r = sim.run(c, 300);
    EXPECT_EQ(r.count(0b11), 300u);
    EXPECT_NEAR(r.retainedFraction(), 0.5, 1e-9);
}

TEST(StatevectorSimulatorTest, FinalStateSkipsMeasurements)
{
    Circuit c(2, 2);
    c.h(0).cx(0, 1).measureAll();
    StatevectorSimulator sim(17);
    const StateVector sv = sim.finalState(c);
    // Bell state: measurements were not applied.
    EXPECT_NEAR(std::abs(sv.amplitude(0b00)), kInvSqrt2, 1e-12);
    EXPECT_NEAR(std::abs(sv.amplitude(0b11)), kInvSqrt2, 1e-12);
}

TEST(StatevectorSimulatorTest, FinalStateHonoursPostSelect)
{
    Circuit c(1);
    c.h(0).postSelect(0, 1);
    StatevectorSimulator sim(19);
    const StateVector sv = sim.finalState(c);
    EXPECT_NEAR(std::abs(sv.amplitude(1)), 1.0, 1e-12);
}

TEST(StatevectorSimulatorTest, EvolveWithMeasurementsCollapses)
{
    Circuit c(2, 0);
    c.h(0).cx(0, 1);
    // Add a measurement on q0 only.
    Circuit cm(2, 1);
    cm.h(0).cx(0, 1).measure(0, 0);
    StatevectorSimulator sim(23);
    const StateVector sv = sim.evolveWithMeasurements(cm);
    // After measuring one half of a Bell pair the state is a product
    // state: both qubits agree and purity is 1.
    EXPECT_NEAR(sv.qubitPurity(0), 1.0, 1e-12);
    EXPECT_NEAR(sv.qubitPurity(1), 1.0, 1e-12);
    EXPECT_NEAR(sv.probabilityOfOne(0), sv.probabilityOfOne(1), 1e-12);
}

TEST(StatevectorSimulatorTest, EvolveWithMeasurementsPostSelects)
{
    // A possible PostSelect conditions the kept trajectory: the state
    // comes back projected onto the selected branch.
    Circuit c(2, 1);
    c.h(0).cx(0, 1).postSelect(0, 1).measure(1, 0);
    StatevectorSimulator sim(29);
    const StateVector sv = sim.evolveWithMeasurements(c);
    EXPECT_NEAR(std::abs(sv.amplitude(0b11)), 1.0, 1e-12);

    // An impossible one discards every attempt.
    Circuit never(1);
    never.postSelect(0, 1);
    EXPECT_THROW(sim.evolveWithMeasurements(never), SimulationError);
}

TEST(StatevectorSimulatorTest, SeedReproducibility)
{
    Circuit c(1, 1);
    c.h(0).measure(0, 0);
    StatevectorSimulator a(1234), b(1234);
    const Result ra = a.run(c, 500);
    const Result rb = b.run(c, 500);
    EXPECT_EQ(ra.rawCounts(), rb.rawCounts());
}

TEST(StatevectorSimulatorTest, GhzScalesTo10Qubits)
{
    Circuit c(10, 10);
    c.h(0);
    for (Qubit q = 0; q + 1 < 10; ++q)
        c.cx(q, q + 1);
    c.measureAll();
    StatevectorSimulator sim(5);
    const Result r = sim.run(c, 2000);
    const std::uint64_t all_ones = (std::uint64_t{1} << 10) - 1;
    EXPECT_EQ(r.count(std::uint64_t{0}) + r.count(all_ones), 2000u);
    EXPECT_NEAR(r.probability(std::uint64_t{0}), 0.5, 0.05);
}

TEST(StatevectorSimulatorTest, ZeroShotsRetainEverything)
{
    Circuit c(2, 2);
    c.h(0).measure(0, 0).reset(0).cx(1, 0).measure(0, 1);
    StatevectorSimulator sim(31);
    const Result r = sim.run(c, 0);
    EXPECT_EQ(r.shots(), 0u);
    EXPECT_TRUE(r.rawCounts().empty());
    EXPECT_EQ(r.retainedFraction(), 1.0);
}

/**
 * perf_engine's per-shot workload: a random layer of H, T, RY and CX,
 * a mid-circuit measurement and reset of qubit 0 (a PostSelect of
 * qubit 1 after an H, when @p postselect), a second random layer and
 * terminal measurements of every qubit.
 */
Circuit
midCircuitWorkload(std::size_t n, std::size_t gates, std::uint64_t seed,
                   bool postselect)
{
    Circuit c(n, n);
    Rng gen(seed);
    auto random_layer = [&](std::size_t count) {
        for (std::size_t i = 0; i < count; ++i) {
            const Qubit q = static_cast<Qubit>(gen.below(n));
            switch (gen.below(4)) {
              case 0: c.h(q); break;
              case 1: c.t(q); break;
              case 2: c.ry(gen.uniform() * M_PI, q); break;
              default:
                c.cx(q, static_cast<Qubit>(
                            (q + 1 + gen.below(n - 1)) % n));
            }
        }
    };
    random_layer(gates / 2);
    if (postselect)
        c.h(1).postSelect(1, 1);
    c.measure(0, 0);
    c.reset(0);
    random_layer(gates - gates / 2);
    c.measureAll();
    return c;
}

// Pinned before the shot loop evolved the shot-independent prefix once:
// the noiseless per-shot path's raw counts, retained fraction and
// evolveWithMeasurements' amplitudes must stay bit for bit. Never
// re-pin.
TEST(ShotLoopGolden, NoiselessMidCircuitCountsAndAmplitudes)
{
    const struct
    {
        std::size_t n;
        bool postselect;
        std::uint64_t digest;
    } cases[] = {
        {4, false, 0x5e03ea0ec79fa933ULL},
        {6, false, 0x2cfa80d6e3e47e81ULL},
        {8, true, 0x23c49435c25d12a9ULL},
        {10, false, 0x82a5496472c5dec5ULL},
        {12, false, 0xf0129333a2bffb70ULL},
    };
    for (const auto &tc : cases) {
        const Circuit c =
            midCircuitWorkload(tc.n, 64, 500 + tc.n, tc.postselect);
        StatevectorSimulator sim(600 + tc.n);
        const Result r = sim.run(c, 64);
        std::uint64_t h = kFnv1aOffset;
        for (const auto &[key, count] : r.rawCounts())
            h = fnv1aMix64(fnv1aMix64(h, key), count);
        h = fnv1aMix64(
            h, std::bit_cast<std::uint64_t>(r.retainedFraction()));
        const StateVector psi = sim.evolveWithMeasurements(c);
        for (const Complex &a : psi.amplitudes())
            h = fnv1aMix64(
                fnv1aMix64(h, std::bit_cast<std::uint64_t>(a.real())),
                std::bit_cast<std::uint64_t>(a.imag()));
        EXPECT_EQ(h, tc.digest)
            << "n = " << tc.n << ": digest 0x" << std::hex << h;
    }
}

} // namespace
} // namespace qra
