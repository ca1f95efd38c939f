/** @file Tests for the ideal shot-based simulator. */

#include <gtest/gtest.h>

#include "common/error.hh"
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

} // namespace
} // namespace qra
