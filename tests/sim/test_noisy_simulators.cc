/** @file Tests for the density-matrix and trajectory noisy engines. */

#include <bit>
#include <cmath>

#include <gtest/gtest.h>

#include "common/error.hh"
#include "common/hash.hh"
#include "noise/device_model.hh"
#include "sim/density_simulator.hh"
#include "sim/statevector_simulator.hh"
#include "sim/trajectory_simulator.hh"
#include "stats/distance.hh"

namespace qra {
namespace {

NoiseModel
simpleNoise()
{
    NoiseModel noise;
    noise.setGateError(OpKind::CX, 0.05);
    noise.setGateError(OpKind::H, 0.002);
    noise.setReadoutError(0, ReadoutError(0.02, 0.04));
    noise.setReadoutError(1, ReadoutError(0.02, 0.04));
    return noise;
}

TEST(DensitySimulatorTest, IdealBellDistribution)
{
    Circuit c(2, 2);
    c.h(0).cx(0, 1).measureAll();
    DensityMatrixSimulator sim(3);
    const auto dist = sim.exactDistribution(c);
    EXPECT_NEAR(dist.at(0b00), 0.5, 1e-10);
    EXPECT_NEAR(dist.at(0b11), 0.5, 1e-10);
    EXPECT_EQ(dist.count(0b01), 0u);
}

TEST(DensitySimulatorTest, RunCarriesExactDistribution)
{
    Circuit c(1, 1);
    c.h(0).measure(0, 0);
    DensityMatrixSimulator sim(5);
    const Result r = sim.run(c, 1000);
    ASSERT_TRUE(r.exactDistribution().has_value());
    EXPECT_NEAR(r.exactDistribution()->at(0), 0.5, 1e-10);
    EXPECT_EQ(r.shots(), 1000u);
}

TEST(DensitySimulatorTest, UnmeasuredQubitsAreMarginalised)
{
    Circuit c(2, 1);
    c.h(0).cx(0, 1).measure(1, 0);
    DensityMatrixSimulator sim(7);
    const auto dist = sim.exactDistribution(c);
    EXPECT_NEAR(dist.at(0), 0.5, 1e-10);
    EXPECT_NEAR(dist.at(1), 0.5, 1e-10);
}

TEST(DensitySimulatorTest, GateNoiseShowsInDistribution)
{
    Circuit c(2, 2);
    c.h(0).cx(0, 1).measureAll();
    NoiseModel noise;
    noise.setGateError(OpKind::CX, 0.1);
    DensityMatrixSimulator sim(9);
    sim.setNoiseModel(&noise);
    const auto dist = sim.exactDistribution(c);
    // Error outcomes 01/10 appear with noticeable probability.
    EXPECT_GT(dist.at(0b01), 0.005);
    EXPECT_GT(dist.at(0b10), 0.005);
    double total = 0.0;
    for (const auto &[k, p] : dist)
        total += p;
    EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(DensitySimulatorTest, RetainedFractionMatchesStatevector)
{
    // Keep q1 == 1 of RY(0.9)|0> entangled onto q1: the kept fraction
    // is sin^2(0.45) on every backend that post-selects.
    Circuit c(2, 2);
    c.ry(0.9, 0).cx(0, 1).postSelect(1, 1).measureAll();
    DensityMatrixSimulator density(3);
    StatevectorSimulator statevector(3);
    const Result exact = density.run(c, 256);
    const Result sampled = statevector.run(c, 256);
    EXPECT_NEAR(exact.retainedFraction(), std::pow(std::sin(0.45), 2),
                1e-12);
    EXPECT_NEAR(exact.retainedFraction(), sampled.retainedFraction(),
                1e-12);
}

TEST(DensitySimulatorTest, ReadoutErrorOnDeterministicState)
{
    Circuit c(1, 1);
    c.x(0).measure(0, 0);
    NoiseModel noise;
    noise.setReadoutError(0, ReadoutError(0.0, 0.1));
    DensityMatrixSimulator sim(11);
    sim.setNoiseModel(&noise);
    const auto dist = sim.exactDistribution(c);
    EXPECT_NEAR(dist.at(0), 0.1, 1e-10);
    EXPECT_NEAR(dist.at(1), 0.9, 1e-10);
}

TEST(DensitySimulatorTest, RelaxationDuringIdle)
{
    // Qubit 1 idles while qubit 0 runs many gates; with T1 noise its
    // excited state decays even though nothing touches it.
    Circuit c(2, 1);
    c.x(1);
    for (int i = 0; i < 50; ++i)
        c.x(0).x(0);
    // Fence so the measurement happens after the idle window rather
    // than being scheduled ASAP into the first moments.
    c.barrier();
    c.measure(1, 0);

    NoiseModel noise;
    noise.setGateDuration(OpKind::X, 1000.0);
    noise.setQubitRelaxation(1, 20000.0, 20000.0);
    DensityMatrixSimulator sim(13);
    sim.setNoiseModel(&noise);
    const auto dist = sim.exactDistribution(c);
    // ~101 us of idling at T1 = 20 us: survival well below 1.
    EXPECT_LT(dist.at(1), 0.05);
}

TEST(DensitySimulatorTest, MeasuredQubitReuseBranchesOnRecord)
{
    // The first read is a record branch; flipping the collapsed qubit
    // makes the second read its complement.
    Circuit c(1, 2);
    c.h(0).measure(0, 0).x(0).measure(0, 1);
    DensityMatrixSimulator sim(15);
    const auto dist = sim.exactDistribution(c);
    ASSERT_EQ(dist.size(), 2u);
    EXPECT_NEAR(dist.at(0b10), 0.5, 1e-12);
    EXPECT_NEAR(dist.at(0b01), 0.5, 1e-12);
}

TEST(DensitySimulatorTest, AncillaReuseRecordsAgree)
{
    // Measure, reset, reuse: both reads of the Bell partner agree.
    Circuit c(2, 2);
    c.h(0).cx(0, 1).measure(1, 0).reset(1).cx(0, 1).measure(1, 1);
    DensityMatrixSimulator sim(16);
    const auto dist = sim.exactDistribution(c);
    ASSERT_EQ(dist.size(), 2u);
    EXPECT_NEAR(dist.at(0b00), 0.5, 1e-12);
    EXPECT_NEAR(dist.at(0b11), 0.5, 1e-12);
}

TEST(DensitySimulatorTest, FinalStateTracesOutRecords)
{
    // |0> and |1> records, each rotated by H: the sum is I/2.
    Circuit c(1, 1);
    c.h(0).measure(0, 0).h(0);
    DensityMatrixSimulator sim(18);
    const Matrix rho = sim.finalState(c).matrix();
    EXPECT_NEAR(rho(0, 0).real(), 0.5, 1e-12);
    EXPECT_NEAR(rho(1, 1).real(), 0.5, 1e-12);
    EXPECT_NEAR(std::abs(rho(0, 1)), 0.0, 1e-12);
}

TEST(DensitySimulatorTest, PostSelectRenormalisesAcrossBranches)
{
    // The record of q0 is copied onto q1, then q1 == 1 is kept: only
    // the record-1 branch survives, with weight sin^2(0.45).
    Circuit c(2, 2);
    c.ry(0.9, 0).measure(0, 0).cx(0, 1).postSelect(1, 1).measure(1, 1);
    DensityMatrixSimulator sim(20);
    const Result r = sim.run(c, 64);
    ASSERT_EQ(r.exactDistribution()->size(), 1u);
    EXPECT_NEAR(r.exactDistribution()->at(0b11), 1.0, 1e-12);
    EXPECT_NEAR(r.retainedFraction(), std::pow(std::sin(0.45), 2), 1e-12);
}

TEST(DensitySimulatorTest, ReadoutFoldedOncePerClbit)
{
    // Clbit 0 is written by q0 and then by q1: only q1's read counts,
    // through q1's confusion alone. By hand: X's depolarising leaves
    // |1> with 1 - 2p/3, the 1000 ns measure moment of q0 relaxes q1
    // (T1 = 44 us), and q1 reads 0 with 0.030 from |1>, 0.982 from |0>.
    const DeviceModel device = DeviceModel::ibmqx4();
    Circuit c(2, 1);
    c.x(1).measure(0, 0).measure(1, 0);
    DensityMatrixSimulator sim(22);
    sim.setNoiseModel(&device.noiseModel());
    const auto dist = sim.exactDistribution(c);
    const double p1 =
        (1.0 - 2.0 * 1.2e-3 / 3.0) * std::exp(-1000.0 / 44000.0);
    EXPECT_NEAR(dist.at(0), p1 * 0.030 + (1.0 - p1) * 0.982, 1e-12);
    EXPECT_NEAR(dist.at(0) + dist.at(1), 1.0, 1e-12);
}

TEST(DensitySimulatorTest, BranchLimitThrows)
{
    // Seven records exceed the 2^6 branch cap.
    Circuit c(1, 1);
    for (int i = 0; i < 7; ++i)
        c.h(0).measure(0, 0);
    c.h(0).measure(0, 0);
    DensityMatrixSimulator sim(24);
    EXPECT_THROW(sim.exactDistribution(c), SimulationError);
    EXPECT_EQ(DensityMatrixSimulator::branchLimitReason(5, 6), "");
    EXPECT_NE(DensityMatrixSimulator::branchLimitReason(5, 7), "");
    EXPECT_NE(DensityMatrixSimulator::branchLimitReason(12, 1), "");
}

TEST(DensitySimulatorTest, MidCircuitMeasureOfAncillaWorks)
{
    // Ancilla measured mid-circuit, then only OTHER qubits evolve:
    // exactly the paper's assertion pattern.
    Circuit c(2, 2);
    c.h(0).cx(0, 1).measure(1, 1).h(0).measure(0, 0);
    DensityMatrixSimulator sim(17);
    const auto dist = sim.exactDistribution(c);
    double total = 0.0;
    for (const auto &[k, p] : dist)
        total += p;
    EXPECT_NEAR(total, 1.0, 1e-9);
    // After measuring q1, q0 collapses to a classical state; H gives
    // 50/50 on q0 independent of q1's bit.
    EXPECT_NEAR(dist.at(0b00) + dist.at(0b01), 0.5, 1e-9);
}

TEST(DensitySimulatorTest, ImpossiblePostSelectThrows)
{
    Circuit c(1, 1);
    c.postSelect(0, 1).measure(0, 0); // |0> post-selected on 1
    DensityMatrixSimulator sim(21);
    EXPECT_THROW(sim.exactDistribution(c), SimulationError);
}

TEST(DensitySimulatorTest, PostSelectTracksRetainedFraction)
{
    Circuit c(1, 1);
    c.h(0).postSelect(0, 0).measure(0, 0);
    DensityMatrixSimulator sim(19);
    const auto dist = sim.exactDistribution(c);
    EXPECT_NEAR(dist.at(0), 1.0, 1e-10);
}

TEST(TrajectorySimulatorTest, IdealMatchesStatevector)
{
    Circuit c(2, 2);
    c.h(0).cx(0, 1).measureAll();
    TrajectorySimulator sim(21);
    const Result r = sim.run(c, 5000);
    EXPECT_NEAR(r.probability(std::uint64_t{0b00}), 0.5, 0.03);
    EXPECT_NEAR(r.probability(std::uint64_t{0b11}), 0.5, 0.03);
    EXPECT_EQ(r.count(0b01) + r.count(0b10), 0u);
}

TEST(TrajectorySimulatorTest, AgreesWithDensityUnderNoise)
{
    Circuit c(2, 2);
    c.h(0).cx(0, 1).measureAll();
    const NoiseModel noise = simpleNoise();

    DensityMatrixSimulator exact(23);
    exact.setNoiseModel(&noise);
    const auto dist = exact.exactDistribution(c);

    TrajectorySimulator mc(25);
    mc.setNoiseModel(&noise);
    const Result r = mc.run(c, 20000);

    stats::Distribution empirical;
    for (const auto &[k, n] : r.rawCounts())
        empirical[k] = double(n) / double(r.shots());
    stats::Distribution exact_dist(dist.begin(), dist.end());

    EXPECT_LT(stats::totalVariation(empirical, exact_dist), 0.02);
}

TEST(TrajectorySimulatorTest, HandlesAncillaReuse)
{
    // Measure, reset, reuse.
    Circuit c(2, 2);
    c.h(0).cx(0, 1).measure(1, 0).reset(1).cx(0, 1).measure(1, 1);
    TrajectorySimulator sim(27);
    const Result r = sim.run(c, 3000);
    // Bits 0 and 1 must agree (same Bell branch measured twice).
    for (const auto &[key, n] : r.rawCounts()) {
        EXPECT_EQ(key & 1, (key >> 1) & 1) << key;
    }
}

TEST(TrajectorySimulatorTest, ReadoutFlipsApplied)
{
    Circuit c(1, 1);
    c.x(0).measure(0, 0);
    NoiseModel noise;
    noise.setReadoutError(0, ReadoutError(0.0, 0.25));
    TrajectorySimulator sim(29);
    sim.setNoiseModel(&noise);
    const Result r = sim.run(c, 20000);
    EXPECT_NEAR(r.probability(std::uint64_t{0}), 0.25, 0.02);
}

TEST(TrajectorySimulatorTest, PostSelectDiscardsAndReports)
{
    Circuit c(1, 1);
    c.h(0).postSelect(0, 1).measure(0, 0);
    TrajectorySimulator sim(31);
    const Result r = sim.run(c, 1000);
    EXPECT_EQ(r.count(std::uint64_t{1}), 1000u);
    EXPECT_NEAR(r.retainedFraction(), 0.5, 0.06);
}

TEST(TrajectorySimulatorTest, ImpossiblePostSelectThrows)
{
    Circuit c(1, 1);
    c.postSelect(0, 1).measure(0, 0); // |0> post-selected on 1
    TrajectorySimulator sim(33);
    EXPECT_THROW(sim.run(c, 10), SimulationError);
}

TEST(TrajectorySimulatorTest, RelaxationDecaysExcitedState)
{
    Circuit c(1, 1);
    c.x(0);
    for (int i = 0; i < 20; ++i)
        c.i(0);
    c.measure(0, 0);
    NoiseModel noise;
    noise.setGateDuration(OpKind::I, 5000.0);
    noise.setGateDuration(OpKind::X, 100.0);
    noise.setQubitRelaxation(0, 50000.0, 50000.0);
    TrajectorySimulator sim(35);
    sim.setNoiseModel(&noise);
    const Result r = sim.run(c, 5000);
    // 100 us at T1 = 50 us: survival ~ exp(-2) ~ 0.135.
    EXPECT_NEAR(r.probability(std::uint64_t{1}), std::exp(-2.0), 0.05);
}

TEST(IbmqxDeviceSmokeTest, BellOnIbmqx4HasErrorsButMostlyCorrect)
{
    const DeviceModel device = DeviceModel::ibmqx4();
    Circuit c(5, 2);
    c.h(1).cx(1, 0).measure(1, 0).measure(0, 1);
    DensityMatrixSimulator sim(37);
    sim.setNoiseModel(&device.noiseModel());
    const auto dist = sim.exactDistribution(c);
    const double correct = dist.at(0b00) + dist.at(0b11);
    EXPECT_GT(correct, 0.85);
    EXPECT_LT(correct, 0.999);
}

TEST(TrajectorySimulatorTest, ZeroShotsRetainEverything)
{
    Circuit c(2, 2);
    c.h(0).measure(0, 0).reset(0).cx(1, 0).measure(0, 1);
    TrajectorySimulator sim(37);
    const Result r = sim.run(c, 0);
    EXPECT_EQ(r.shots(), 0u);
    EXPECT_TRUE(r.rawCounts().empty());
    EXPECT_EQ(r.retainedFraction(), 1.0);
}

TEST(TrajectorySimulatorTest, FirstEntryDraws)
{
    // The first plan entry already draws, so no entry runs before the
    // shot loop.
    Circuit post(1, 1);
    post.postSelect(0, 0).h(0).measure(0, 0);
    TrajectorySimulator sim(39);
    const Result r = sim.run(post, 2000);
    EXPECT_EQ(r.retainedFraction(), 1.0);
    EXPECT_NEAR(r.probability(std::uint64_t{1}), 0.5, 0.05);

    Circuit measured(1, 2);
    measured.measure(0, 0).x(0).measure(0, 1);
    const Result m = sim.run(measured, 100);
    EXPECT_EQ(m.count(std::uint64_t{0b10}), 100u);
    EXPECT_NEAR(std::abs(sim.evolveOne(measured).amplitude(1)), 1.0,
                1e-12);
}

TEST(TrajectorySimulatorTest, NothingDraws)
{
    // No measurement at all: the whole plan is the shared prefix.
    Circuit c(2, 1);
    c.h(0).cx(0, 1).barrier();
    TrajectorySimulator sim(41);
    const Result r = sim.run(c, 10);
    EXPECT_EQ(r.count(std::uint64_t{0}), 10u);
    EXPECT_EQ(r.retainedFraction(), 1.0);
    const StateVector psi = sim.evolveOne(c);
    EXPECT_NEAR(std::abs(psi.amplitude(0b00)), std::sqrt(0.5), 1e-12);
    EXPECT_NEAR(std::abs(psi.amplitude(0b11)), std::sqrt(0.5), 1e-12);
}

TEST(TrajectorySimulatorTest, EveryAttemptDiscardedMessages)
{
    // The discarding PostSelect follows a unitary prefix.
    Circuit c(2, 1);
    c.x(0).cx(0, 1).postSelect(1, 0).measure(0, 0);
    TrajectorySimulator sim(43);
    try {
        sim.run(c, 10);
        FAIL() << "run kept a shot";
    } catch (const SimulationError &e) {
        EXPECT_STREQ(e.what(), "post-selection discarded nearly every "
                               "shot; circuit is inconsistent");
    }
    try {
        sim.evolveOne(c);
        FAIL() << "evolveOne kept an attempt";
    } catch (const SimulationError &e) {
        EXPECT_STREQ(e.what(),
                     "post-selection discarded every attempt");
    }
}

// Pinned before the shot loop evolved the shot-independent prefix once:
// noisy trajectories draw from their first noise site on, and their
// raw counts and retained fraction must stay bit for bit. The
// simpleNoise run has a noiseless X/S prefix before its first H. Never
// re-pin.
TEST(ShotLoopGolden, NoisyTrajectoryCounts)
{
    const DeviceModel device = DeviceModel::ibmqx4();
    const NoiseModel simple = simpleNoise();
    Circuit c(5, 4);
    c.x(1).s(2).x(3).h(0).cx(0, 1).cx(1, 2).measure(2, 0).reset(2);
    c.h(3).cx(3, 4).postSelect(3, 1).cx(0, 2).measure(0, 1);
    c.measure(1, 2).measure(4, 3);
    const struct
    {
        const NoiseModel *noise;
        std::uint64_t digest;
    } cases[] = {
        {&device.noiseModel(), 0xa0b0da7c71ff542cULL},
        {&simple, 0xf4c34cf704985be2ULL},
    };
    for (const auto &tc : cases) {
        TrajectorySimulator sim(45);
        sim.setNoiseModel(tc.noise);
        const Result r = sim.run(c, 300);
        std::uint64_t h = kFnv1aOffset;
        for (const auto &[key, count] : r.rawCounts())
            h = fnv1aMix64(fnv1aMix64(h, key), count);
        h = fnv1aMix64(
            h, std::bit_cast<std::uint64_t>(r.retainedFraction()));
        EXPECT_EQ(h, tc.digest) << "digest 0x" << std::hex << h;
    }
}

} // namespace
} // namespace qra
