/** @file Tests for the ideal shot-based simulator. */

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "assertions/directives.hh"
#include "circuit/qasm.hh"
#include "common/error.hh"
#include "common/hash.hh"
#include "compile/pipelines.hh"
#include "noise/device_model.hh"
#include "sim/density_simulator.hh"
#include "sim/statevector_simulator.hh"
#include "stats/chi_square.hh"
#include "paper_circuits.hh"
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
}

TEST(StatevectorSimulatorTest, RepeatedTerminalReadRepeatsTheBit)
{
    // A qubit measured twice with nothing between: the noiseless
    // second read repeats the first, so the run samples the final
    // state once (SampledOracle checks the stream draw for draw).
    Circuit twice(1, 2);
    twice.h(0).measure(0, 0).measure(0, 1);
    StatevectorSimulator sim(7);
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

// ---- sampled execution against its oracle ------------------------------

/** Each terminal Measure's (qubit, clbit), in program order. */
std::vector<std::pair<Qubit, Clbit>>
measurements(const Circuit &c)
{
    std::vector<std::pair<Qubit, Clbit>> out;
    for (const Operation &op : c.ops())
        if (op.kind == OpKind::Measure)
            out.emplace_back(op.qubits[0], *op.clbit);
    return out;
}

/**
 * @p shots counts drawn by the oracle: sampleDiscrete over the final
 * state's probabilities() (every qubit measured, in wire order) or its
 * marginalProbabilities over the distinct measured qubits, one draw
 * per shot from @p rng, each key read through the clbit wiring (a
 * later measurement of a clbit overwrites an earlier one).
 */
Result
oracleSampled(const Circuit &c, Rng &rng, std::size_t shots)
{
    const StateVector psi = StatevectorSimulator(0).finalState(c);
    std::vector<Qubit> measured;
    std::vector<std::pair<std::size_t, Clbit>> wiring;
    for (const auto &[q, clbit] : measurements(c)) {
        const auto it = std::find(measured.begin(), measured.end(), q);
        wiring.emplace_back(it - measured.begin(), clbit);
        if (it == measured.end())
            measured.push_back(q);
    }
    bool identity = measured.size() == c.numQubits();
    for (std::size_t j = 0; identity && j < measured.size(); ++j)
        identity = measured[j] == j;
    const std::vector<double> probs =
        identity ? psi.probabilities()
                 : psi.marginalProbabilities(measured);

    Result r(c.numClbits());
    for (std::size_t s = 0; s < shots; ++s) {
        const std::uint64_t key = sampleDiscrete(probs, rng);
        std::uint64_t reg = 0;
        for (const auto &[j, clbit] : wiring) {
            const std::uint64_t bit = std::uint64_t{1} << clbit;
            reg = ((key >> j) & 1) ? (reg | bit) : (reg & ~bit);
        }
        r.record(reg);
    }
    return r;
}

/**
 * Circuits that read a measured qubit again and touch it with nothing
 * else: each read is terminal, and the reads agree.
 */
std::vector<std::pair<const char *, Circuit>>
rereadCircuits()
{
    std::vector<std::pair<const char *, Circuit>> out;
    Circuit twice(1, 2);
    twice.h(0).measure(0, 0).measure(0, 1);
    out.emplace_back("one qubit read twice", twice);

    Circuit reread(4, 3);
    reread.h(0).cx(0, 3).ry(1.2, 1).cx(1, 3).ry(0.5, 2).cx(3, 2);
    reread.measure(3, 0).measure(3, 2).measure(1, 1);
    out.emplace_back("q[3] read into c[0] and c[2]", reread);
    return out;
}

/** Terminal-only circuits covering each shape of sampled execution. */
std::vector<std::pair<const char *, Circuit>>
terminalCircuits()
{
    std::vector<std::pair<const char *, Circuit>> out = rereadCircuits();
    Circuit all(5, 5);
    all.h(0).cx(0, 1).cx(1, 2).ry(0.4, 3).cx(2, 4).rz(0.9, 4).t(3).h(3);
    all.measureAll();
    out.emplace_back("identity", all);

    Circuit subset(6, 3);
    subset.h(0).cx(0, 3).ry(0.8, 5).cx(3, 5).h(2).ry(1.3, 4);
    subset.measure(4, 0).measure(1, 1).measure(5, 2);
    out.emplace_back("scrambled subset", subset);

    // Every qubit, out of wire order, and a clbit written twice.
    Circuit permuted(4, 4);
    permuted.h(0).ry(0.7, 1).cx(0, 2).ry(2.1, 3).cx(1, 3);
    permuted.measure(3, 0).measure(0, 1).measure(2, 3).measure(1, 1);
    out.emplace_back("permuted, clbit rewritten", permuted);

    Circuit post(4, 3);
    post.h(0).cx(0, 1).ry(1.1, 2).cx(2, 3).h(3).postSelect(3, 1);
    post.measure(2, 0).measure(0, 1).measure(1, 2);
    out.emplace_back("post-selected subset", post);

    Circuit post_all(3, 3);
    post_all.h(0).ry(0.9, 1).cx(0, 2).cx(1, 2).postSelect(2, 0);
    post_all.measureAll();
    out.emplace_back("post-selected identity", post_all);
    return out;
}

/** Keys of @p c's sampled marginal: 2^(distinct measured qubits). */
std::size_t
marginalKeys(const Circuit &c)
{
    std::vector<Qubit> measured;
    for (const auto &[q, clbit] : measurements(c))
        if (std::find(measured.begin(), measured.end(), q) == measured.end())
            measured.push_back(q);
    return std::size_t{1} << measured.size();
}

// Below CumulativeSampler's split the counts are the oracle's draws;
// the largest shot count there pins the boundary.
TEST(SampledOracle, CountsAreSampleDiscreteDrawForDraw)
{
    for (const auto &[name, c] : terminalCircuits()) {
        const std::size_t shots =
            CumulativeSampler::kSplitShotsPerKey * marginalKeys(c) - 1;
        const std::size_t again = std::min<std::size_t>(64, shots);
        for (const std::uint64_t seed : {3u, 71u, 2024u}) {
            StatevectorSimulator sim(seed);
            Rng rng(seed);
            EXPECT_EQ(sim.run(c, shots).rawCounts(),
                      oracleSampled(c, rng, shots).rawCounts())
                << name << " seed " << seed;
            // One uniform per shot and nothing else: a second run
            // continues exactly where the oracle's stream is.
            EXPECT_EQ(sim.run(c, again).rawCounts(),
                      oracleSampled(c, rng, again).rawCounts())
                << name << " seed " << seed << " second run";
        }
    }
}

// From the split on, the counts are drawn by binomial splits: they fit
// the density backend's exact distribution (1e-6 false-alarm rate per
// fit), post-selected and re-read registers included.
TEST(SampledOracle, SplitCountsFitTheDensityReference)
{
    for (const auto &[name, c] : terminalCircuits()) {
        const auto exact = DensityMatrixSimulator().exactDistribution(c);
        const stats::Distribution reference(exact.begin(), exact.end());
        for (const std::size_t shots :
             {CumulativeSampler::kSplitShotsPerKey * marginalKeys(c),
              std::size_t{8192}})
            for (const std::uint64_t seed : {3u, 71u, 2024u}) {
                const Result r = StatevectorSimulator(seed).run(c, shots);
                EXPECT_EQ(r.shots(), shots) << name;
                EXPECT_GE(
                    stats::pooledChiSquareTest(r.rawCounts(), reference)
                        .pValue,
                    1e-6)
                    << name << " shots " << shots << " seed " << seed;
            }
    }
}

/**
 * The exact register distribution of a terminal-only circuit: the
 * final state's basis probabilities read through the clbit wiring.
 */
stats::Distribution
exactRegister(const Circuit &c)
{
    const std::vector<double> probs =
        StatevectorSimulator(0).finalState(c).probabilities();
    const auto wiring = measurements(c);
    stats::Distribution dist;
    for (std::uint64_t basis = 0; basis < probs.size(); ++basis) {
        if (probs[basis] == 0.0)
            continue;
        std::uint64_t reg = 0;
        for (const auto &[q, clbit] : wiring) {
            const std::uint64_t bit = std::uint64_t{1} << clbit;
            reg = ((basis >> q) & 1) ? (reg | bit) : (reg & ~bit);
        }
        dist[reg] += probs[basis];
    }
    return dist;
}

/** Counts or probabilities keyed by the register bits in @p mask. */
template <typename Map>
Map
project(const Map &by_register, std::uint64_t mask)
{
    Map out;
    for (const auto &[reg, value] : by_register)
        out[reg & mask] += value;
    return out;
}

/**
 * An sv_sweep-shaped job: 13 payload qubits with a GHZ(3) block, a
 * |+> and a |1> qubit, each checked, then 16 layers of ry/rz on every
 * qubit and a CX ladder, measured; prepared with its three checks, it
 * is 16 qubits.
 */
Circuit
sweepAnsatz(std::uint64_t seed)
{
    const std::size_t n = 13;
    std::string text = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[13];"
                       "\ncreg c[13];\n"
                       "h q[0];\ncx q[0],q[1];\ncx q[1],q[2];\n"
                       "// qra:assert-entangled q[0], q[1], q[2]\n"
                       "h q[3];\n// qra:assert-superposition q[3]\n"
                       "x q[4];\n// qra:assert-classical q[4] == 1\n";
    Rng rng(seed);
    const auto q = [](std::size_t k) {
        return "q[" + std::to_string(k) + "]";
    };
    for (int layer = 0; layer < 16; ++layer) {
        for (std::size_t k = 0; k < n; ++k) {
            text += "ry(" + std::to_string(rng.uniform() * 2 * M_PI) +
                    ") " + q(k) + ";\n";
            text += "rz(" + std::to_string(rng.uniform() * 2 * M_PI) +
                    ") " + q(k) + ";\n";
        }
        for (std::size_t k = 0; k + 1 < n; ++k)
            text += "cx " + q(k) + "," + q(k + 1) + ";\n";
    }
    for (std::size_t k = 0; k < n; ++k)
        text += "measure " + q(k) + " -> c[" + std::to_string(k) + "];\n";
    const AnnotatedProgram program = parseAnnotatedQasm(text);
    compile::PrepareSpec prep;
    prep.assertions = program.specs;
    return compile::prepare(program.payload, prep).circuit;
}

// Sampled counts fit the exact distribution (1e-6 false-alarm rate per
// test): the whole register, where pooling keeps every impossible
// outcome as a rejection, and 4-clbit windows, where 1024 shots give
// each of the 16 outcomes enough expected draws to test.
TEST(SampledOracle, SweepAnsatzCountsFitTheExactDistribution)
{
    for (const std::uint64_t seed : {1u, 2u}) {
        const Circuit c = sweepAnsatz(seed);
        ASSERT_EQ(c.numQubits(), 16u);
        const stats::Distribution exact = exactRegister(c);
        const Result r = StatevectorSimulator(seed).run(c, 1024);
        EXPECT_GE(stats::pooledChiSquareTest(r.rawCounts(), exact).pValue,
                  1e-6)
            << "seed " << seed;
        for (std::size_t low = 0; low + 4 <= c.numClbits(); low += 4) {
            const std::uint64_t mask = std::uint64_t{0xf} << low;
            EXPECT_GE(stats::pooledChiSquareTest(
                          project(r.rawCounts(), mask),
                          project(exact, mask))
                          .pValue,
                      1e-6)
                << "seed " << seed << " clbits " << low << "..";
        }
    }
}

TEST(SampledOracle, PaperCircuitCountsFitTheDensityReference)
{
    // The paper_ibmqx4 kinds as prepared for ibmqx4, noiseless, and
    // the re-read circuits (density records their first read as a
    // mid-circuit measurement, the statevector samples once): the
    // sampled statevector against the density backend's exact
    // distribution.
    const DeviceModel device = DeviceModel::ibmqx4();
    std::vector<std::pair<std::string, Circuit>> cases =
        test::paperPreparedShapes(device, false);
    for (const auto &[name, c] : rereadCircuits())
        cases.emplace_back(name, c);
    for (const auto &[name, c] : cases) {
        const auto exact = DensityMatrixSimulator().exactDistribution(c);
        const stats::Distribution reference(exact.begin(), exact.end());
        for (const std::uint64_t seed : {1u, 2u}) {
            const Result r = StatevectorSimulator(seed).run(c, 8192);
            EXPECT_GE(stats::pooledChiSquareTest(r.rawCounts(), reference)
                          .pValue,
                      1e-6)
                << name << " seed " << seed;
        }
    }
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
