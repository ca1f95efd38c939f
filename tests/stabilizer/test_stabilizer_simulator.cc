/** @file Tests for the stabilizer shot simulator, including
 *  cross-backend agreement with the state vector. */

#include <bit>
#include <string>

#include <gtest/gtest.h>

#include "common/error.hh"
#include "common/hash.hh"
#include "sim/statevector_simulator.hh"
#include "stabilizer/stabilizer_simulator.hh"
#include "stats/distance.hh"

namespace qra {
namespace {

stats::Distribution
toDist(const Result &r)
{
    stats::Distribution d;
    for (const auto &[k, n] : r.rawCounts())
        d[k] = double(n) / double(r.shots());
    return d;
}

TEST(StabilizerSimulatorTest, SupportsPredicate)
{
    Circuit clifford(2, 2);
    clifford.h(0).cx(0, 1).s(1).measureAll();
    EXPECT_TRUE(StabilizerSimulator::supports(clifford));

    Circuit nonclifford(1, 1);
    nonclifford.t(0).measure(0, 0);
    EXPECT_FALSE(StabilizerSimulator::supports(nonclifford));
}

TEST(StabilizerSimulatorTest, DeterministicCircuit)
{
    Circuit c(2, 2);
    c.x(0).measureAll();
    StabilizerSimulator sim(1);
    const Result r = sim.run(c, 100);
    EXPECT_EQ(r.count(std::uint64_t{0b01}), 100u);
}

TEST(StabilizerSimulatorTest, BellAgreesWithStatevector)
{
    Circuit c(2, 2);
    c.h(0).cx(0, 1).measureAll();

    StabilizerSimulator stab(3);
    StatevectorSimulator sv(3);
    const Result r_stab = stab.run(c, 20000);
    const Result r_sv = sv.run(c, 20000);

    EXPECT_LT(stats::totalVariation(toDist(r_stab), toDist(r_sv)),
              0.02);
    EXPECT_EQ(r_stab.count(0b01) + r_stab.count(0b10), 0u);
}

TEST(StabilizerSimulatorTest, RandomCliffordAgreesWithStatevector)
{
    // Random 4-qubit Clifford circuits: outcome distributions of the
    // two backends must agree.
    Rng gen(2024);
    for (int trial = 0; trial < 5; ++trial) {
        Circuit c(4, 4);
        for (int step = 0; step < 30; ++step) {
            const Qubit q = static_cast<Qubit>(gen.below(4));
            const Qubit r =
                static_cast<Qubit>((q + 1 + gen.below(3)) % 4);
            switch (gen.below(6)) {
              case 0: c.h(q); break;
              case 1: c.s(q); break;
              case 2: c.x(q); break;
              case 3: c.cx(q, r); break;
              case 4: c.cz(q, r); break;
              default: c.sdg(q); break;
            }
        }
        c.measureAll();

        StabilizerSimulator stab(100 + trial);
        StatevectorSimulator sv(200 + trial);
        const Result r_stab = stab.run(c, 20000);
        const Result r_sv = sv.run(c, 20000);
        EXPECT_LT(
            stats::totalVariation(toDist(r_stab), toDist(r_sv)),
            0.03)
            << "trial " << trial;
    }
}

TEST(StabilizerSimulatorTest, MidCircuitMeasureAndReuse)
{
    Circuit c(2, 2);
    c.h(0).cx(0, 1).measure(1, 0).reset(1).cx(0, 1).measure(1, 1);
    StabilizerSimulator sim(5);
    const Result r = sim.run(c, 2000);
    for (const auto &[key, n] : r.rawCounts())
        EXPECT_EQ(key & 1, (key >> 1) & 1) << key;
}

TEST(StabilizerSimulatorTest, PostSelectConditioning)
{
    Circuit c(2, 2);
    c.h(0).cx(0, 1).postSelect(0, 1).measureAll();
    StabilizerSimulator sim(7);
    const Result r = sim.run(c, 1000);
    EXPECT_EQ(r.count(std::uint64_t{0b11}), 1000u);
    EXPECT_NEAR(r.retainedFraction(), 0.5, 0.05);
}

TEST(StabilizerSimulatorTest, ImpossiblePostSelectThrows)
{
    Circuit c(1, 1);
    c.postSelect(0, 1).measure(0, 0);
    StabilizerSimulator sim(9);
    EXPECT_THROW(sim.run(c, 10), SimulationError);
}

TEST(StabilizerSimulatorTest, NonCliffordCircuitThrows)
{
    Circuit c(1, 1);
    c.t(0).measure(0, 0);
    StabilizerSimulator sim(11);
    EXPECT_THROW(sim.run(c, 10), SimulationError);
}

TEST(StabilizerSimulatorTest, LargeGhzWithAssertionAncilla)
{
    // The paper's entanglement assertion at 200 qubits: GHZ-200 plus
    // a parity ancilla with an even CNOT count; the ancilla always
    // reads 0 and the payload stays perfectly correlated.
    const std::size_t n = 200;
    Circuit c(n + 1, 3);
    c.h(0);
    for (Qubit q = 0; q + 1 < n; ++q)
        c.cx(q, q + 1);
    const Qubit anc = static_cast<Qubit>(n);
    c.cx(0, anc).cx(1, anc); // even pair-parity check
    c.measure(anc, 0);
    c.measure(0, 1);
    c.measure(static_cast<Qubit>(n - 1), 2);

    StabilizerSimulator sim(13);
    const Result r = sim.run(c, 500);
    for (const auto &[key, cnt] : r.rawCounts()) {
        EXPECT_EQ(key & 1, 0u) << "assertion fired";
        EXPECT_EQ((key >> 1) & 1, (key >> 2) & 1)
            << "GHZ ends decorrelated";
    }
}

TEST(StabilizerSimulatorTest, EvolveOneReturnsState)
{
    Circuit c(2, 0);
    c.h(0).cx(0, 1);
    StabilizerSimulator sim(15);
    const StabilizerState s = sim.evolveOne(c);
    EXPECT_EQ(s.numQubits(), 2u);
    EXPECT_DOUBLE_EQ(s.probabilityOfOne(0), 0.5);
}

TEST(StabilizerSimulatorTest, ZeroShotsRetainEverything)
{
    Circuit c(2, 2);
    c.h(0).measure(0, 0).reset(0).cx(1, 0).measure(0, 1);
    StabilizerSimulator sim(17);
    const Result r = sim.run(c, 0);
    EXPECT_EQ(r.shots(), 0u);
    EXPECT_TRUE(r.rawCounts().empty());
    EXPECT_EQ(r.retainedFraction(), 1.0);
}

TEST(StabilizerSimulatorTest, FirstOpDraws)
{
    // The first op already draws, so no op runs before the shot loop.
    Circuit post(1, 1);
    post.postSelect(0, 0).h(0).measure(0, 0);
    StabilizerSimulator sim(19);
    const Result r = sim.run(post, 2000);
    EXPECT_EQ(r.retainedFraction(), 1.0);
    EXPECT_NEAR(r.probability(std::uint64_t{1}), 0.5, 0.05);

    Circuit measured(1, 2);
    measured.measure(0, 0).x(0).measure(0, 1);
    const Result m = sim.run(measured, 100);
    EXPECT_EQ(m.count(std::uint64_t{0b10}), 100u);
    EXPECT_EQ(sim.evolveOne(measured).probabilityOfOne(0), 1.0);
}

TEST(StabilizerSimulatorTest, NothingDraws)
{
    // No measurement at all: the whole circuit is the shared prefix.
    Circuit c(2, 1);
    c.h(0).cx(0, 1).barrier();
    StabilizerSimulator sim(21);
    const Result r = sim.run(c, 10);
    EXPECT_EQ(r.count(std::uint64_t{0}), 10u);
    EXPECT_EQ(r.retainedFraction(), 1.0);
    const std::vector<std::string> expected = {"+XX", "+ZZ"};
    EXPECT_EQ(sim.evolveOne(c).stabilizerStrings(), expected);
}

TEST(StabilizerSimulatorTest, EveryAttemptDiscardedMessages)
{
    // The discarding PostSelect follows a unitary prefix.
    Circuit c(2, 1);
    c.x(0).cx(0, 1).postSelect(1, 0).measure(0, 0);
    StabilizerSimulator sim(23);
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

/** A uniformly chosen Clifford gate on @p c's qubits. */
void
appendCliffordGate(Circuit &c, Rng &gen)
{
    const std::size_t n = c.numQubits();
    const Qubit q = static_cast<Qubit>(gen.below(n));
    const Qubit r = static_cast<Qubit>((q + 1 + gen.below(n - 1)) % n);
    switch (gen.below(6)) {
      case 0: c.h(q); break;
      case 1: c.s(q); break;
      case 2: c.x(q); break;
      case 3: c.cz(q, r); break;
      default: c.cx(q, r);
    }
}

/**
 * Seeded Clifford circuit on @p n qubits and 8 clbits, shaped like an
 * auto-asserted job: a unitary prefix of 8n gates, then 2n steps of
 * gates mixed with mid-circuit measurements, resets and one
 * PostSelect of probability 1/2, then 8 terminal measurements.
 */
Circuit
shotLoopCircuit(std::size_t n, std::uint64_t seed)
{
    Rng gen(seed);
    Circuit c(n, 8);
    for (std::size_t step = 0; step < 8 * n; ++step)
        appendCliffordGate(c, gen);
    for (std::size_t step = 0; step < 2 * n; ++step) {
        const Qubit q = static_cast<Qubit>(gen.below(n));
        if (step == n) {
            // The control's Z marginal stays 1/2 through the CX.
            const Qubit r =
                static_cast<Qubit>((q + 1 + gen.below(n - 1)) % n);
            c.reset(q).h(q).cx(q, r).postSelect(
                q, static_cast<int>(gen.below(2)));
        }
        const std::uint64_t action = gen.below(8);
        if (action == 0)
            c.measure(q, static_cast<Clbit>(gen.below(8)));
        else if (action == 1)
            c.reset(q);
        else
            appendCliffordGate(c, gen);
    }
    for (Clbit b = 0; b < 8; ++b)
        c.measure(static_cast<Qubit>(b * n / 8), b);
    return c;
}

// Pinned before the shot loop evolved the shot-independent prefix once:
// raw counts, retained fraction and evolveOne's stabilizers must stay
// bit for bit. For these n the tableau ends just before, on, or just
// after a 64-bit word boundary. Never re-pin.
TEST(ShotLoopGolden, StabilizerCountsAndEvolveOne)
{
    const struct
    {
        std::size_t n;
        std::uint64_t digest;
    } cases[] = {
        {25, 0x162f7d3cd699531eULL},
        {63, 0x3a183bfa733e11dcULL},
        {64, 0xbdab82c942fb2cc1ULL},
        {65, 0x1b56219d06ff66dfULL},
    };
    for (const auto &tc : cases) {
        const Circuit c = shotLoopCircuit(tc.n, 3000 + tc.n);
        StabilizerSimulator sim(4000 + tc.n);
        const Result r = sim.run(c, 200);
        std::uint64_t h = kFnv1aOffset;
        for (const auto &[key, count] : r.rawCounts())
            h = fnv1aMix64(fnv1aMix64(h, key), count);
        h = fnv1aMix64(
            h, std::bit_cast<std::uint64_t>(r.retainedFraction()));
        for (const std::string &s : sim.evolveOne(c).stabilizerStrings())
            h = fnv1aMixString(h, s);
        EXPECT_EQ(h, tc.digest)
            << "n = " << tc.n << ": digest 0x" << std::hex << h;
    }
}

} // namespace
} // namespace qra
