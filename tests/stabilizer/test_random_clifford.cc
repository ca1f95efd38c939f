/** @file Seeded random Clifford circuits over every gate kind the
 *  tableau accepts: pinned counts at tableau word boundaries, and the
 *  final stabilizers checked against the state vector. */

#include <algorithm>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "math/pauli.hh"
#include "sim/statevector_simulator.hh"
#include "stabilizer/stabilizer_simulator.hh"

namespace qra {
namespace {

/** Every gate kind StabilizerState::isCliffordOp accepts. */
constexpr OpKind kCliffordKinds[] = {
    OpKind::I,  OpKind::X,   OpKind::Y,  OpKind::Z,
    OpKind::H,  OpKind::S,   OpKind::Sdg, OpKind::SX,
    OpKind::CX, OpKind::CY,  OpKind::CZ, OpKind::Swap};

Qubit
randomQubit(Rng &gen, std::size_t n)
{
    return static_cast<Qubit>(gen.below(n));
}

void
appendRandomGate(Circuit &c, Rng &gen)
{
    const std::size_t n = c.numQubits();
    const OpKind kind = kCliffordKinds[gen.below(
        sizeof(kCliffordKinds) / sizeof(kCliffordKinds[0]))];
    const Qubit q = randomQubit(gen, n);
    Operation op{};
    op.kind = kind;
    op.qubits = {q};
    if (opNumQubits(kind) == 2)
        op.qubits = {q, static_cast<Qubit>((q + 1 + gen.below(n - 1)) % n)};
    c.append(std::move(op));
}

/** FNV-1a over the text of @p s, continuing from @p h. */
std::uint64_t
fnv1a(const std::string &s, std::uint64_t h = 0xcbf29ce484222325ULL)
{
    for (unsigned char ch : s) {
        h ^= ch;
        h *= 0x100000001b3ULL;
    }
    return h;
}

/**
 * Random Clifford circuit on @p n qubits and 8 clbits: 6n steps of
 * gates with mid-circuit measurements and resets, one PostSelect of
 * probability 1/2 halfway, then 8 terminal measurements.
 */
Circuit
randomCircuit(std::size_t n, std::uint64_t seed)
{
    Rng gen(seed);
    Circuit c(n, 8);
    for (std::size_t step = 0; step < 6 * n; ++step) {
        if (step == 3 * n) {
            // The control's Z marginal stays 1/2 through the CX.
            const Qubit q = randomQubit(gen, n);
            const Qubit r =
                static_cast<Qubit>((q + 1 + gen.below(n - 1)) % n);
            c.reset(q).h(q).cx(q, r).postSelect(
                q, static_cast<int>(gen.below(2)));
        }
        const std::uint64_t action = gen.below(32);
        if (action < 2)
            c.measure(randomQubit(gen, n),
                      static_cast<Clbit>(gen.below(8)));
        else if (action == 2)
            c.reset(randomQubit(gen, n));
        else
            appendRandomGate(c, gen);
    }
    for (Clbit b = 0; b < 8; ++b)
        c.measure(static_cast<Qubit>(b * n / 8), b);
    return c;
}

/** Digest of a run's counts, retained fraction and one final tableau. */
std::uint64_t
runDigest(const Circuit &c, std::uint64_t seed)
{
    StabilizerSimulator sim(seed);
    const Result r = sim.run(c, 128);
    std::string text;
    for (const auto &[key, count] : r.rawCounts())
        text += std::to_string(key) + ':' + std::to_string(count) + ',';
    char frac[32];
    std::snprintf(frac, sizeof frac, "%.17g;", r.retainedFraction());
    text += frac;
    for (const std::string &s : sim.evolveOne(c).stabilizerStrings())
        text += s + ';';
    return fnv1a(text);
}

// Pinned from the byte-row tableau this packed one replaced. For
// these n the 2n tableau rows end just before, on, or just after a
// 64-bit word boundary.
TEST(RandomCliffordTest, GoldenCountsAtWordBoundaries)
{
    const struct
    {
        std::size_t n;
        std::uint64_t digest;
    } cases[] = {
        {31, 0x2c85da6fa2977b5cULL},
        {32, 0xc8769ab0ddc73948ULL},
        {33, 0xde1c73d4870e1695ULL},
        {64, 0x62e8792d75dbb7edULL},
        {65, 0xe6c166c7a2a523a1ULL},
    };
    for (const auto &tc : cases) {
        const Circuit c = randomCircuit(tc.n, 1000 + tc.n);
        const std::uint64_t digest = runDigest(c, 2000 + tc.n);
        EXPECT_EQ(digest, tc.digest)
            << "n = " << tc.n << ": digest 0x" << std::hex << digest;
    }
}

/** Expect <psi|P|psi> = +1 for every signed generator P. */
void
expectStabilizes(const std::vector<std::string> &generators,
                 const StateVector &psi, int trial)
{
    for (const std::string &g : generators) {
        const double sign = g[0] == '-' ? -1.0 : 1.0;
        EXPECT_NEAR(sign * PauliString(g.substr(1)).expectation(psi),
                    1.0, 1e-9)
            << "trial " << trial << ": " << g;
    }
}

/**
 * Append a random gate to @p c and, one step in 4n, a PostSelect of a
 * branch the state vector gives nonzero probability.
 */
void
appendRandomStep(Circuit &c, Rng &gen)
{
    const std::size_t n = c.numQubits();
    appendRandomGate(c, gen);
    if (gen.below(4 * n) != 0)
        return;
    const Qubit q = randomQubit(gen, n);
    std::string z(n, 'I');
    z[q] = 'Z';
    StatevectorSimulator probe(1);
    const double ez = PauliString(z).expectation(probe.finalState(c));
    const int value = ez > 0.5    ? 0
                      : ez < -0.5 ? 1
                                  : static_cast<int>(gen.below(2));
    c.postSelect(q, value);
}

TEST(RandomCliffordTest, EveryGeneratorStabilizesTheStatevector)
{
    Rng gen(4242);
    for (int trial = 0; trial < 40; ++trial) {
        const std::size_t n = 2 + gen.below(9);
        Circuit c(n, 0);
        for (std::size_t step = 0; step < 8 * n; ++step)
            appendRandomStep(c, gen);

        StabilizerSimulator stab(300 + trial);
        StatevectorSimulator sv(400 + trial);
        expectStabilizes(stab.evolveOne(c).stabilizerStrings(),
                         sv.finalState(c), trial);
    }
}

TEST(RandomCliffordTest, BlocksSpanningTableauWordsAgreeWithStatevector)
{
    // 43 independent 3-qubit blocks {b, b + 43, b + 86}: a block's
    // stabilizer rows lie in different 64-row words, so collapses and
    // deterministic post-selections combine rows across words, while
    // each block stays small enough for the state vector.
    constexpr std::size_t kBlocks = 43, kWidth = 3;
    Rng gen(99);
    std::vector<Circuit> blocks(kBlocks, Circuit(kWidth, 0));
    StabilizerState state(kBlocks * kWidth);
    for (std::size_t step = 0; step < 24 * kBlocks; ++step) {
        const std::size_t b = gen.below(kBlocks);
        const std::size_t done = blocks[b].ops().size();
        appendRandomStep(blocks[b], gen);
        for (std::size_t i = done; i < blocks[b].ops().size(); ++i) {
            Operation op = blocks[b].ops()[i];
            for (Qubit &q : op.qubits)
                q = static_cast<Qubit>(b + q * kBlocks);
            if (op.kind == OpKind::PostSelect)
                ASSERT_GT(state.postSelect(op.qubits[0],
                                           op.postselectValue),
                          0.0)
                    << "step " << step;
            else
                state.applyUnitary(op);
        }
    }

    const auto weight = [](const std::string &p) {
        return std::count_if(p.begin() + 1, p.end(),
                             [](char c) { return c != 'I'; });
    };
    for (const std::string &g : state.stabilizerStrings()) {
        const std::size_t first = g.find_first_not_of('I', 1) - 1;
        const std::size_t b = first % kBlocks;
        std::string local(1, g[0]);
        for (std::size_t q = 0; q < kWidth; ++q)
            local += g[1 + b + q * kBlocks];
        EXPECT_EQ(weight(g), weight(local)) << g << " leaves block " << b;
        StatevectorSimulator sv(1);
        expectStabilizes({local}, sv.finalState(blocks[b]),
                         static_cast<int>(b));
    }
}

/** True when Pauli strings @p a and @p b (sign first) commute. */
bool
commute(const std::string &a, const std::string &b)
{
    int anticommuting = 0;
    for (std::size_t j = 1; j < a.size(); ++j)
        if (a[j] != 'I' && b[j] != 'I' && a[j] != b[j])
            ++anticommuting;
    return anticommuting % 2 == 0;
}

TEST(RandomCliffordTest, GeneratorsCommuteAcrossWordBoundary)
{
    const Circuit c = randomCircuit(65, 77);
    StabilizerSimulator sim(78);
    const std::vector<std::string> gens =
        sim.evolveOne(c).stabilizerStrings();
    ASSERT_EQ(gens.size(), 65u);
    for (std::size_t a = 0; a < gens.size(); ++a)
        for (std::size_t b = a + 1; b < gens.size(); ++b)
            EXPECT_TRUE(commute(gens[a], gens[b])) << a << ", " << b;
}

} // namespace
} // namespace qra
