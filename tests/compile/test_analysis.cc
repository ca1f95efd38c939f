/**
 * @file
 * Static circuit analysis: tableau-prefix facts against stabilizer
 * ground truth on random Clifford circuits, the split-aware
 * separability partition against brute-force reachability, the lint
 * warning codes, and auto-assertion generation end to end through the
 * JobQueue (determinism across thread counts, memoisation, graceful
 * degradation on non-Clifford circuits).
 */

#include <algorithm>
#include <cstdio>
#include <set>

#include <gtest/gtest.h>

#include "assertions/entanglement_assertion.hh"
#include "assertions/report.hh"
#include "common/hash.hh"
#include "common/rng.hh"
#include "compile/analysis/analysis.hh"
#include "compile/analysis/auto_assert.hh"
#include "compile/analysis/lint.hh"
#include "library/algorithms.hh"
#include "noise/device_model.hh"
#include "paper_circuits.hh"
#include "runtime/job_queue.hh"
#include "stabilizer/stabilizer_state.hh"

using namespace qra;
using namespace qra::compile;
using namespace qra::runtime;
using analysis::CircuitAnalysis;
using analysis::GroupFact;
using analysis::GroupState;
using analysis::LintCode;
using analysis::LintWarning;

namespace {

/** Random measurement-free Clifford circuit over @p n qubits. */
Circuit
randomClifford(std::size_t n, std::size_t gates, std::uint64_t seed)
{
    Circuit c(n, n, "random_clifford");
    Rng rng(seed);
    for (std::size_t g = 0; g < gates; ++g) {
        const std::uint64_t pick = rng.below(8);
        const Qubit a = static_cast<Qubit>(rng.below(n));
        Qubit b = static_cast<Qubit>(rng.below(n - 1));
        if (b >= a)
            ++b;
        switch (pick) {
          case 0: c.h(a); break;
          case 1: c.s(a); break;
          case 2: c.x(a); break;
          case 3: c.z(a); break;
          case 4: c.sdg(a); break;
          case 5: c.cx(a, b); break;
          case 6: c.cz(a, b); break;
          default: c.swap(a, b); break;
        }
    }
    return c;
}

/** Replay ops[0..cut) of an all-Clifford circuit on a fresh tableau. */
StabilizerState
groundTruthAt(const Circuit &circuit, std::size_t cut)
{
    StabilizerState state(circuit.numQubits());
    for (std::size_t i = 0; i < cut; ++i)
        state.applyUnitary(circuit.ops()[i]);
    return state;
}

/** Check one fact's claims against the true tableau at its cut. */
void
expectFactHolds(const Circuit &circuit, const GroupFact &fact)
{
    StabilizerState truth = groundTruthAt(circuit, fact.cutIndex);
    SCOPED_TRACE("cut " + std::to_string(fact.cutIndex) + ", " +
                 std::string(analysis::groupStateName(fact.state)));
    switch (fact.state) {
      case GroupState::KnownBasis:
        for (std::size_t j = 0; j < fact.qubits.size(); ++j) {
            const double expected = (fact.basisBits >> j) & 1 ? 1.0
                                                              : 0.0;
            EXPECT_EQ(truth.probabilityOfOne(fact.qubits[j]),
                      expected);
        }
        break;
      case GroupState::UniformSuperposition: {
        ASSERT_EQ(fact.qubits.size(), 1u);
        const Qubit q = fact.qubits[0];
        EXPECT_EQ(truth.probabilityOfOne(q), 0.5);
        truth.applyH(q);
        EXPECT_EQ(truth.probabilityOfOne(q),
                  fact.minusPhase ? 1.0 : 0.0);
        break;
      }
      case GroupState::GhzLike: {
        ASSERT_GE(fact.qubits.size(), 2u);
        // Post-select the first member: every other member must
        // collapse to the complement-pair pattern, and both branches
        // must exist.
        EXPECT_EQ(truth.probabilityOfOne(fact.qubits[0]), 0.5);
        ASSERT_EQ(truth.postSelect(fact.qubits[0], 0), 0.5);
        for (std::size_t j = 1; j < fact.qubits.size(); ++j) {
            const double expected =
                (fact.qubits.size() == 2 && fact.oddParity) ? 1.0
                                                            : 0.0;
            EXPECT_EQ(truth.probabilityOfOne(fact.qubits[j]),
                      expected);
        }
        break;
      }
      case GroupState::Other:
        break;
    }
}

/** Brute-force interaction reachability (transitive 2q closure). */
std::vector<std::uint32_t>
reachabilityGroups(const Circuit &circuit)
{
    std::vector<std::uint32_t> group(circuit.numQubits());
    for (std::size_t q = 0; q < group.size(); ++q)
        group[q] = static_cast<std::uint32_t>(q);
    bool changed = true;
    while (changed) {
        changed = false;
        for (const Operation &op : circuit.ops()) {
            if (!opIsUnitary(op.kind) || op.qubits.size() < 2)
                continue;
            std::uint32_t lowest = group[op.qubits[0]];
            for (Qubit q : op.qubits)
                lowest = std::min(lowest, group[q]);
            for (Qubit q : op.qubits)
                if (group[q] != lowest) {
                    group[q] = lowest;
                    changed = true;
                }
        }
    }
    return group;
}

JobSpec
autoSpec(Circuit circuit, std::size_t shots = 1024)
{
    JobSpec spec;
    spec.circuit = std::move(circuit);
    spec.shots = shots;
    spec.backend = "statevector";
    spec.seed = 11;
    spec.injection = InjectionStrategy::AutoGenerate;
    return spec;
}

} // namespace

// ---------------------------------------------------------------------
// Tableau-prefix facts vs stabilizer ground truth.
// ---------------------------------------------------------------------

TEST(AnalysisFacts, RandomCliffordFactsMatchGroundTruth)
{
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        const Circuit c = randomClifford(5, 40, seed);
        const CircuitAnalysis a = analysis::analyzeCircuit(c);
        SCOPED_TRACE("seed " + std::to_string(seed));
        // Measurement-free all-Clifford circuit: every qubit's prefix
        // is the whole program, so the facts tile all qubits at the
        // final cut.
        std::set<Qubit> covered;
        for (const GroupFact &fact : a.facts) {
            EXPECT_EQ(fact.cutIndex, c.size());
            for (Qubit q : fact.qubits)
                EXPECT_TRUE(covered.insert(q).second);
            expectFactHolds(c, fact);
        }
        EXPECT_EQ(covered.size(), c.numQubits());
        EXPECT_EQ(a.cliffordPrefixGates, c.size());
    }
}

TEST(AnalysisFacts, BellGhzAndWShapes)
{
    // Bell pair: one GHZ-like (even) group at the first measurement.
    {
        Circuit bell = library::bellPair();
        bell.addClbits(bell.numQubits());
        bell.measureAll();
        const CircuitAnalysis a = analysis::analyzeCircuit(bell);
        ASSERT_EQ(a.facts.size(), 1u);
        EXPECT_EQ(a.facts[0].state, GroupState::GhzLike);
        EXPECT_FALSE(a.facts[0].oddParity);
        EXPECT_EQ(a.facts[0].qubits, (std::vector<Qubit>{0, 1}));
        EXPECT_EQ(a.facts[0].cutIndex, 2u); // before the measures
    }
    // Psi+ Bell pair: the 2-qubit odd-parity class.
    {
        Circuit psi(2, 2, "psi_plus");
        psi.h(0).x(1).cx(0, 1).measureAll();
        const CircuitAnalysis a = analysis::analyzeCircuit(psi);
        ASSERT_EQ(a.facts.size(), 1u);
        EXPECT_EQ(a.facts[0].state, GroupState::GhzLike);
        EXPECT_TRUE(a.facts[0].oddParity);
    }
    // GHZ(4): one 4-qubit GHZ-like group.
    {
        Circuit ghz = library::ghzState(4);
        ghz.addClbits(ghz.numQubits());
        ghz.measureAll();
        const CircuitAnalysis a = analysis::analyzeCircuit(ghz);
        ASSERT_EQ(a.facts.size(), 1u);
        EXPECT_EQ(a.facts[0].state, GroupState::GhzLike);
        EXPECT_EQ(a.facts[0].qubits.size(), 4u);
        EXPECT_EQ(a.facts[0].prefixGates, 4u); // h + 3 cx
    }
    // W(3) starts x(0) then goes non-Clifford: the tableau gives up
    // early, but the known-basis frontier still proves q0 = 1 until
    // the first unknown-control CNOT touches it.
    {
        Circuit w = library::wState(3);
        w.addClbits(w.numQubits());
        w.measureAll();
        const CircuitAnalysis a = analysis::analyzeCircuit(w);
        bool found = false;
        for (const analysis::FrontierFact &fact : a.frontier)
            if (fact.qubit == 0 && fact.value == 1 &&
                fact.opsTouched >= 1)
                found = true;
        EXPECT_TRUE(found);
    }
}

TEST(AnalysisFacts, UniformSuperpositionPlusAndMinus)
{
    Circuit c(2, 2, "plus_minus");
    c.h(0).x(1).h(1).measureAll();
    const CircuitAnalysis a = analysis::analyzeCircuit(c);
    ASSERT_EQ(a.facts.size(), 2u);
    EXPECT_EQ(a.facts[0].state, GroupState::UniformSuperposition);
    EXPECT_FALSE(a.facts[0].minusPhase);
    EXPECT_EQ(a.facts[1].state, GroupState::UniformSuperposition);
    EXPECT_TRUE(a.facts[1].minusPhase);
}

// ---------------------------------------------------------------------
// Separability partition.
// ---------------------------------------------------------------------

TEST(AnalysisPartition, CancellationAwareSplits)
{
    // CX·CX cancels: the groups never merge.
    {
        Circuit c(2);
        c.cx(0, 1).cx(0, 1);
        const CircuitAnalysis a = analysis::analyzeCircuit(c);
        EXPECT_EQ(a.finalGroups.size(), 2u);
    }
    // CX then CZ on the same pair does not cancel.
    {
        Circuit c(2);
        c.cx(0, 1).cz(0, 1);
        const CircuitAnalysis a = analysis::analyzeCircuit(c);
        EXPECT_EQ(a.finalGroups.size(), 1u);
    }
    // H-conjugated CX run collapsing to a SWAP keeps the wires
    // separable but exchanges their groups.
    {
        Circuit c(3);
        c.cx(0, 1).swap(1, 2);
        const CircuitAnalysis a = analysis::analyzeCircuit(c);
        ASSERT_EQ(a.finalGroups.size(), 2u);
        EXPECT_EQ(a.finalGroups[0], (std::vector<Qubit>{0, 2}));
        EXPECT_EQ(a.finalGroups[1], (std::vector<Qubit>{1}));
    }
    // Three CX gates alternating direction = SWAP: separable, wires
    // exchanged.
    {
        Circuit c(2);
        c.x(0).cx(0, 1).cx(1, 0).cx(0, 1);
        const CircuitAnalysis a = analysis::analyzeCircuit(c);
        EXPECT_EQ(a.finalGroups.size(), 2u);
        // The |1> travelled from wire 0 to wire 1.
        bool q1_is_one = false;
        for (const analysis::GroupFact &fact : a.facts)
            if (fact.qubits == std::vector<Qubit>{1})
                q1_is_one = fact.state == GroupState::KnownBasis &&
                            fact.basisBits == 1;
        EXPECT_TRUE(q1_is_one);
    }
    // Measurement returns the wire to its own group.
    {
        Circuit c(2, 2);
        c.h(0).cx(0, 1).measure(0, 0);
        const CircuitAnalysis a = analysis::analyzeCircuit(c);
        EXPECT_EQ(a.finalGroups.size(), 2u);
    }
}

TEST(AnalysisPartition, RefinesBruteForceReachability)
{
    // On arbitrary circuits (non-Clifford gates, swaps, measures) the
    // split-aware partition must always be a refinement of plain
    // interaction reachability: anything it claims separable at the
    // end really is unreachable or cancelled.
    for (std::uint64_t seed = 100; seed < 112; ++seed) {
        Circuit c = randomClifford(5, 30, seed);
        c.t(static_cast<Qubit>(seed % 5));
        const CircuitAnalysis a = analysis::analyzeCircuit(c);
        const std::vector<std::uint32_t> coarse =
            reachabilityGroups(c);
        SCOPED_TRACE("seed " + std::to_string(seed));
        std::size_t merged = 0;
        for (const auto &group : a.finalGroups) {
            ++merged;
            for (Qubit q : group)
                EXPECT_EQ(coarse[q], coarse[group[0]])
                    << "partition merged wires reachability keeps "
                       "apart";
        }
        EXPECT_EQ(merged, a.finalGroups.size());
    }
    // And without swaps or repeated pairs it matches reachability
    // exactly.
    for (std::uint64_t seed = 200; seed < 206; ++seed) {
        Circuit c(4, 4);
        Rng rng(seed);
        Qubit last_a = 0, last_b = 0;
        for (int g = 0; g < 20; ++g) {
            Qubit a = static_cast<Qubit>(rng.below(4));
            Qubit b = static_cast<Qubit>(rng.below(3));
            if (b >= a)
                ++b;
            if ((a == last_a && b == last_b) ||
                (a == last_b && b == last_a)) {
                c.t(a); // break any would-be cancellation run
            }
            c.cx(a, b);
            last_a = a;
            last_b = b;
        }
        const CircuitAnalysis a = analysis::analyzeCircuit(c);
        const std::vector<std::uint32_t> coarse =
            reachabilityGroups(c);
        std::set<std::uint32_t> coarse_ids(coarse.begin(),
                                           coarse.end());
        EXPECT_EQ(a.finalGroups.size(), coarse_ids.size());
    }
}

// ---------------------------------------------------------------------
// Lint.
// ---------------------------------------------------------------------

TEST(Lint, FlagsEachBrokenPattern)
{
    // L001: gated but never observed.
    {
        Circuit c(2, 2);
        c.h(0).measure(0, 0).x(1);
        const auto warnings = analysis::lintCircuit(c);
        ASSERT_EQ(warnings.size(), 1u);
        EXPECT_EQ(warnings[0].code, LintCode::NeverObserved);
        EXPECT_EQ(warnings[0].qubits, (std::vector<Qubit>{1}));
    }
    // L002: gate after the final measurement.
    {
        Circuit c(1, 1);
        c.h(0).measure(0, 0).x(0);
        const auto warnings = analysis::lintCircuit(c);
        ASSERT_EQ(warnings.size(), 1u);
        EXPECT_EQ(warnings[0].code, LintCode::GateAfterMeasure);
        EXPECT_EQ(warnings[0].opIndex, 2u);
    }
    // L003: entanglement check over provably separable targets.
    {
        Circuit c(2, 2);
        c.h(0).h(1).measureAll();
        AssertionSpec spec;
        spec.assertion = std::make_shared<EntanglementAssertion>(2);
        spec.targets = {0, 1};
        spec.insertAt = 2;
        const auto warnings = analysis::lintCircuit(c, {spec});
        ASSERT_EQ(warnings.size(), 1u);
        EXPECT_EQ(warnings[0].code, LintCode::VacuousEntanglement);
        // The same spec on a real Bell pair is clean.
        Circuit bell(2, 2);
        bell.h(0).cx(0, 1).measureAll();
        EXPECT_TRUE(analysis::lintCircuit(bell, {spec}).empty());
    }
    // L004: measured qubit reused in a 2q gate without reset.
    {
        Circuit c(2, 2);
        c.h(0).measure(0, 0).cx(0, 1).measure(1, 1);
        const auto warnings = analysis::lintCircuit(c);
        ASSERT_EQ(warnings.size(), 1u);
        EXPECT_EQ(warnings[0].code, LintCode::ReuseWithoutReset);
        // With a reset in between the reuse is legitimate.
        Circuit ok(2, 2);
        ok.h(0).measure(0, 0).reset(0).cx(0, 1).measure(1, 1);
        EXPECT_TRUE(analysis::lintCircuit(ok).empty());
    }
    // L005: more qubits than the device has.
    {
        const CouplingMap map = DeviceModel::ibmqx4().couplingMap();
        Circuit c(6, 6);
        c.h(0).cx(4, 5).measureAll();
        const auto warnings = analysis::lintCircuit(c, {}, &map);
        ASSERT_EQ(warnings.size(), 1u);
        EXPECT_EQ(warnings[0].code, LintCode::Unroutable);
    }
    // A well-formed Bell circuit on the device is completely clean.
    {
        const CouplingMap map = DeviceModel::ibmqx4().couplingMap();
        Circuit bell(2, 2);
        bell.h(0).cx(0, 1).measureAll();
        EXPECT_TRUE(analysis::lintCircuit(bell, {}, &map).empty());
    }
}

namespace {

/** Whether lint flags an entanglement check on @p targets at @p at. */
bool
flagsVacuous(const Circuit &c, std::vector<Qubit> targets, std::size_t at)
{
    AssertionSpec spec;
    spec.assertion =
        std::make_shared<EntanglementAssertion>(targets.size());
    spec.targets = std::move(targets);
    spec.insertAt = at;
    for (const LintWarning &warning : analysis::lintCircuit(c, {spec}))
        if (warning.code == LintCode::VacuousEntanglement)
            return true;
    return false;
}

} // namespace

TEST(Lint, VacuousEntanglementBoundaries)
{
    // Inside a cancelling CX·CX run the pair stays split: the run's
    // net action is what counts, not its first gate.
    {
        Circuit c(2, 2);
        c.h(0).cx(0, 1).cx(0, 1).measureAll();
        EXPECT_TRUE(flagsVacuous(c, {0, 1}, 2));
        EXPECT_TRUE(flagsVacuous(c, {0, 1}, 3));
    }
    // A swap moves the entangled wire: the Bell partner of q0 is q2
    // after it, not q1.
    {
        Circuit c(3, 3);
        c.h(0).cx(0, 1).swap(1, 2).measureAll();
        EXPECT_FALSE(flagsVacuous(c, {0, 1}, 2));
        EXPECT_TRUE(flagsVacuous(c, {0, 2}, 2));
        EXPECT_TRUE(flagsVacuous(c, {0, 1}, 3));
        EXPECT_FALSE(flagsVacuous(c, {0, 2}, 3));
    }
    // Measurement and reset return the wire to its own group.
    {
        Circuit c(2, 2);
        c.h(0).cx(0, 1).measure(0, 0).measure(1, 1);
        EXPECT_FALSE(flagsVacuous(c, {0, 1}, 2));
        EXPECT_TRUE(flagsVacuous(c, {0, 1}, 3));
        Circuit r(2, 2);
        r.h(0).cx(0, 1).reset(1).measureAll();
        EXPECT_FALSE(flagsVacuous(r, {0, 1}, 2));
        EXPECT_TRUE(flagsVacuous(r, {1, 0}, 3));
    }
    // A GHZ group at the circuit's end is one group, also for a check
    // placed past the end (clamped to the last boundary).
    {
        const Circuit ghz = library::ghzState(3);
        EXPECT_FALSE(flagsVacuous(ghz, {0, 1, 2}, ghz.size()));
        EXPECT_FALSE(flagsVacuous(ghz, {2, 0}, ghz.size() + 5));
        EXPECT_TRUE(flagsVacuous(ghz, {0, 1, 2}, 2));
    }
}

// ---------------------------------------------------------------------
// Golden digests. Pinned before the analyzer stopped snapshotting the
// partition at every op and lint took over the per-qubit timeline and
// the QRA-L003 boundaries; never edited afterwards.
// ---------------------------------------------------------------------

namespace {

/**
 * A compile_fresh-shaped Clifford circuit over @p n (12..18) qubits:
 * two GHZ blocks scrambled by cz/swap/z/s/sdg, two |+> qubits flipped
 * by x/z, and a basis block scrambled by cx/swap/x/z, then measured.
 */
Circuit
cliffordBlocks(std::size_t n, Rng &rng)
{
    struct Block
    {
        Qubit first;
        Qubit size;
        enum { Ghz, Plus, Basis } type;
    };
    const Block blocks[] = {{0, 4, Block::Ghz},
                            {4, 3, Block::Ghz},
                            {7, 1, Block::Plus},
                            {8, 1, Block::Plus},
                            {9, static_cast<Qubit>(n - 9), Block::Basis}};
    Circuit c(n, n, "clifford_blocks");
    c.h(0).cx(0, 1).cx(1, 2).cx(2, 3);
    c.h(4).cx(4, 5).cx(5, 6);
    c.h(7).h(8);
    for (int g = 0; g < 300; ++g) {
        const Block &b = blocks[rng.below(5)];
        const Qubit a = b.first + static_cast<Qubit>(rng.below(b.size));
        const Qubit d =
            b.size > 1 ? b.first + static_cast<Qubit>(
                                       (a - b.first + 1 +
                                        rng.below(b.size - 1)) %
                                       b.size)
                       : a;
        switch (b.type) {
          case Block::Ghz:
            switch (rng.below(5)) {
              case 0: c.cz(a, d); break;
              case 1: c.swap(a, d); break;
              case 2: c.z(a); break;
              case 3: c.s(a); break;
              default: c.sdg(a); break;
            }
            break;
          case Block::Plus:
            if (rng.below(2))
                c.x(a);
            else
                c.z(a);
            break;
          case Block::Basis:
            switch (rng.below(4)) {
              case 0:
              case 1: c.cx(a, d); break;
              case 2: c.swap(a, d); break;
              default:
                if (rng.below(2))
                    c.x(a);
                else
                    c.z(a);
                break;
            }
            break;
        }
    }
    c.measureAll();
    return c;
}

/**
 * Random circuit over @p n qubits mixing Clifford and T gates with
 * swaps, mid-circuit measure and reset, and repeated-pair runs: a
 * cancelling CX·CX pair and a CX·CX·CX run that collapses to a SWAP.
 */
Circuit
randomMixed(std::size_t n, std::size_t steps, Rng &rng)
{
    Circuit c(n, n, "random_mixed");
    for (std::size_t g = 0; g < steps; ++g) {
        const Qubit a = static_cast<Qubit>(rng.below(n));
        Qubit b = static_cast<Qubit>(rng.below(n - 1));
        if (b >= a)
            ++b;
        switch (rng.below(12)) {
          case 0: c.h(a); break;
          case 1: c.t(a); break;
          case 2: c.s(a); break;
          case 3: c.x(a); break;
          case 4: c.cx(a, b); break;
          case 5: c.cx(a, b).cx(a, b); break;
          case 6: c.cx(a, b).cx(b, a).cx(a, b); break;
          case 7: c.cz(a, b); break;
          case 8: c.swap(a, b); break;
          case 9: c.measure(a, a); break;
          case 10: c.reset(a); break;
          default: c.h(a).cx(a, b); break;
        }
    }
    return c;
}

std::vector<Circuit>
cliffordBlockSet()
{
    std::vector<Circuit> circuits;
    Rng rng(2903);
    for (std::size_t i = 0; i < 21; ++i)
        circuits.push_back(cliffordBlocks(12 + i % 7, rng));
    return circuits;
}

std::vector<Circuit>
randomMixedSet()
{
    std::vector<Circuit> circuits;
    Rng rng(2904);
    for (std::size_t i = 0; i < 30; ++i)
        circuits.push_back(randomMixed(4 + i % 3, 28, rng));
    return circuits;
}

/** Folds facts, frontier, final groups and the prefix gate count. */
std::uint64_t
analysisDigest(const CircuitAnalysis &a)
{
    std::uint64_t h = fnv1aMix64(kFnv1aOffset, a.numQubits);
    h = fnv1aMix64(h, a.numOps);
    h = fnv1aMix64(h, a.facts.size());
    for (const GroupFact &fact : a.facts) {
        h = fnv1aMix64(h, fact.qubits.size());
        for (Qubit q : fact.qubits)
            h = fnv1aMix64(h, q);
        h = fnv1aMix64(h, fact.cutIndex);
        h = fnv1aMix64(h, fact.prefixGates);
        h = fnv1aMix64(h, static_cast<std::uint64_t>(fact.state));
        h = fnv1aMix64(h, fact.basisBits);
        h = fnv1aMix64(h, fact.minusPhase ? 1 : 0);
        h = fnv1aMix64(h, fact.oddParity ? 1 : 0);
    }
    h = fnv1aMix64(h, a.frontier.size());
    for (const analysis::FrontierFact &fact : a.frontier) {
        h = fnv1aMix64(h, fact.qubit);
        h = fnv1aMix64(h, fact.cutIndex);
        h = fnv1aMix64(h, static_cast<std::uint64_t>(fact.value));
        h = fnv1aMix64(h, fact.opsTouched);
    }
    h = fnv1aMix64(h, a.finalGroups.size());
    for (const auto &group : a.finalGroups) {
        h = fnv1aMix64(h, group.size());
        for (Qubit q : group)
            h = fnv1aMix64(h, q);
    }
    return fnv1aMix64(h, a.cliffordPrefixGates);
}

std::uint64_t
analysisSetDigest(const std::vector<Circuit> &circuits)
{
    std::uint64_t h = kFnv1aOffset;
    for (const Circuit &c : circuits)
        h = fnv1aMix64(h, analysisDigest(analysis::analyzeCircuit(c)));
    return h;
}

std::uint64_t
lintDigest(const std::vector<LintWarning> &warnings)
{
    std::uint64_t h = fnv1aMix64(kFnv1aOffset, warnings.size());
    for (const LintWarning &warning : warnings)
        h = fnv1aMixString(h, warning.str());
    return h;
}

std::string
hex(std::uint64_t value)
{
    char text[19];
    std::snprintf(text, sizeof text, "0x%016llx",
                  static_cast<unsigned long long>(value));
    return text;
}

} // namespace

TEST(AnalysisGolden, FactsFrontierAndGroups)
{
    std::vector<Circuit> paper;
    for (const test::PaperSource &source : test::paperSources())
        paper.push_back(parseAnnotatedQasm(source.text).payload);
    const std::uint64_t paper_digest = analysisSetDigest(paper);
    const std::uint64_t blocks_digest =
        analysisSetDigest(cliffordBlockSet());
    const std::uint64_t mixed_digest =
        analysisSetDigest(randomMixedSet());
    EXPECT_EQ(paper_digest, 0x6cd946fb0ed50863ULL) << hex(paper_digest);
    EXPECT_EQ(blocks_digest, 0x61f04397ebc5be3dULL) << hex(blocks_digest);
    EXPECT_EQ(mixed_digest, 0x5e5e05a2126da549ULL) << hex(mixed_digest);
}

TEST(AnalysisPartition, GroupIdsAtTheEndAreTheFinalGroups)
{
    // Boundaries in any order: before op 0 every wire is alone, and
    // after the last op the lint-side walk agrees with analyzeCircuit.
    for (const Circuit &c : randomMixedSet()) {
        const CircuitAnalysis a = analysis::analyzeCircuit(c);
        const auto ids = analysis::groupIdsAt(c, {c.size(), 0});
        ASSERT_EQ(ids.size(), 2u);
        for (const auto &group : a.finalGroups)
            for (Qubit q : group)
                EXPECT_EQ(ids[0][q], group[0]);
        for (Qubit q = 0; q < c.numQubits(); ++q)
            EXPECT_EQ(ids[1][q], q);
    }
}

TEST(LintGolden, VacuousEntanglementAtEveryBoundary)
{
    // Every boundary 0..numOps, one past it (clamped to numOps), and
    // every qubit pair, through the public lint API; plus each
    // circuit's lint with no specs, and the paper circuits with their
    // own directives.
    std::uint64_t h = kFnv1aOffset;
    for (const Circuit &c : randomMixedSet()) {
        std::vector<AssertionSpec> specs;
        for (std::size_t at = 0; at <= c.size() + 1; ++at)
            for (Qubit a = 0; a < c.numQubits(); ++a)
                for (Qubit b = a + 1; b < c.numQubits(); ++b) {
                    AssertionSpec spec;
                    spec.assertion =
                        std::make_shared<EntanglementAssertion>(2);
                    spec.targets = {a, b};
                    spec.insertAt = at;
                    specs.push_back(spec);
                }
        h = fnv1aMix64(h, lintDigest(analysis::lintCircuit(c)));
        h = fnv1aMix64(h, lintDigest(analysis::lintCircuit(c, specs)));
    }
    for (const test::PaperSource &source : test::paperSources()) {
        const AnnotatedProgram program = parseAnnotatedQasm(source.text);
        h = fnv1aMix64(h, lintDigest(analysis::lintCircuit(
                              program.payload, program.specs)));
    }
    EXPECT_EQ(h, 0x4a68ea7d577da4d3ULL) << hex(h);
}

// ---------------------------------------------------------------------
// Auto-assertion generation.
// ---------------------------------------------------------------------

TEST(AutoAssert, GhzMatchesHandAnnotation)
{
    Circuit ghz = library::ghzState(3);
    ghz.addClbits(ghz.numQubits());
    ghz.measureAll();
    const auto specs = generateAssertions(
        analysis::analyzeCircuit(ghz), AutoAssertOptions{});
    ASSERT_EQ(specs.size(), 1u);
    EXPECT_EQ(specs[0].assertion->kind(),
              AssertionKind::Entanglement);
    EXPECT_EQ(specs[0].targets, (std::vector<Qubit>{0, 1, 2}));
    EXPECT_EQ(specs[0].insertAt, 3u);
    EXPECT_EQ(specs[0].label, "auto:entangled");

    // The woven circuit is bit-identical to the hand-annotated one.
    AssertionSpec hand;
    hand.assertion = std::make_shared<EntanglementAssertion>(3);
    hand.targets = {0, 1, 2};
    hand.insertAt = 3;
    const auto auto_inst =
        detail::weaveAssertions(ghz, specs, InstrumentOptions{});
    const auto hand_inst =
        detail::weaveAssertions(ghz, {hand}, InstrumentOptions{});
    EXPECT_EQ(auto_inst.circuit().hash(), hand_inst.circuit().hash());
}

TEST(AutoAssert, BudgetAndDepthFilters)
{
    Circuit ghz = library::ghzState(3);
    ghz.addClbits(ghz.numQubits());
    ghz.measureAll();
    AutoAssertOptions opts;
    opts.minPrefixDepth = 10; // deeper than the whole prefix
    EXPECT_TRUE(
        generateAssertions(analysis::analyzeCircuit(ghz), opts)
            .empty());

    // maxChecks caps the selection at the deepest candidates.
    Circuit many(4, 4);
    many.x(0).x(1).x(2).x(3).measureAll();
    AutoAssertOptions capped;
    capped.maxChecks = 2;
    const auto specs = generateAssertions(
        analysis::analyzeCircuit(many), capped);
    EXPECT_EQ(specs.size(), 2u);
}

TEST(AutoAssert, NonCliffordFromGateZeroInjectsNothing)
{
    // Graceful degradation: nothing provable, nothing injected.
    Circuit c(2, 2);
    c.ry(0.3, 0).ry(0.7, 1).cx(0, 1).measureAll();
    const auto specs = generateAssertions(
        analysis::analyzeCircuit(c), AutoAssertOptions{});
    EXPECT_TRUE(specs.empty());

    ExecutionEngine engine(EngineOptions{.threads = 2});
    runtime::JobQueue queue(engine);
    const JobSpec spec = autoSpec(c);
    const auto inst = queue.instrumented(spec);
    ASSERT_NE(inst, nullptr);
    EXPECT_TRUE(inst->checks().empty());
    const Result result = queue.submit(spec).get();
    EXPECT_EQ(result.shots(), 1024u);
}

TEST(AutoAssert, IdealBackendPassesEveryGeneratedCheck)
{
    // Soundness end to end: every auto-derived check must hold on a
    // noiseless backend, for library circuits and random Cliffords.
    std::vector<Circuit> circuits;
    {
        Circuit bell = library::bellPair();
        bell.addClbits(bell.numQubits());
        bell.measureAll();
        circuits.push_back(bell);
    }
    {
        Circuit ghz = library::ghzState(4);
        ghz.addClbits(ghz.numQubits());
        ghz.measureAll();
        circuits.push_back(ghz);
    }
    {
        Circuit w = library::wState(3);
        w.addClbits(w.numQubits());
        w.measureAll();
        circuits.push_back(w);
    }
    for (std::uint64_t seed = 31; seed < 37; ++seed) {
        Circuit c = randomClifford(4, 24, seed);
        c.measureAll();
        circuits.push_back(c);
    }

    ExecutionEngine engine(EngineOptions{.threads = 2});
    runtime::JobQueue queue(engine);
    std::size_t total_checks = 0;
    for (const Circuit &c : circuits) {
        SCOPED_TRACE(c.name());
        const JobSpec spec = autoSpec(c, 256);
        const auto inst = queue.instrumented(spec);
        ASSERT_NE(inst, nullptr);
        total_checks += inst->checks().size();
        const Result result = queue.submit(spec).get();
        const AssertionReport report = analyze(*inst, result);
        EXPECT_EQ(report.anyErrorRate, 0.0);
        EXPECT_EQ(report.keptFraction, 1.0);
    }
    EXPECT_GT(total_checks, 0u);
}

TEST(AutoAssert, BitIdenticalCountsAcrossThreadCounts)
{
    Circuit ghz = library::ghzState(3);
    ghz.addClbits(ghz.numQubits());
    ghz.measureAll();

    ExecutionEngine engine1(EngineOptions{.threads = 1});
    runtime::JobQueue queue1(engine1);
    ExecutionEngine engine4(EngineOptions{.threads = 4});
    runtime::JobQueue queue4(engine4);

    const JobSpec spec = autoSpec(ghz, 2048);
    const Result r1 = queue1.submit(spec).get();
    const Result r4 = queue4.submit(spec).get();
    EXPECT_EQ(r1.counts(), r4.counts());
}

TEST(AutoAssert, AutoSpecMemoisedInPrepareCache)
{
    Circuit ghz = library::ghzState(3);
    ghz.addClbits(ghz.numQubits());
    ghz.measureAll();
    ExecutionEngine engine(EngineOptions{.threads = 2});
    runtime::JobQueue queue(engine);

    const JobSpec spec = autoSpec(ghz);
    const auto first = queue.instrumented(spec);
    ASSERT_NE(first, nullptr);
    // Same spec: the cached Prepared entry is shared, not recomputed.
    EXPECT_EQ(queue.instrumented(spec).get(), first.get());

    // A different budget is a different pipeline fingerprint.
    JobSpec tighter = spec;
    tighter.autoAssert.maxChecks = 1;
    EXPECT_EQ(queue.cacheMisses(), 0u); // introspection counts nothing
    queue.submit(spec).get();
    queue.submit(tighter).get();
    EXPECT_EQ(queue.cacheMisses(), 1u); // spec was already prepared
    queue.submit(tighter).get();
    EXPECT_EQ(queue.cacheHits(), 2u);
}

TEST(AutoAssert, FrontierClassicalCheckOnWState)
{
    // W(3): non-Clifford from gate 1, but x(0) proves q0 = 1 on the
    // known-basis frontier; the generated check must be classical on
    // qubit 0 and the woven circuit must still behave.
    Circuit w = library::wState(3);
    w.addClbits(w.numQubits());
    w.measureAll();
    const auto specs = generateAssertions(
        analysis::analyzeCircuit(w), AutoAssertOptions{});
    ASSERT_FALSE(specs.empty());
    bool classical_on_q0 = false;
    for (const AssertionSpec &spec : specs)
        classical_on_q0 =
            classical_on_q0 ||
            (spec.assertion->kind() == AssertionKind::Classical &&
             spec.targets == std::vector<Qubit>{0});
    EXPECT_TRUE(classical_on_q0);
}
