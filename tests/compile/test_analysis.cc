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
#include <set>

#include <gtest/gtest.h>

#include "assertions/entanglement_assertion.hh"
#include "assertions/report.hh"
#include "common/rng.hh"
#include "compile/analysis/analysis.hh"
#include "compile/analysis/auto_assert.hh"
#include "compile/analysis/lint.hh"
#include "library/algorithms.hh"
#include "noise/device_model.hh"
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
        const auto warnings = analysis::lintCircuit(
            c, analysis::analyzeCircuit(c));
        ASSERT_EQ(warnings.size(), 1u);
        EXPECT_EQ(warnings[0].code, LintCode::NeverObserved);
        EXPECT_EQ(warnings[0].qubits, (std::vector<Qubit>{1}));
    }
    // L002: gate after the final measurement.
    {
        Circuit c(1, 1);
        c.h(0).measure(0, 0).x(0);
        const auto warnings = analysis::lintCircuit(
            c, analysis::analyzeCircuit(c));
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
        const auto warnings = analysis::lintCircuit(
            c, analysis::analyzeCircuit(c), {spec});
        ASSERT_EQ(warnings.size(), 1u);
        EXPECT_EQ(warnings[0].code, LintCode::VacuousEntanglement);
        // The same spec on a real Bell pair is clean.
        Circuit bell(2, 2);
        bell.h(0).cx(0, 1).measureAll();
        EXPECT_TRUE(analysis::lintCircuit(
                        bell, analysis::analyzeCircuit(bell), {spec})
                        .empty());
    }
    // L004: measured qubit reused in a 2q gate without reset.
    {
        Circuit c(2, 2);
        c.h(0).measure(0, 0).cx(0, 1).measure(1, 1);
        const auto warnings = analysis::lintCircuit(
            c, analysis::analyzeCircuit(c));
        ASSERT_EQ(warnings.size(), 1u);
        EXPECT_EQ(warnings[0].code, LintCode::ReuseWithoutReset);
        // With a reset in between the reuse is legitimate.
        Circuit ok(2, 2);
        ok.h(0).measure(0, 0).reset(0).cx(0, 1).measure(1, 1);
        EXPECT_TRUE(
            analysis::lintCircuit(ok, analysis::analyzeCircuit(ok))
                .empty());
    }
    // L005: more qubits than the device has.
    {
        const CouplingMap map = DeviceModel::ibmqx4().couplingMap();
        Circuit c(6, 6);
        c.h(0).cx(4, 5).measureAll();
        const auto warnings = analysis::lintCircuit(
            c, analysis::analyzeCircuit(c), {}, &map);
        ASSERT_EQ(warnings.size(), 1u);
        EXPECT_EQ(warnings[0].code, LintCode::Unroutable);
    }
    // A well-formed Bell circuit on the device is completely clean.
    {
        const CouplingMap map = DeviceModel::ibmqx4().couplingMap();
        Circuit bell(2, 2);
        bell.h(0).cx(0, 1).measureAll();
        EXPECT_TRUE(analysis::lintCircuit(
                        bell, analysis::analyzeCircuit(bell), {}, &map)
                        .empty());
    }
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

TEST(AutoAssert, AnalysisMemoisedInPrepareCache)
{
    Circuit ghz = library::ghzState(3);
    ghz.addClbits(ghz.numQubits());
    ghz.measureAll();
    ExecutionEngine engine(EngineOptions{.threads = 2});
    runtime::JobQueue queue(engine);

    const JobSpec spec = autoSpec(ghz);
    const auto first = queue.analysis(spec);
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(first->cliffordPrefixGates, 3u);
    // Same spec: the cached Prepared entry (and its analysis) is
    // shared, not recomputed.
    EXPECT_EQ(queue.analysis(spec).get(), first.get());

    // A different budget is a different pipeline fingerprint.
    JobSpec tighter = spec;
    tighter.autoAssert.maxChecks = 1;
    EXPECT_EQ(queue.cacheMisses(), 0u); // introspection counts nothing
    queue.submit(spec).get();
    queue.submit(tighter).get();
    EXPECT_EQ(queue.cacheMisses(), 1u); // spec was already prepared
    queue.submit(tighter).get();
    EXPECT_EQ(queue.cacheHits(), 2u);

    // No analysis on pipelines without the analyze stage.
    JobSpec plain = spec;
    plain.injection = InjectionStrategy::Explicit;
    EXPECT_EQ(queue.analysis(plain), nullptr);
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
