/**
 * @file
 * Randomised property tests across module boundaries: QASM
 * round-trips of random circuits (plain, and annotated text laid out
 * at random), optimizer idempotence, transpiler semantic preservation
 * under fuzzing, complex-phase extensions of the paper's proofs, and
 * register-limit enforcement.
 */

#include <cmath>
#include <sstream>

#include <gtest/gtest.h>

#include "assertions/directives.hh"
#include "assertions/injector.hh"
#include "assertions/superposition_assertion.hh"
#include "circuit/qasm.hh"
#include "common/error.hh"
#include "noise/device_model.hh"
#include "sim/statevector_simulator.hh"
#include "testutil.hh"
#include "transpile/optimizer.hh"
#include "transpile/transpiler.hh"

namespace qra {
namespace {

/** Random circuit over a configurable gate alphabet. */
Circuit
randomCircuit(std::size_t num_qubits, std::size_t num_gates,
              Rng &rng, bool with_measures)
{
    Circuit c(num_qubits, with_measures ? num_qubits : 0, "fuzz");
    for (std::size_t i = 0; i < num_gates; ++i) {
        const Qubit q = static_cast<Qubit>(rng.below(num_qubits));
        const Qubit r = static_cast<Qubit>(
            (q + 1 + rng.below(num_qubits - 1)) % num_qubits);
        switch (rng.below(10)) {
          case 0: c.h(q); break;
          case 1: c.x(q); break;
          case 2: c.s(q); break;
          case 3: c.t(q); break;
          case 4: c.rx(rng.uniform() * 2 * M_PI, q); break;
          case 5: c.rz(rng.uniform() * 2 * M_PI, q); break;
          case 6: c.u(rng.uniform() * M_PI, rng.uniform(),
                      rng.uniform(), q);
                  break;
          case 7: c.cx(q, r); break;
          case 8: c.cz(q, r); break;
          default: c.swap(q, r); break;
        }
    }
    if (with_measures)
        c.measureAll();
    return c;
}

class FuzzSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(FuzzSweep, QasmRoundTripPreservesCircuit)
{
    Rng rng(1000 + GetParam());
    const Circuit original = randomCircuit(4, 30, rng, true);
    const Circuit back = fromQasm(toQasm(original));
    ASSERT_EQ(back.size(), original.size());
    for (std::size_t i = 0; i < original.size(); ++i) {
        EXPECT_EQ(back.ops()[i].kind, original.ops()[i].kind) << i;
        EXPECT_EQ(back.ops()[i].qubits, original.ops()[i].qubits)
            << i;
        ASSERT_EQ(back.ops()[i].params.size(),
                  original.ops()[i].params.size());
        for (std::size_t p = 0; p < back.ops()[i].params.size(); ++p)
            EXPECT_NEAR(back.ops()[i].params[p],
                        original.ops()[i].params[p], 1e-9);
    }
}

TEST_P(FuzzSweep, QasmRoundTripPreservesSemantics)
{
    Rng rng(2000 + GetParam());
    const Circuit original = randomCircuit(4, 25, rng, false);
    const Circuit back = fromQasm(toQasm(original));
    StatevectorSimulator sim(1);
    const StateVector a = sim.finalState(original);
    const StateVector b = sim.finalState(back);
    EXPECT_NEAR(a.fidelityWith(b), 1.0, 1e-9);
}

TEST_P(FuzzSweep, TranspilerPreservesDistributions)
{
    Rng rng(3000 + GetParam());
    const Circuit original = randomCircuit(4, 20, rng, true);
    const DeviceModel device = DeviceModel::ibmqx4();
    const TranspileResult mapped =
        transpile(original, device.couplingMap());

    // Every 2-qubit gate must respect the coupling map.
    for (const Operation &op : mapped.circuit.ops()) {
        if (op.qubits.size() == 2 && opIsUnitary(op.kind)) {
            EXPECT_TRUE(device.couplingMap().connected(op.qubits[0],
                                                       op.qubits[1]))
                << op.str();
            if (op.kind == OpKind::CX) {
                EXPECT_TRUE(device.couplingMap().hasEdge(
                    op.qubits[0], op.qubits[1]))
                    << op.str();
            }
        }
    }

    // Outcome distributions agree within sampling noise.
    StatevectorSimulator sim(50 + GetParam());
    const Result ideal = sim.run(original, 20000);
    sim.seed(90 + GetParam());
    const Result routed = sim.run(mapped.circuit, 20000);
    for (const auto &[key, n] : ideal.rawCounts()) {
        EXPECT_NEAR(double(n) / 20000.0, routed.probability(key),
                    0.025)
            << "outcome " << key;
    }
}

/** One line of a canonical annotated program. */
struct Piece
{
    std::string text;
    /** A `//` directive: it runs to the end of its line. */
    bool comment;
};

/**
 * Lay @p pieces out at random: several statements per line,
 * statements split across lines (with a comment inside the split),
 * trailing comments, CRLF, and directives after a statement on its
 * line or on their own line.
 */
std::string
randomLayout(const std::vector<Piece> &pieces, Rng &rng)
{
    const std::string eol = rng.below(2) ? "\r\n" : "\n";
    std::string text;
    for (const Piece &piece : pieces) {
        if (piece.comment) {
            const bool fresh_line = text.empty() || text.back() == '\n';
            if (!fresh_line && rng.below(2))
                text += eol;
            text += (fresh_line ? "" : " ") + piece.text + eol;
            continue;
        }
        std::string stmt = piece.text;
        if (rng.below(3) == 0) {
            const std::size_t comma = stmt.find(", ");
            const std::size_t space = stmt.find(' ');
            if (comma != std::string::npos)
                stmt.replace(comma, 2,
                             rng.below(2) ? "," + eol : ", // split" + eol);
            else if (space != std::string::npos)
                stmt.replace(space, 1, eol);
        }
        text += stmt;
        switch (rng.below(4)) {
          case 0: text += rng.below(2) ? " " : ""; break;
          case 1: text += " // note" + eol; break;
          default: text += eol; break;
        }
    }
    return text;
}

TEST_P(FuzzSweep, AnnotatedQasmLayoutsParseToCanonical)
{
    Rng rng(4000 + GetParam());
    Circuit original = randomCircuit(4, 30, rng, true);
    for (int k = 0; k < 3; ++k) {
        Operation post{.kind = OpKind::PostSelect,
                       .qubits = {static_cast<Qubit>(rng.below(4))}};
        post.postselectValue = static_cast<int>(rng.below(2));
        original.insert(rng.below(original.size() + 1), std::move(post));
    }

    // toQasm writes one statement or postselect per line; weave assert
    // directives in between and remember where each one applies.
    std::vector<Piece> pieces;
    std::vector<std::size_t> expected_at;
    std::size_t ops_before = 0;
    std::istringstream lines(toQasm(original));
    for (std::string line; std::getline(lines, line);) {
        const bool is_op = line.rfind("//", 0) == 0 ||
                           !(line.rfind("OPENQASM", 0) == 0 ||
                             line.rfind("include", 0) == 0 ||
                             line.rfind("qreg", 0) == 0 ||
                             line.rfind("creg", 0) == 0);
        pieces.push_back({line, line.rfind("//", 0) == 0});
        ops_before += is_op ? 1 : 0;
        if (is_op && rng.below(4) == 0) {
            const Qubit q = static_cast<Qubit>(rng.below(4));
            const Qubit r = (q + 1) % 4;
            const std::string directive[] = {
                "// qra:assert-superposition q[" + std::to_string(q) + "] -",
                "// qra:assert-entangled q[" + std::to_string(q) + "], q[" +
                    std::to_string(r) + "] odd",
                "// qra:assert-classical q[" + std::to_string(q) + "], q[" +
                    std::to_string(r) + "] == 10"};
            pieces.push_back({directive[rng.below(3)], true});
            expected_at.push_back(ops_before);
        }
    }

    std::string canonical_text;
    for (const Piece &piece : pieces)
        canonical_text += piece.text + "\n";
    const AnnotatedProgram canonical = parseAnnotatedQasm(canonical_text);
    ASSERT_TRUE(canonical.payload == original);
    ASSERT_EQ(canonical.specs.size(), expected_at.size());
    for (std::size_t i = 0; i < expected_at.size(); ++i)
        EXPECT_EQ(canonical.specs[i].insertAt, expected_at[i]) << i;

    for (int layout = 0; layout < 8; ++layout) {
        const std::string text = randomLayout(pieces, rng);
        const AnnotatedProgram got = parseAnnotatedQasm(text);
        EXPECT_TRUE(got.payload == original) << text;
        EXPECT_EQ(got.payload.hash(), original.hash());
        EXPECT_TRUE(fromQasm(text) == original);
        ASSERT_EQ(got.specs.size(), canonical.specs.size()) << text;
        for (std::size_t i = 0; i < got.specs.size(); ++i) {
            EXPECT_EQ(got.specs[i].insertAt, canonical.specs[i].insertAt)
                << text;
            EXPECT_EQ(got.specs[i].targets, canonical.specs[i].targets);
            EXPECT_EQ(got.specs[i].label, canonical.specs[i].label);
        }
    }
}

TEST_P(FuzzSweep, OptimizerReachesItsFixedPointInOnePass)
{
    // Two qubits and a cancel-rich alphabet make long chains of
    // adjacent inverse pairs and mergeable rotations.
    Rng rng(5000 + GetParam());
    Circuit c(2, 2, "fuzz");
    for (int i = 0; i < 200; ++i) {
        const Qubit q = static_cast<Qubit>(rng.below(2));
        switch (rng.below(9)) {
          case 0: c.h(q); break;
          case 1: c.x(q); break;
          case 2: c.s(q); break;
          case 3: c.sdg(q); break;
          case 4: c.t(q); break;
          case 5: c.tdg(q); break;
          case 6: c.rz(rng.below(2) ? M_PI : -M_PI, q); break;
          case 7: c.cx(q, 1 - q); break;
          default:
            if (rng.below(4) == 0)
                c.barrier();
            else
                c.rx(0.5 * static_cast<double>(rng.below(4)), q);
            break;
        }
    }
    const OptimizeResult once = optimizeCircuit(c);
    EXPECT_GT(once.cancelledGates + once.mergedRotations, 0u);
    const OptimizeResult twice = optimizeCircuit(once.circuit);
    EXPECT_EQ(twice.cancelledGates, 0u);
    EXPECT_EQ(twice.mergedRotations, 0u);
    EXPECT_TRUE(twice.circuit == once.circuit);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSweep, ::testing::Range(0, 8));

// ---------------------------------------------------------------
// Complex-phase extension of the Sec. 3.3 proof: for a general
// state a|0> + b|1> (complex b), the superposition assertion's
// error probability is |a - b|^2 / 2.
// ---------------------------------------------------------------

class ComplexPhaseSweep : public ::testing::TestWithParam<double>
{
};

TEST_P(ComplexPhaseSweep, SuperpositionErrorIsHalfDistanceSquared)
{
    const double phi = GetParam();
    for (double theta : {0.5, M_PI / 2, 2.0}) {
        // |psi> = cos(t/2)|0> + e^{i phi} sin(t/2)|1>.
        Circuit payload(1, 0);
        payload.u(theta, phi, 0.0, 0);

        AssertionSpec spec;
        spec.assertion = std::make_shared<SuperpositionAssertion>();
        spec.targets = {0};
        spec.insertAt = 1;
        InstrumentOptions opts;
        opts.barriers = false;
        const InstrumentedCircuit inst =
            instrument(payload, {spec}, opts);

        Circuit no_measure(inst.circuit().numQubits(), 0);
        for (const Operation &op : inst.circuit().ops())
            if (op.kind != OpKind::Measure)
                no_measure.append(op);

        StatevectorSimulator sim(1);
        const double measured =
            sim.finalState(no_measure)
                .probabilityOfOne(inst.checks()[0].ancillas[0]);

        const Complex a{std::cos(theta / 2.0), 0.0};
        const Complex b =
            std::polar(std::sin(theta / 2.0), phi);
        const double expected = std::norm(a - b) / 2.0;
        EXPECT_NEAR(measured, expected, 1e-10)
            << "theta " << theta << " phi " << phi;
    }
}

INSTANTIATE_TEST_SUITE_P(PhiGrid, ComplexPhaseSweep,
                         ::testing::Values(0.0, 0.5, M_PI / 2, 2.0,
                                           M_PI, 4.5));

// ---------------------------------------------------------------
// Classical register limits (results pack into 64-bit words).
// ---------------------------------------------------------------

TEST(RegisterLimitTest, ClbitCapEnforced)
{
    EXPECT_NO_THROW(Circuit(2, 63));
    EXPECT_THROW(Circuit(2, 64), CircuitError);

    Circuit c(2, 60);
    EXPECT_NO_THROW(c.addClbits(3));
    EXPECT_THROW(c.addClbits(1), CircuitError);
}

TEST(RegisterLimitTest, WideRegisterStillWorks)
{
    // 63 clbits: the top bit (62) must round-trip through Result.
    Circuit c(2, 63);
    c.x(0).measure(0, 62);
    StatevectorSimulator sim(1);
    const Result r = sim.run(c, 10);
    EXPECT_EQ(r.count(std::uint64_t{1} << 62), 10u);
}

} // namespace
} // namespace qra
