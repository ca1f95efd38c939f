/** @file Tests for QASM assertion-comment directives. */

#include <gtest/gtest.h>

#include "assertions/directives.hh"
#include "common/error.hh"
#include "sim/statevector_simulator.hh"

namespace qra {
namespace {

/** Parse @p text and weave its directives into its payload. */
InstrumentedCircuit
instrumentText(const std::string &text)
{
    const AnnotatedProgram program = parseAnnotatedQasm(text);
    return instrument(program.payload, program.specs);
}

TEST(DirectivesTest, ClassicalDirective)
{
    const std::string text = R"(OPENQASM 2.0;
qreg q[2];
creg c[2];
x q[0];
// qra:assert-classical q[0] == 1
measure q[0] -> c[0];
measure q[1] -> c[1];
)";
    const AnnotatedProgram program = parseAnnotatedQasm(text);
    ASSERT_EQ(program.specs.size(), 1u);
    EXPECT_EQ(program.specs[0].insertAt, 1u); // after x q[0]
    EXPECT_EQ(program.specs[0].assertion->kind(),
              AssertionKind::Classical);
    EXPECT_EQ(program.payload.size(), 3u);

    const InstrumentedCircuit inst = instrumentText(text);
    StatevectorSimulator sim(1);
    const Result r = sim.run(inst.circuit(), 500);
    for (const auto &[reg, n] : r.rawCounts())
        EXPECT_TRUE(inst.passed(reg)) << reg;
}

TEST(DirectivesTest, ClassicalMultiQubitMsbFirst)
{
    // Value "10" with qubits listed q[1], q[0]: q1 = 1, q0 = 0.
    const std::string text = R"(OPENQASM 2.0;
qreg q[2];
x q[1];
// qra:assert-classical q[1], q[0] == 10
)";
    const InstrumentedCircuit inst = instrumentText(text);
    StatevectorSimulator sim(2);
    const Result r = sim.run(inst.circuit(), 300);
    for (const auto &[reg, n] : r.rawCounts())
        EXPECT_TRUE(inst.passed(reg)) << reg;
}

TEST(DirectivesTest, SuperpositionDirectivePlusAndMinus)
{
    const std::string plus_text = R"(OPENQASM 2.0;
qreg q[1];
h q[0];
// qra:assert-superposition q[0] +
)";
    const InstrumentedCircuit plus =
        instrumentText(plus_text);
    StatevectorSimulator sim(3);
    const Result rp = sim.run(plus.circuit(), 500);
    for (const auto &[reg, n] : rp.rawCounts())
        EXPECT_TRUE(plus.passed(reg));

    const std::string minus_text = R"(OPENQASM 2.0;
qreg q[1];
x q[0];
h q[0];
// qra:assert-superposition q[0] -
)";
    const InstrumentedCircuit minus =
        instrumentText(minus_text);
    const Result rm = sim.run(minus.circuit(), 500);
    for (const auto &[reg, n] : rm.rawCounts())
        EXPECT_TRUE(minus.passed(reg));
}

TEST(DirectivesTest, EntangledDirectiveWithModes)
{
    const std::string text = R"(OPENQASM 2.0;
qreg q[3];
h q[0];
cx q[0], q[1];
cx q[1], q[2];
// qra:assert-entangled q[0], q[1], q[2] chain
)";
    const AnnotatedProgram program = parseAnnotatedQasm(text);
    ASSERT_EQ(program.specs.size(), 1u);
    EXPECT_EQ(program.specs[0].insertAt, 3u);
    EXPECT_EQ(program.specs[0].assertion->numAncillas(), 2u);

    const InstrumentedCircuit inst = instrumentText(text);
    StatevectorSimulator sim(4);
    const Result r = sim.run(inst.circuit(), 500);
    for (const auto &[reg, n] : r.rawCounts())
        EXPECT_TRUE(inst.passed(reg));
}

TEST(DirectivesTest, OddParityDirective)
{
    const std::string text = R"(OPENQASM 2.0;
qreg q[2];
h q[0];
cx q[0], q[1];
x q[1];
// qra:assert-entangled q[0], q[1] odd
)";
    const InstrumentedCircuit inst = instrumentText(text);
    StatevectorSimulator sim(5);
    const Result r = sim.run(inst.circuit(), 500);
    for (const auto &[reg, n] : r.rawCounts())
        EXPECT_TRUE(inst.passed(reg));
}

TEST(DirectivesTest, DirectivePositionMatters)
{
    // The check sits between x and h: it must see |1>, not H|1>.
    const std::string text = R"(OPENQASM 2.0;
qreg q[1];
x q[0];
// qra:assert-classical q[0] == 1
h q[0];
)";
    const AnnotatedProgram program = parseAnnotatedQasm(text);
    EXPECT_EQ(program.specs[0].insertAt, 1u);

    const InstrumentedCircuit inst = instrumentText(text);
    StatevectorSimulator sim(6);
    const Result r = sim.run(inst.circuit(), 500);
    for (const auto &[reg, n] : r.rawCounts())
        EXPECT_TRUE(inst.passed(reg));
}

TEST(DirectivesTest, MultipleDirectives)
{
    const std::string text = R"(OPENQASM 2.0;
qreg q[2];
creg c[2];
// qra:assert-classical q[0] == 0
h q[0];
// qra:assert-superposition q[0] +
cx q[0], q[1];
// qra:assert-entangled q[0], q[1]
measure q[0] -> c[0];
measure q[1] -> c[1];
)";
    const AnnotatedProgram program = parseAnnotatedQasm(text);
    ASSERT_EQ(program.specs.size(), 3u);
    EXPECT_EQ(program.specs[0].insertAt, 0u);
    EXPECT_EQ(program.specs[1].insertAt, 1u);
    EXPECT_EQ(program.specs[2].insertAt, 2u);

    const InstrumentedCircuit inst = instrumentText(text);
    StatevectorSimulator sim(7);
    const Result r = sim.run(inst.circuit(), 1000);
    for (const auto &[reg, n] : r.rawCounts()) {
        EXPECT_TRUE(inst.passed(reg)) << reg;
        const std::uint64_t payload = inst.payloadBits(reg);
        EXPECT_TRUE(payload == 0b00 || payload == 0b11) << payload;
    }
}

TEST(DirectivesTest, DetectsPlantedBug)
{
    // Missing H: the superposition directive fires ~50%.
    const std::string text = R"(OPENQASM 2.0;
qreg q[1];
// qra:assert-superposition q[0] +
)";
    const InstrumentedCircuit inst = instrumentText(text);
    StatevectorSimulator sim(8);
    const Result r = sim.run(inst.circuit(), 20000);
    double errors = 0.0;
    for (const auto &[reg, n] : r.rawCounts())
        if (!inst.passed(reg))
            errors += double(n) / double(r.shots());
    EXPECT_NEAR(errors, 0.5, 0.02);
}

TEST(DirectivesTest, MalformedDirectivesThrow)
{
    const char *bad_texts[] = {
        // Unknown directive name.
        "OPENQASM 2.0;\nqreg q[1];\n// qra:assert-frobnicate "
        "q[0]\n",
        // Classical without value.
        "OPENQASM 2.0;\nqreg q[1];\n// qra:assert-classical q[0]\n",
        // Width mismatch.
        "OPENQASM 2.0;\nqreg q[2];\n// qra:assert-classical q[0] == "
        "10\n",
        // Superposition on two qubits.
        "OPENQASM 2.0;\nqreg q[2];\n// qra:assert-superposition "
        "q[0], q[1] +\n",
        // No qubits.
        "OPENQASM 2.0;\nqreg q[1];\n// qra:assert-entangled\n",
        // Bad qubit token.
        "OPENQASM 2.0;\nqreg q[1];\n// qra:assert-classical foo == "
        "0\n",
    };
    for (const char *text : bad_texts)
        EXPECT_THROW(parseAnnotatedQasm(text), QasmError) << text;
}

TEST(DirectivesTest, PostselectDirectiveStillWorks)
{
    // qra:postselect (the QASM exporter's directive) is not an
    // assertion directive and must flow into the payload.
    const std::string text = R"(OPENQASM 2.0;
qreg q[1];
h q[0];
// qra:postselect q[0] == 1
// qra:assert-classical q[0] == 1
)";
    const AnnotatedProgram program = parseAnnotatedQasm(text);
    ASSERT_EQ(program.specs.size(), 1u);
    EXPECT_EQ(program.payload.size(), 2u); // h + postselect
    EXPECT_EQ(program.specs[0].insertAt, 2u);

    const InstrumentedCircuit inst = instrumentText(text);
    StatevectorSimulator sim(9);
    const Result r = sim.run(inst.circuit(), 300);
    for (const auto &[reg, n] : r.rawCounts())
        EXPECT_TRUE(inst.passed(reg)) << reg;
}

} // namespace
} // namespace qra
