/** @file Tests for OpenQASM 2.0 export and import. */

#include <cstdio>
#include <map>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "assertions/directives.hh"
#include "circuit/qasm.hh"
#include "common/error.hh"
#include "common/hash.hh"
#include "common/rng.hh"
#include "paper_circuits.hh"
#include "testutil.hh"

namespace qra {
namespace {

TEST(QasmTest, ExportHeaderAndRegisters)
{
    Circuit c(3, 2);
    const std::string qasm = toQasm(c);
    EXPECT_NE(qasm.find("OPENQASM 2.0;"), std::string::npos);
    EXPECT_NE(qasm.find("qreg q[3];"), std::string::npos);
    EXPECT_NE(qasm.find("creg c[2];"), std::string::npos);
}

TEST(QasmTest, ExportGatesAndMeasure)
{
    Circuit c(2, 2);
    c.h(0).cx(0, 1).measure(1, 0);
    const std::string qasm = toQasm(c);
    EXPECT_NE(qasm.find("h q[0];"), std::string::npos);
    EXPECT_NE(qasm.find("cx q[0], q[1];"), std::string::npos);
    EXPECT_NE(qasm.find("measure q[1] -> c[0];"), std::string::npos);
}

TEST(QasmTest, ExportParameters)
{
    Circuit c(1);
    c.rx(0.5, 0);
    EXPECT_NE(toQasm(c).find("rx(0.5) q[0];"), std::string::npos);
}

TEST(QasmTest, RoundTripSimple)
{
    Circuit c(2, 2);
    c.h(0).cx(0, 1).measure(0, 0).measure(1, 1);
    const Circuit back = fromQasm(toQasm(c));
    EXPECT_EQ(back.numQubits(), 2u);
    EXPECT_EQ(back.numClbits(), 2u);
    ASSERT_EQ(back.size(), c.size());
    for (std::size_t i = 0; i < c.size(); ++i)
        EXPECT_TRUE(back.ops()[i] == c.ops()[i]) << i;
}

TEST(QasmTest, RoundTripAllGateKinds)
{
    Circuit c(3, 1);
    c.i(0).x(0).y(1).z(2).h(0).s(1).sdg(2).t(0).tdg(1).sx(2);
    c.rx(0.1, 0).ry(0.2, 1).rz(0.3, 2).p(0.4, 0).u(0.5, 0.6, 0.7, 1);
    c.cx(0, 1).cy(1, 2).cz(0, 2).swap(0, 1).ccx(0, 1, 2);
    c.reset(0).barrier().measure(2, 0);

    const Circuit back = fromQasm(toQasm(c));
    ASSERT_EQ(back.size(), c.size());
    for (std::size_t i = 0; i < c.size(); ++i)
        EXPECT_TRUE(back.ops()[i] == c.ops()[i])
            << i << ": " << c.ops()[i].str();
}

TEST(QasmTest, RoundTripPostSelectDirective)
{
    Circuit c(2, 1);
    c.h(0).postSelect(0, 1).measure(1, 0);
    const Circuit back = fromQasm(toQasm(c));
    ASSERT_EQ(back.size(), 3u);
    EXPECT_EQ(back.ops()[1].kind, OpKind::PostSelect);
    EXPECT_EQ(back.ops()[1].postselectValue, 1);
}

TEST(QasmTest, ImportPiExpressions)
{
    const std::string text = R"(OPENQASM 2.0;
qreg q[1];
rx(pi/2) q[0];
rz(-pi) q[0];
p(2*pi/4) q[0];
ry(pi/2 + pi/4) q[0];
)";
    const Circuit c = fromQasm(text);
    ASSERT_EQ(c.size(), 4u);
    EXPECT_NEAR(c.ops()[0].params[0], M_PI / 2, 1e-12);
    EXPECT_NEAR(c.ops()[1].params[0], -M_PI, 1e-12);
    EXPECT_NEAR(c.ops()[2].params[0], M_PI / 2, 1e-12);
    EXPECT_NEAR(c.ops()[3].params[0], 0.75 * M_PI, 1e-12);
}

TEST(QasmTest, ImportParenthesisedExpression)
{
    const std::string text =
        "OPENQASM 2.0;\nqreg q[1];\nrx((1+2)*0.5) q[0];\n";
    const Circuit c = fromQasm(text);
    EXPECT_NEAR(c.ops()[0].params[0], 1.5, 1e-12);
}

TEST(QasmTest, ImportU2U3Aliases)
{
    const std::string text = R"(OPENQASM 2.0;
qreg q[1];
u3(0.1, 0.2, 0.3) q[0];
u2(0.4, 0.5) q[0];
u1(0.6) q[0];
)";
    const Circuit c = fromQasm(text);
    ASSERT_EQ(c.size(), 3u);
    EXPECT_EQ(c.ops()[0].kind, OpKind::U);
    EXPECT_EQ(c.ops()[1].kind, OpKind::U);
    EXPECT_NEAR(c.ops()[1].params[0], M_PI / 2, 1e-12);
    EXPECT_EQ(c.ops()[2].kind, OpKind::P);
}

TEST(QasmTest, ImportIgnoresComments)
{
    const std::string text = R"(OPENQASM 2.0;
// a comment line
qreg q[1]; // trailing comment
h q[0];
)";
    const Circuit c = fromQasm(text);
    EXPECT_EQ(c.size(), 1u);
}

TEST(QasmTest, ImportErrors)
{
    EXPECT_THROW(fromQasm("OPENQASM 2.0;\nh q[0];\n"), QasmError);
    EXPECT_THROW(fromQasm("OPENQASM 2.0;\nqreg q[1];\nfrobnicate "
                          "q[0];\n"),
                 QasmError);
    EXPECT_THROW(
        fromQasm("OPENQASM 2.0;\nqreg q[1];\nqreg q[2];\nh q[0];\n"),
        QasmError);
    EXPECT_THROW(
        fromQasm("OPENQASM 2.0;\nqreg q[1];\nrx(1/0) q[0];\n"),
        QasmError);
    EXPECT_THROW(
        fromQasm("OPENQASM 2.0;\nqreg q[1];\nmeasure q[0];\n"),
        QasmError);
}

TEST(QasmTest, ImportDivisionByZeroExpression)
{
    EXPECT_THROW(
        fromQasm("OPENQASM 2.0;\nqreg q[1];\nrx(pi/(1-1)) q[0];\n"),
        QasmError);
}

TEST(QasmTest, BarrierSubsetRoundTrip)
{
    Circuit c(3);
    c.barrier({0, 2});
    const Circuit back = fromQasm(toQasm(c));
    ASSERT_EQ(back.size(), 1u);
    EXPECT_EQ(back.ops()[0].kind, OpKind::Barrier);
    EXPECT_EQ(back.ops()[0].qubits, (std::vector<Qubit>{0, 2}));
}


TEST(QasmTest, StatementBeforeDirectiveOnOneLine)
{
    // The statement ends before the directive, so the check runs after
    // it: the X must reach the payload and the check must see |1>.
    const std::string text = "OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\n"
                             "x q[0]; // qra:assert-classical q[0] == 1\n"
                             "measure q[0] -> c[0];\n";
    const AnnotatedProgram program = parseAnnotatedQasm(text);
    ASSERT_EQ(program.payload.size(), 2u);
    EXPECT_EQ(program.payload.ops()[0].kind, OpKind::X);
    ASSERT_EQ(program.specs.size(), 1u);
    EXPECT_EQ(program.specs[0].insertAt, 1u);
    EXPECT_EQ(fromQasm(text).size(), 2u);
}

TEST(QasmTest, StatementBeforePostselectOnOneLine)
{
    const std::string text = "OPENQASM 2.0;\nqreg q[2];\ncreg c[1];\n"
                             "h q[0]; // qra:postselect q[0] == 1\n"
                             "measure q[1] -> c[0];\n";
    for (const Circuit &c :
         {fromQasm(text), parseAnnotatedQasm(text).payload}) {
        ASSERT_EQ(c.size(), 3u);
        EXPECT_EQ(c.ops()[0].kind, OpKind::H);
        EXPECT_EQ(c.ops()[1].kind, OpKind::PostSelect);
        EXPECT_EQ(c.ops()[2].kind, OpKind::Measure);
    }
}

TEST(QasmTest, DirectiveIndexCountsStatementsNotLines)
{
    // One statement over two lines is one op; a directive inside a
    // statement runs before it.
    const AnnotatedProgram after = parseAnnotatedQasm(
        "OPENQASM 2.0;\nqreg q[2];\ncx q[0],\nq[1];\n"
        "// qra:assert-entangled q[0], q[1]\n");
    ASSERT_EQ(after.payload.size(), 1u);
    ASSERT_EQ(after.specs.size(), 1u);
    EXPECT_EQ(after.specs[0].insertAt, 1u);

    const AnnotatedProgram inside = parseAnnotatedQasm(
        "OPENQASM 2.0;\nqreg q[2];\nh q[0]; cx q[0],\n"
        "// qra:assert-classical q[1] == 0\nq[1];\n");
    ASSERT_EQ(inside.payload.size(), 2u);
    ASSERT_EQ(inside.specs.size(), 1u);
    EXPECT_EQ(inside.specs[0].insertAt, 1u);
}

TEST(QasmTest, OversizedRegisterIndexIsQasmError)
{
    EXPECT_THROW(fromQasm("OPENQASM 2.0;\nqreg q[1];\n"
                          "x q[99999999999999999999];\n"),
                 QasmError);
    EXPECT_THROW(fromQasm("OPENQASM 2.0;\nqreg q[99999999999999999999];\n"),
                 QasmError);
    // Fits a size_t but not a qubit index: no silent wrap to q[0].
    EXPECT_THROW(fromQasm("OPENQASM 2.0;\nqreg q[1];\nx q[4294967296];\n"),
                 QasmError);
    EXPECT_THROW(parseAnnotatedQasm(
                     "OPENQASM 2.0;\nqreg q[1];\n"
                     "// qra:assert-classical q[99999999999999999999] == 0\n"),
                 QasmError);
}

TEST(QasmTest, RegisterBroadcastExpandsToEveryIndex)
{
    // OpenQASM 2: a bare register operand stands for each of its
    // indices in turn, and the statement repeats once per index.
    const Circuit c = fromQasm("OPENQASM 2.0;\nqreg q[3];\ncreg c[3];\n"
                               "h q;\nrz(pi/4) q;\nbarrier q;\nreset q;\n"
                               "measure q -> c;\n");
    ASSERT_EQ(c.size(), 13u) << toQasm(c);
    const OpKind kinds[] = {OpKind::H, OpKind::RZ, OpKind::Barrier,
                            OpKind::Reset, OpKind::Measure};
    std::size_t at = 0;
    for (const OpKind kind : kinds) {
        if (kind == OpKind::Barrier) {
            EXPECT_EQ(c.ops()[at].kind, OpKind::Barrier);
            EXPECT_EQ(c.ops()[at].qubits, (std::vector<Qubit>{0, 1, 2}));
            ++at;
            continue;
        }
        for (Qubit i = 0; i < 3; ++i, ++at) {
            EXPECT_EQ(c.ops()[at].kind, kind) << at;
            EXPECT_EQ(c.ops()[at].qubits, std::vector<Qubit>{i}) << at;
            if (kind == OpKind::Measure) {
                EXPECT_EQ(*c.ops()[at].clbit, i);
            }
        }
    }
    // A register beside one of its own qubits repeats that qubit.
    EXPECT_THROW(fromQasm("OPENQASM 2.0;\nqreg q[2];\ncx q[0], q;\n"),
                 Error);
}

TEST(QasmTest, RegisterBroadcastMatchesIndexedText)
{
    const std::string broadcast =
        "OPENQASM 2.0;\nqreg q[3];\ncreg c[3];\nh q;\nu2(0.1, 0.2) q;\n"
        "barrier q;\ncx q[1], q[2];\nreset q;\nmeasure q -> c;\n";
    const std::string indexed =
        "OPENQASM 2.0;\nqreg q[3];\ncreg c[3];\n"
        "h q[0];\nh q[1];\nh q[2];\n"
        "u2(0.1, 0.2) q[0];\nu2(0.1, 0.2) q[1];\nu2(0.1, 0.2) q[2];\n"
        "barrier q[0], q[1], q[2];\ncx q[1], q[2];\n"
        "reset q[0];\nreset q[1];\nreset q[2];\n"
        "measure q[0] -> c[0];\nmeasure q[1] -> c[1];\n"
        "measure q[2] -> c[2];\n";
    EXPECT_EQ(toQasm(fromQasm(broadcast)), toQasm(fromQasm(indexed)));
    EXPECT_EQ(parseAnnotatedQasm(broadcast).payload.hash(),
              fromQasm(indexed).hash());
}

TEST(QasmTest, RegisterBroadcastRejectsMismatchedRegisters)
{
    const auto message = [](const std::string &body) {
        try {
            fromQasm("OPENQASM 2.0;\n" + body);
        } catch (const QasmError &e) {
            return std::string(e.what());
        }
        return std::string("no error");
    };
    EXPECT_EQ(message("qreg q[3];\ncreg c[2];\nmeasure q -> c;\n"),
              "measure registers differ in size: q[3] -> c[2]");
    EXPECT_EQ(message("qreg q[2];\nmeasure q -> c;\n"),
              "measure registers differ in size: q[2] -> c[0]");
    EXPECT_EQ(message("qreg q[2];\ncreg c[2];\nmeasure q -> c[0];\n"),
              "measure needs two registers or two bits: measure q -> c[0]");
    EXPECT_EQ(message("qreg q[2];\ncreg c[2];\nmeasure q[0] -> c;\n"),
              "measure needs two registers or two bits: measure q[0] -> c");
    EXPECT_EQ(message("qreg q[2];\nh r;\n"), "expected q[i], got 'r'");
    // The largest index is no register's: it must not read as "q".
    EXPECT_EQ(message("qreg q[1];\nx q[4294967295];\n"),
              "register index out of range in 'q[4294967295]'");
}

TEST(QasmTest, UnreadableNumberIsQasmError)
{
    for (const char *expr : {".", "e5", "1e999", "-1e999"})
        EXPECT_THROW(fromQasm(std::string("OPENQASM 2.0;\nqreg q[1];\nrx(") +
                              expr + ") q[0];\n"),
                     QasmError)
            << expr;
}

// --- Parity pins -------------------------------------------------------
//
// QasmGolden pins what the reader makes of a fixed corpus: the payload's
// Circuit::hash and toQasm text, fromQasm's hash of the same text, and
// every directive's spec. The digests were taken with the earlier
// two-pass line reader and are never edited: a reader rewrite must
// reproduce them exactly. The corpus avoids the inputs that reader
// got wrong (see the bugfix tests above).

std::string
readSourceFile(const std::string &relpath)
{
    std::ifstream in(std::string(QRA_SOURCE_DIR) + "/" + relpath);
    EXPECT_TRUE(in.good()) << relpath;
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

std::string
qubitRef(std::uint64_t q)
{
    return "q[" + std::to_string(q) + "]";
}

/**
 * Seeded Clifford-block text: one statement per line or several on a
 * line, trailing comments, barriers, resets, postselects on their own
 * line and assert directives between statements.
 */
std::string
cliffordBlockText(std::uint64_t seed)
{
    Rng rng(seed);
    const std::uint64_t n = 3 + rng.below(6);
    std::string text = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[" +
                       std::to_string(n) + "];\ncreg c[" +
                       std::to_string(n) + "];\n";
    const char *one_q[] = {"h", "x", "y", "z", "s", "sdg", "t", "tdg",
                           "sx", "id"};
    const char *two_q[] = {"cx", "cy", "cz", "swap"};
    const std::uint64_t statements = 20 + rng.below(40);
    for (std::uint64_t i = 0; i < statements; ++i) {
        const std::uint64_t a = rng.below(n);
        const std::uint64_t b = (a + 1 + rng.below(n - 1)) % n;
        const std::uint64_t c = (b + 1 + rng.below(n - 2)) % n;
        std::string stmt;
        switch (rng.below(10)) {
          case 0: case 1: case 2: case 3:
            stmt = std::string(one_q[rng.below(10)]) + " " + qubitRef(a);
            break;
          case 4: case 5: case 6:
            stmt = std::string(two_q[rng.below(4)]) + " " + qubitRef(a) +
                   (rng.below(2) ? "," : ", ") + qubitRef(b);
            break;
          case 7:
            stmt = (c == a || c == b)
                       ? "cx " + qubitRef(a) + "," + qubitRef(b)
                       : "ccx " + qubitRef(a) + "," + qubitRef(b) + "," +
                             qubitRef(c);
            break;
          case 8:
            stmt = rng.below(2) ? "barrier q"
                                : "barrier " + qubitRef(a) + ", " +
                                      qubitRef(b);
            break;
          default:
            stmt = rng.below(2) ? "reset " + qubitRef(a)
                                : "measure " + qubitRef(a) + " -> c[" +
                                      std::to_string(b) + "]";
            break;
        }
        text += stmt + ";";
        switch (rng.below(8)) {
          case 0: text += " "; continue; // next statement on this line
          case 1: text += " // note " + std::to_string(i) + "\n"; break;
          default: text += "\n"; break;
        }
        switch (rng.below(12)) {
          case 0:
            text += "// qra:assert-classical " + qubitRef(a) + ", " +
                    qubitRef(b) + " == " + (rng.below(2) ? "10" : "01") +
                    "\n";
            break;
          case 1:
            text += "// qra:assert-superposition " + qubitRef(a) +
                    (rng.below(2) ? " -" : " +") + "\n";
            break;
          case 2:
            text += "// qra:assert-entangled " + qubitRef(a) + ", " +
                    qubitRef(b) +
                    (rng.below(2) ? " odd" : rng.below(2) ? " chain" : "") +
                    "\n";
            break;
          case 3:
            text += "// qra:postselect " + qubitRef(a) + " == " +
                    std::to_string(rng.below(2)) + "\n";
            break;
          case 4:
            text += "// a plain comment\n\n";
            break;
          default:
            break;
        }
    }
    return text + "\n";
}

/**
 * Seeded ansatz text: ry/rz layers printed with %.17g, parameter
 * expressions over pi, the u/u1/u2/u3 aliases and a CX ladder.
 */
std::string
ansatzText(std::uint64_t seed)
{
    Rng rng(seed);
    const std::uint64_t n = 3 + rng.below(4);
    std::string text = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[" +
                       std::to_string(n) + "];\ncreg c[" +
                       std::to_string(n) + "];\n";
    text += "h q[0];\ncx q[0],q[1];\ncx q[1],q[2];\n"
            "// qra:assert-entangled q[0], q[1], q[2]\n";
    const char *exprs[] = {"pi/2", "-pi", "2*pi/3", "(1+2)*0.5",
                           "-(pi/4) + 1e-3", "1.5e2/7", "+.25", "pi - -pi"};
    char buf[64];
    for (int layer = 0; layer < 3; ++layer) {
        for (std::uint64_t k = 0; k < n; ++k) {
            std::snprintf(buf, sizeof buf, "ry(%.17g) ",
                          (rng.uniform() - 0.5) * 4 * M_PI);
            text += buf + qubitRef(k) + ";\n";
            std::snprintf(buf, sizeof buf, "rz(%.17g) ",
                          rng.uniform() * 1e-9);
            text += buf + qubitRef(k) + ";\n";
        }
        const std::uint64_t q = rng.below(n);
        switch (rng.below(4)) {
          case 0:
            text += std::string("u3(") + exprs[rng.below(8)] + ", " +
                    exprs[rng.below(8)] + ", " + exprs[rng.below(8)] +
                    ") " + qubitRef(q) + ";\n";
            break;
          case 1:
            text += std::string("u2(") + exprs[rng.below(8)] + ", " +
                    exprs[rng.below(8)] + ") " + qubitRef(q) + ";\n";
            break;
          case 2:
            text += std::string("u1(") + exprs[rng.below(8)] + ") " +
                    qubitRef(q) + ";\n";
            break;
          default:
            text += std::string("p(") + exprs[rng.below(8)] + ") " +
                    qubitRef(q) + ";\n";
            break;
        }
        for (std::uint64_t k = 0; k + 1 < n; ++k)
            text += "cx " + qubitRef(k) + "," + qubitRef(k + 1) + ";\n";
        text += "// qra:assert-superposition " + qubitRef(rng.below(n)) +
                "\n";
    }
    for (std::uint64_t k = 0; k < n; ++k)
        text += "measure " + qubitRef(k) + " -> c[" + std::to_string(k) +
                "];\n";
    return text;
}

/** Digest of everything the reader produces for @p text. */
std::uint64_t
readerDigest(const std::string &text)
{
    const AnnotatedProgram program = parseAnnotatedQasm(text);
    std::uint64_t h = kFnv1aOffset;
    h = fnv1aMix64(h, program.payload.hash());
    h = fnv1aMixString(h, toQasm(program.payload));
    h = fnv1aMix64(h, fromQasm(text).hash());
    h = fnv1aMix64(h, program.specs.size());
    for (const AssertionSpec &spec : program.specs) {
        const Assertion &a = *spec.assertion;
        h = fnv1aMix64(h, static_cast<std::uint64_t>(a.kind()));
        // The emitted check pins the parsed parity, mode and sign.
        Circuit scratch(a.numTargets() + a.numAncillas(), a.numAncillas());
        std::vector<Qubit> targets(a.numTargets());
        std::vector<Qubit> ancillas(a.numAncillas());
        std::vector<Clbit> clbits(a.numAncillas());
        for (std::size_t j = 0; j < targets.size(); ++j)
            targets[j] = static_cast<Qubit>(j);
        for (std::size_t j = 0; j < ancillas.size(); ++j) {
            ancillas[j] = static_cast<Qubit>(targets.size() + j);
            clbits[j] = static_cast<Clbit>(j);
        }
        a.emit(scratch, targets, ancillas, clbits);
        h = fnv1aMix64(h, scratch.hash());
        h = fnv1aMix64(h, spec.targets.size());
        for (const Qubit q : spec.targets)
            h = fnv1aMix64(h, q);
        h = fnv1aMix64(h, spec.insertAt);
        h = fnv1aMixString(h, spec.label);
    }
    return h;
}

std::vector<std::pair<std::string, std::string>>
goldenCorpus()
{
    std::vector<std::pair<std::string, std::string>> corpus;
    corpus.emplace_back("examples/bell_assert.qasm",
                        readSourceFile("examples/bell_assert.qasm"));
    for (const char *lint :
         {"ancilla_reuse", "gate_after_measure", "never_observed",
          "unroutable_6q", "vacuous_entangled"}) {
        const std::string path = std::string("tests/lint/") + lint + ".qasm";
        corpus.emplace_back(path, readSourceFile(path));
    }
    for (const test::PaperSource &source : test::paperSources())
        corpus.emplace_back(source.name, source.text);
    for (std::uint64_t seed = 1; seed <= 12; ++seed)
        corpus.emplace_back("clifford_" + std::to_string(seed),
                            cliffordBlockText(seed));
    for (std::uint64_t seed = 1; seed <= 8; ++seed)
        corpus.emplace_back("ansatz_" + std::to_string(seed),
                            ansatzText(seed));
    return corpus;
}

TEST(QasmGolden, CorpusDigests)
{
    const std::map<std::string, std::uint64_t> expected = {
        {"examples/bell_assert.qasm", 0x8ff87ac2a1b8ee79ULL},
        {"tests/lint/ancilla_reuse.qasm", 0xc365c273bef799dbULL},
        {"tests/lint/gate_after_measure.qasm", 0x798c5e0c803b4e27ULL},
        {"tests/lint/never_observed.qasm", 0x82834e6c6b777186ULL},
        {"tests/lint/unroutable_6q.qasm", 0xba9d66cc7ff9669bULL},
        {"tests/lint/vacuous_entangled.qasm", 0xfc1c980752f13fc6ULL},
        {"table1", 0x9034b9255786bb0cULL},
        {"table2_bell", 0x8ff87ac2a1b8ee79ULL},
        {"sec43_plus", 0x4fbdf84fae698c67ULL},
        {"fig4_ghz3", 0x56f54d0db1fcb740ULL},
        {"ghz4_auto", 0xb204762a5cf518b3ULL},
        {"w3_auto", 0xd04fdca896fa6652ULL},
        {"table1_x2", 0x41aacc2fb9ce3bc1ULL},
        {"table2_bell_x2", 0xa09ec9419d9f1b25ULL},
        {"sec43_plus_x2", 0x337a158e6f66ff4fULL},
        {"fig4_ghz3_seq", 0x7e1d2bd41e1aebc8ULL},
        {"ghz4_seq", 0x99b023164a613d5eULL},
        {"clifford_1", 0xd2e7a899474175a1ULL},
        {"clifford_2", 0x51e3baa5d25a8c0ULL},
        {"clifford_3", 0x43a22fa08536dc31ULL},
        {"clifford_4", 0xc82978052d1389f8ULL},
        {"clifford_5", 0x8f6a84bd88528e46ULL},
        {"clifford_6", 0xe46d24ccdb7339b0ULL},
        {"clifford_7", 0xf6818fa266da3573ULL},
        {"clifford_8", 0x3e3385aee1440ef0ULL},
        {"clifford_9", 0xc758c96c5b3a7586ULL},
        {"clifford_10", 0xa8521a7c0cba318eULL},
        {"clifford_11", 0x6e503e4579440ad4ULL},
        {"clifford_12", 0x6550e37bae58816eULL},
        {"ansatz_1", 0xa624606fa7a248faULL},
        {"ansatz_2", 0x2e2be1e46785216aULL},
        {"ansatz_3", 0xa34426eaf5e53b44ULL},
        {"ansatz_4", 0xe4acc1bd5adb3a98ULL},
        {"ansatz_5", 0xe201f280f7d03ccdULL},
        {"ansatz_6", 0x4110c96922461b74ULL},
        {"ansatz_7", 0x9c24e44cc47ae912ULL},
        {"ansatz_8", 0x1029b0ab79210781ULL},
    };
    std::vector<std::pair<std::string, std::uint64_t>> got;
    for (const auto &[name, text] : goldenCorpus())
        got.emplace_back(name, readerDigest(text));
    test::expectGoldenTable(expected, got);
}

/** The exact QasmError text each malformed input raises. */
struct Malformed
{
    const char *text;
    const char *message;
};

TEST(QasmGolden, MalformedInputMessages)
{
    const Malformed payload_errors[] = {
        {"OPENQASM 2.0;\nh q[0];\n",
         "expected exactly one qreg declaration"},
        {"qreg q[1];\nqreg q[2];\nh q[0];\n",
         "expected exactly one qreg declaration"},
        {"qreg q[1];\ncreg c[1];\ncreg c[2];\n",
         "expected at most one creg declaration"},
        {"qreg q[0];\n",
         "qreg must declare at least one qubit"},
        {"qreg r[2];\n",
         "expected q[i], got 'r[2]'"},
        {"qreg q[];\n",
         "empty register index in 'q[]'"},
        {"qreg q[1x];\n",
         "bad register index in 'q[1x]'"},
        {"creg d[1];\nqreg q[1];\n",
         "expected c[i], got 'd[1]'"},
        {"qreg q[1];\nfrobnicate q[0];\n",
         "unknown gate 'frobnicate'"},
        {"qreg q[1];\nfrobnicate q[x];\n",
         "bad register index in 'q[x]'"},
        {"qreg q[1];\n(0.5) q[0];\n",
         "unknown gate ''"},
        {"qreg q[1];\nrx(1/0) q[0];\n",
         "division by zero in expression"},
        {"qreg q[1];\nrx(pi/(1-1)) q[0];\n",
         "division by zero in expression"},
        {"qreg q[1];\nmeasure q[0];\n",
         "measure without '->': measure q[0]"},
        {"qreg q[1];\ncreg c[1];\nmeasure q[0] -> d[0];\n",
         "expected c[i], got 'd[0]'"},
        {"qreg q[1];\nrx((1+2) q[0];\n",
         "missing ')' in: rx((1+2) q[0]"},
        {"qreg q[1];\nrx((1,2)) q[0];\n",
         "missing ')' in expression"},
        {"qreg q[1];\nrx(1 2) q[0];\n",
         "trailing characters in expression: '1 2'"},
        {"qreg q[1];\nrx(pix) q[0];\n",
         "trailing characters in expression: 'pix'"},
        {"qreg q[1];\nrx(abc) q[0];\n",
         "expected number in expression: 'abc'"},
        {"qreg q[1];\nrx(pi*) q[0];\n",
         "expected number in expression: 'pi*'"},
        {"qreg q[1];\nrx(,1) q[0];\n",
         "expected number in expression: ''"},
        {"qreg q[1];\nrx(1)) q[0];\n",
         "expected q[i], got ') q[0]'"},
        {"qreg q[1];\nu2(0.1) q[0];\n",
         "u2 expects 2 parameters"},
        {"qreg q[1];\nh r[0];\n",
         "expected q[i], got 'r[0]'"},
        {"qreg q[1];\nh q[];\n",
         "empty register index in 'q[]'"},
        {"qreg q[1];\nh q[0]x;\n",
         "expected q[i], got 'q[0]x'"},
        {"qreg q[2];\nbarrier q[0], r[1];\n",
         "expected q[i], got 'r[1]'"},
        {"qreg q[2];\nh q[0];\n// qra:postselect q[0] = 1\n",
         "malformed postselect directive: // qra:postselect q[0] = 1"},
        {"qreg q[2];\n// qra:postselect q[0]==1\n",
         "malformed postselect directive: // qra:postselect q[0]==1"},
        {"qreg q[2];\n// qra:postselect q[0] == 1 extra \r\nfoo q[0];\n",
         "unknown gate 'foo'"},
        {"qreg q[2];\n// qra:postselect r[0] == 1\n",
         "expected q[i], got 'r[0]'"},
    };
    const Malformed directive_errors[] = {
        {"qreg q[1];\n// qra:assert-classical q[0] 0\n",
         "assert-classical needs '== value': assert-classical q[0] 0"},
        {"qreg q[1];\n// qra:assert-classical q[0] == 01\n",
         "assert-classical value width must match the qubit count: "
         "assert-classical q[0] == 01"},
        {"qreg q[2];\n// qra:assert-superposition q[0], q[1] -\n",
         "assert-superposition takes exactly one qubit: "
         "assert-superposition q[0], q[1] -"},
        {"qreg q[2];\n// qra:assert-entangled\n",
         "directive names no qubits"},
        {"qreg q[2];\n// qra:assert-entangled odd chain\n",
         "directive names no qubits"},
        {"qreg q[2];\n// qra:assert-entangled r[0], q[1]\n",
         "expected q[i] in directive, got 'r[0]'"},
        {"qreg q[2];\n// qra:assert-entangled q[], q[1]\n",
         "empty qubit index in directive"},
        {"qreg q[2];\n// qra:assert-entangled q[x], q[1]\n",
         "bad qubit index in directive: 'q[x]'"},
        {"qreg q[2];\n// qra:frobnicate q[0]  \r\n",
         "unknown qra directive: frobnicate q[0]"},
        {"qreg q[1];\n// qra:frobnicate\nfoo q[0];\n",
         "unknown gate 'foo'"},
    };
    auto message_of = [](auto parse, const std::string &text) {
        try {
            parse(text);
        } catch (const QasmError &e) {
            return std::string(e.what());
        }
        return std::string("<no QasmError>");
    };
    const auto from_qasm = [](const std::string &t) { fromQasm(t); };
    const auto annotated = [](const std::string &t) {
        parseAnnotatedQasm(t);
    };
    for (const Malformed &m : payload_errors) {
        EXPECT_EQ(message_of(from_qasm, m.text), m.message) << m.text;
        EXPECT_EQ(message_of(annotated, m.text), m.message) << m.text;
    }
    for (const Malformed &m : directive_errors)
        EXPECT_EQ(message_of(annotated, m.text), m.message) << m.text;
}

} // namespace
} // namespace qra
