/**
 * @file
 * The paper's checked circuits as the e2ebench workloads submit them,
 * prepared for a device, for tests that pin or fit their counts.
 */

#ifndef QRA_TESTS_PAPER_CIRCUITS_HH
#define QRA_TESTS_PAPER_CIRCUITS_HH

#include <string>
#include <utility>
#include <vector>

#include "assertions/directives.hh"
#include "circuit/qasm.hh"
#include "compile/pipelines.hh"
#include "library/algorithms.hh"
#include "noise/device_model.hh"

namespace qra {
namespace test {

/** One paper circuit as annotated QASM, with how e2ebench submits it. */
struct PaperSource
{
    const char *name;
    std::string text;
    /** A paper_reuse_traj kind (two checks sharing one ancilla). */
    bool reuse;
    /** Checks come from auto-assert rather than directives. */
    bool autoAssert;
};

/**
 * Table 1, Table 2, section 4.3, Fig. 4 GHZ(3) and GHZ(4) as annotated
 * QASM. The paper_ibmqx4 kinds (reuse false) carry one check each,
 * plus GHZ(4) and W(3) auto-asserted; the paper_reuse_traj kinds carry
 * two checks each.
 */
inline std::vector<PaperSource>
paperSources()
{
    const auto regs = [](int n) {
        return "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[" +
               std::to_string(n) + "];\ncreg c[" + std::to_string(n) +
               "];\n";
    };
    const auto measure = [](int n) {
        std::string text;
        for (int q = 0; q < n; ++q)
            text += "measure q[" + std::to_string(q) + "] -> c[" +
                    std::to_string(q) + "];\n";
        return text;
    };
    const std::string classical = "// qra:assert-classical q[0] == 0\n";
    const std::string bell = "// qra:assert-entangled q[0], q[1]\n";
    const std::string plus = "// qra:assert-superposition q[0]\n";
    const std::string ghz3 = "// qra:assert-entangled q[0], q[1], q[2]\n";
    const std::string ghz3_body =
        "h q[0];\ncx q[0],q[1];\ncx q[1],q[2];\n";
    Circuit w3 = library::wState(3);
    w3.addClbits(3);
    w3.measureAll();
    return {
        {"table1", regs(1) + classical + measure(1), false, false},
        {"table2_bell",
         regs(2) + "h q[0];\ncx q[0],q[1];\n" + bell + measure(2), false,
         false},
        {"sec43_plus", regs(1) + "h q[0];\n" + plus + measure(1), false,
         false},
        {"fig4_ghz3", regs(3) + ghz3_body + ghz3 + measure(3), false, false},
        {"ghz4_auto", regs(4) + ghz3_body + "cx q[2],q[3];\n" + measure(4),
         false, true},
        {"w3_auto", toQasm(w3), false, true},
        {"table1_x2", regs(1) + classical + classical + measure(1), true,
         false},
        {"table2_bell_x2",
         regs(2) + "h q[0];\ncx q[0],q[1];\n" + bell + bell + measure(2),
         true, false},
        {"sec43_plus_x2", regs(1) + "h q[0];\n" + plus + plus + measure(1),
         true, false},
        {"fig4_ghz3_seq",
         regs(3) + "h q[0];\ncx q[0],q[1];\n" + bell + "cx q[1],q[2];\n" +
             ghz3 + measure(3),
         true, false},
        {"ghz4_seq",
         regs(4) + ghz3_body + ghz3 + "cx q[2],q[3];\n" +
             "// qra:assert-entangled q[0], q[1], q[2], q[3]\n" +
             measure(4),
         true, false},
    };
}

/**
 * The paperSources() kinds of one workload (@p reuse) prepared for
 * @p device, as e2ebench prepares them.
 */
inline std::vector<std::pair<std::string, Circuit>>
paperPreparedShapes(const DeviceModel &device, bool reuse)
{
    std::vector<std::pair<std::string, Circuit>> shapes;
    for (const PaperSource &source : paperSources()) {
        if (source.reuse != reuse)
            continue;
        const AnnotatedProgram program = parseAnnotatedQasm(source.text);
        compile::PrepareSpec prep;
        prep.assertions = program.specs;
        prep.instrumentOptions.reuseAncillas = reuse;
        if (source.autoAssert)
            prep.injection = compile::InjectionStrategy::AutoGenerate;
        prep.coupling = &device.couplingMap();
        shapes.emplace_back(source.name,
                            compile::prepare(program.payload, prep).circuit);
    }
    return shapes;
}

} // namespace test
} // namespace qra

#endif // QRA_TESTS_PAPER_CIRCUITS_HH
