/**
 * @file
 * Bernstein-Vazirani with both assertion styles side by side: the
 * dynamic superposition/classical assertions run inline with the
 * algorithm, while the statistical baseline needs a separate
 * breakpoint batch and yields no program output.
 *
 * Run: ./build/examples/bv_assertions
 */

#include <cstdio>
#include <memory>
#include <vector>

#include "qra.hh"

using namespace qra;

int
main()
{
    const std::size_t n = 3;
    const std::uint64_t secret = 0b101;
    const Circuit payload = library::bernsteinVazirani(secret, n);
    // Instruction offsets inside the payload:
    //   0,1: oracle prep; 2..4: input H layer; then the oracle.
    const std::size_t after_h = 2 + n;

    std::printf("Bernstein-Vazirani, n = %zu, secret = %s\n\n", n,
                toBitstring(secret, n).c_str());

    // --- Dynamic assertions -----------------------------------------
    std::vector<AssertionSpec> specs;
    for (Qubit q = 0; q < n; ++q) {
        AssertionSpec spec;
        spec.assertion = std::make_shared<SuperpositionAssertion>();
        spec.targets = {q};
        spec.insertAt = after_h;
        spec.label = "input q" + std::to_string(q) + " in |+>";
        specs.push_back(spec);
    }
    // And a classical assertion on the answer register just before
    // the final measurement.
    AssertionSpec answer;
    answer.assertion =
        std::make_shared<ClassicalAssertion>(secret, n);
    std::vector<Qubit> targets(n);
    for (Qubit q = 0; q < n; ++q)
        targets[q] = q;
    answer.targets = targets;
    answer.insertAt = payload.size() - n; // before the measures
    answer.label = "answer == secret";
    specs.push_back(answer);

    const InstrumentedCircuit inst = instrument(payload, specs);
    StatevectorSimulator sim(2468);
    const Result r = sim.run(inst.circuit(), 8192);
    const AssertionReport report = analyze(inst, r);

    std::printf("dynamic assertions (single batch of 8192 shots):\n");
    std::printf("%s", report.str(inst).c_str());
    std::printf("payload readout: %s\n\n",
                stats::distributionToString(report.rawPayload, n)
                    .c_str());

    // --- Statistical baseline ---------------------------------------
    std::printf("statistical baseline (one extra batch per "
                "breakpoint, no program output):\n");
    StatisticalAssertion sup(AssertionKind::Superposition, targets);
    const Circuit bp = sup.breakpointCircuit(payload, after_h);
    const Result rb = sim.run(bp, 8192);
    stats::Counts counts;
    for (const auto &[k, cnt] : rb.rawCounts())
        counts[k] = cnt;
    std::printf("  breakpoint after H layer: %s\n",
                sup.check(counts).str().c_str());
    std::printf("  batches used: dynamic = 1, statistical = 2 "
                "(breakpoint + result run)\n");
    return 0;
}
