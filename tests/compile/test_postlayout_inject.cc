/**
 * @file
 * Route-time ancilla binding in prepare(): device compatibility of
 * the routed output, determinism, and the SWAP reduction vs placing
 * ancillas before routing (instrument() then transpile()) on a
 * grid-device batch.
 */

#include <gtest/gtest.h>

#include "assertions/classical_assertion.hh"
#include "assertions/entanglement_assertion.hh"
#include "compile/pipelines.hh"
#include "noise/device_model.hh"
#include "sim/statevector_simulator.hh"
#include "transpile/transpiler.hh"

namespace qra {
namespace {

using compile::CompileContext;
using compile::PrepareSpec;

CouplingMap
gridMap(std::size_t rows, std::size_t cols)
{
    CouplingMap map(rows * cols);
    for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < cols; ++c) {
            const Qubit q = static_cast<Qubit>(r * cols + c);
            if (c + 1 < cols)
                map.addEdge(q, q + 1);
            if (r + 1 < rows)
                map.addEdge(q, static_cast<Qubit>(q + cols));
        }
    }
    return map;
}

Circuit
randomPayload(std::size_t num_qubits, std::size_t num_gates, Rng &rng)
{
    Circuit c(num_qubits, num_qubits, "payload");
    for (std::size_t i = 0; i < num_gates; ++i) {
        const Qubit q = static_cast<Qubit>(rng.below(num_qubits));
        switch (rng.below(3)) {
          case 0: c.h(q); break;
          case 1: c.t(q); break;
          default:
          {
            const Qubit r = static_cast<Qubit>(
                (q + 1 + rng.below(num_qubits - 1)) % num_qubits);
            c.cx(q, r);
          }
        }
    }
    c.measureAll();
    return c;
}

std::vector<AssertionSpec>
randomChecks(std::size_t num_qubits, std::size_t num_gates,
             std::size_t count, Rng &rng)
{
    std::vector<AssertionSpec> specs;
    for (std::size_t c = 0; c < count; ++c) {
        AssertionSpec spec;
        spec.assertion = std::make_shared<EntanglementAssertion>(2);
        const Qubit a = static_cast<Qubit>(rng.below(num_qubits));
        spec.targets = {a, static_cast<Qubit>(
                               (a + 1 + rng.below(num_qubits - 1)) %
                               num_qubits)};
        spec.insertAt =
            num_gates / 2 + rng.below(num_gates / 2 + 1);
        specs.push_back(std::move(spec));
    }
    return specs;
}

TEST(PostLayoutInject, OutputIsDeviceCompatible)
{
    const CouplingMap map = gridMap(3, 3);
    Rng rng(5);
    const Circuit payload = randomPayload(6, 24, rng);
    PrepareSpec prep;
    prep.assertions = randomChecks(6, 24, 3, rng);
    prep.coupling = &map;

    const CompileContext ctx = compile::prepare(payload, prep);
    EXPECT_EQ(ctx.circuit.numQubits(), map.numQubits());
    for (const Operation &op : ctx.circuit.ops()) {
        if (op.qubits.size() != 2 || !opIsUnitary(op.kind))
            continue;
        if (op.kind == OpKind::CX)
            EXPECT_TRUE(map.hasEdge(op.qubits[0], op.qubits[1]))
                << op.str();
        else
            EXPECT_TRUE(map.connected(op.qubits[0], op.qubits[1]))
                << op.str();
    }
    // Bookkeeping flows through: three checks, clbits widened.
    ASSERT_NE(ctx.instrumented, nullptr);
    EXPECT_EQ(ctx.instrumented->checks().size(), 3u);
    EXPECT_EQ(ctx.circuit.numClbits(),
              payload.numClbits() + 3u);
}

TEST(PostLayoutInject, IsDeterministic)
{
    const CouplingMap map = gridMap(4, 4);
    Rng rng(7);
    const Circuit payload = randomPayload(8, 32, rng);
    PrepareSpec prep;
    prep.assertions = randomChecks(8, 32, 4, rng);
    prep.coupling = &map;

    const CompileContext a = compile::prepare(payload, prep);
    const CompileContext b = compile::prepare(payload, prep);
    EXPECT_TRUE(a.circuit == b.circuit);
    EXPECT_EQ(a.insertedSwaps, b.insertedSwaps);
}

TEST(PostLayoutInject, AdjacentAncillaNeedsNoSwaps)
{
    // Single-qubit classical check on a 3-qubit line: the ancilla
    // binds to the free slot next to its target, so the instrumented
    // circuit routes without a single SWAP.
    CouplingMap line(3);
    for (Qubit q = 0; q + 1 < 3; ++q)
        line.addEdge(q, q + 1);
    Circuit payload(1, 1, "x");
    payload.x(0).measureAll();

    AssertionSpec check;
    check.assertion = std::make_shared<ClassicalAssertion>(1);
    check.targets = {0};
    check.insertAt = 1;

    PrepareSpec prep;
    prep.assertions = {check};
    prep.coupling = &line;

    const CompileContext ctx = compile::prepare(payload, prep);
    EXPECT_EQ(ctx.insertedSwaps, 0u);
}

TEST(PostLayoutInject, ReducesSwapsVersusLegacyOnGridBatch)
{
    // The acceptance-criteria batch: random late-check workloads on a
    // 4x4 grid. The baseline places the ancillas before routing (the
    // public instrument() then transpile()); prepare() binds them at
    // route time. Deterministic seeds, so both totals are exact.
    const CouplingMap map = gridMap(4, 4);
    std::size_t legacy_swaps = 0;
    std::size_t route_time_swaps = 0;
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        Rng rng(seed);
        const Circuit payload = randomPayload(10, 48, rng);
        const std::vector<AssertionSpec> specs =
            randomChecks(10, 48, 5, rng);
        legacy_swaps +=
            transpile(instrument(payload, specs).circuit(), map)
                .insertedSwaps;
        PrepareSpec prep;
        prep.assertions = specs;
        prep.coupling = &map;
        route_time_swaps +=
            compile::prepare(payload, prep).insertedSwaps;
    }
    EXPECT_LT(route_time_swaps, legacy_swaps)
        << "route-time binding must insert fewer SWAPs";
    EXPECT_EQ(legacy_swaps, 329u);
    EXPECT_EQ(route_time_swaps, 259u);
}

TEST(PostLayoutInject, InsertAtIndexesPayloadInstructions)
{
    // insertAt counts *payload* instructions. A CCX payload lowers to
    // many gates; the check placed after the CCX must still run after
    // the whole decomposition, never in the middle of it — so a
    // classical assert on the Toffoli output passes exactly.
    CouplingMap line(5);
    for (Qubit q = 0; q + 1 < 5; ++q)
        line.addEdge(q, q + 1);
    Circuit payload(3, 3, "toffoli");
    payload.x(0).x(1).ccx(0, 1, 2).measureAll();

    AssertionSpec check;
    check.assertion = std::make_shared<ClassicalAssertion>(1);
    check.targets = {2};
    check.insertAt = 3; // after the CCX, payload numbering

    PrepareSpec prep;
    prep.assertions = {check};
    prep.coupling = &line;
    const CompileContext ctx = compile::prepare(payload, prep);

    StatevectorSimulator sim(5);
    const Result result = sim.run(ctx.circuit, 256);
    ASSERT_NE(ctx.instrumented, nullptr);
    for (const auto &[reg, count] : result.rawCounts())
        EXPECT_TRUE(ctx.instrumented->passed(reg))
            << "register " << reg;
}

TEST(PostLayoutInject, ReuseAncillasBindsOnePool)
{
    const CouplingMap map = gridMap(3, 3);
    Circuit payload(4, 4, "p");
    payload.h(0).cx(0, 1).cx(2, 3).measureAll();

    std::vector<AssertionSpec> specs;
    for (const Qubit t : {Qubit{0}, Qubit{2}}) {
        AssertionSpec spec;
        spec.assertion = std::make_shared<EntanglementAssertion>(2);
        spec.targets = {t, static_cast<Qubit>(t + 1)};
        spec.insertAt = 100;
        specs.push_back(std::move(spec));
    }
    PrepareSpec prep;
    prep.assertions = specs;
    prep.coupling = &map;
    prep.instrumentOptions.reuseAncillas = true;

    const CompileContext ctx = compile::prepare(payload, prep);
    // One shared ancilla wire: width payload + 1 before routing.
    ASSERT_NE(ctx.instrumented, nullptr);
    EXPECT_EQ(ctx.instrumented->circuit().numQubits(),
              payload.numQubits() + 1);
    // Both checks decode independently.
    EXPECT_EQ(ctx.instrumented->checks().size(), 2u);
}

} // namespace
} // namespace qra
