/**
 * @file
 * Kernel-subsystem tests: every specialized gate kernel (and the
 * fusion pass) must match the generic dense-matrix path on random
 * states, at one lane and at several; intra-shot parallelism must be
 * bit-deterministic.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "common/error.hh"
#include "common/rng.hh"
#include "runtime/execution_engine.hh"
#include "runtime/thread_pool.hh"
#include "sim/kernels/kernels.hh"
#include "sim/kernels/parallel.hh"
#include "sim/kernels/plan.hh"
#include "sim/shot_util.hh"
#include "sim/statevector_simulator.hh"
#include "testutil.hh"

namespace qra {
namespace {

/** Random normalized state over n qubits. */
StateVector
randomState(std::size_t num_qubits, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<Complex> amps(std::size_t{1} << num_qubits);
    for (Complex &a : amps)
        a = Complex{rng.uniform() - 0.5, rng.uniform() - 0.5};
    return StateVector::fromAmplitudes(std::move(amps));
}

/** Random operation drawn over the whole gate vocabulary. */
Operation
randomOperation(std::size_t num_qubits, Rng &rng)
{
    static const std::vector<OpKind> kinds = {
        OpKind::I,  OpKind::X,    OpKind::Y,  OpKind::Z,  OpKind::H,
        OpKind::S,  OpKind::Sdg,  OpKind::T,  OpKind::Tdg,
        OpKind::SX, OpKind::RX,   OpKind::RY, OpKind::RZ, OpKind::P,
        OpKind::U,  OpKind::CX,   OpKind::CY, OpKind::CZ,
        OpKind::Swap, OpKind::CCX};
    for (;;) {
        const OpKind kind = kinds[rng.below(kinds.size())];
        const std::size_t arity = opNumQubits(kind);
        if (arity > num_qubits)
            continue;
        // Distinct random operands.
        std::vector<Qubit> qubits;
        while (qubits.size() < arity) {
            const Qubit q = static_cast<Qubit>(rng.below(num_qubits));
            bool dup = false;
            for (Qubit used : qubits)
                dup = dup || used == q;
            if (!dup)
                qubits.push_back(q);
        }
        std::vector<double> params;
        for (std::size_t p = 0; p < opNumParams(kind); ++p)
            params.push_back(rng.uniform() * 2.0 * M_PI);
        return {.kind = kind, .qubits = qubits, .params = params};
    }
}

/** Apply @p op through the generic dense path only (the reference). */
void
applyDense(StateVector &sv, const Operation &op)
{
    std::vector<Complex> amps = sv.amplitudes();
    kernels::applyGenericK(amps.data(), amps.size(), op.matrix(),
                           {op.qubits.begin(), op.qubits.end()});
    sv = StateVector::fromAmplitudes(std::move(amps));
}

TEST(KernelsTest, SpecializedKernelsMatchDensePath)
{
    Rng rng(101);
    for (int round = 0; round < 200; ++round) {
        const std::size_t n = 2 + rng.below(4); // 2..5 qubits
        const Operation op = randomOperation(n, rng);
        StateVector fast = randomState(n, 7000 + round);
        StateVector reference = fast;
        fast.applyUnitary(op); // kernel dispatch
        applyDense(reference, op);
        test::expectAmplitudesNear(fast.amplitudes(),
                                   reference.amplitudes(), 1e-12);
    }
}

TEST(KernelsTest, KernelsMatchDensePathMultiThreaded)
{
    runtime::ThreadPool pool(4);
    Rng rng(103);
    for (int round = 0; round < 60; ++round) {
        const std::size_t n = 2 + rng.below(4);
        const Operation op = randomOperation(n, rng);
        StateVector fast = randomState(n, 9000 + round);
        StateVector reference = fast;
        {
            kernels::ParallelScope scope(&pool, 4);
            fast.applyUnitary(op);
        }
        applyDense(reference, op);
        test::expectAmplitudesNear(fast.amplitudes(),
                                   reference.amplitudes(), 1e-12);
    }
}

TEST(KernelsTest, ParallelGateApplicationIsBitIdentical)
{
    // Large enough state that the amplitude loops actually split.
    runtime::ThreadPool pool(4);
    const Operation ops[] = {
        {.kind = OpKind::H, .qubits = {9}},
        {.kind = OpKind::RZ, .qubits = {3}, .params = {0.7}},
        {.kind = OpKind::X, .qubits = {14}},
        {.kind = OpKind::CX, .qubits = {2, 12}},
        {.kind = OpKind::CZ, .qubits = {0, 15}},
        {.kind = OpKind::CCX, .qubits = {1, 8, 13}},
    };
    StateVector serial = randomState(16, 42);
    StateVector parallel = serial;
    for (const Operation &op : ops)
        serial.applyUnitary(op);
    {
        kernels::ParallelScope scope(&pool, 4);
        for (const Operation &op : ops)
            parallel.applyUnitary(op);
    }
    // Bit-identical, not just close: splits touch disjoint elements.
    EXPECT_EQ(serial.amplitudes(), parallel.amplitudes());
}

TEST(KernelsTest, ParallelReductionsAreBitIdentical)
{
    runtime::ThreadPool pool(4);
    const StateVector sv = randomState(17, 57);
    const double serial_p1 = sv.probabilityOfOne(5);
    const double serial_norm = sv.norm();
    double parallel_p1 = 0.0, parallel_norm = 0.0;
    {
        kernels::ParallelScope scope(&pool, 4);
        parallel_p1 = sv.probabilityOfOne(5);
        parallel_norm = sv.norm();
    }
    // Fixed-block reduction: identical rounding at any lane count.
    EXPECT_EQ(serial_p1, parallel_p1);
    EXPECT_EQ(serial_norm, parallel_norm);
}

TEST(KernelsTest, FusionMatchesUnfusedOnRandomCircuits)
{
    Rng rng(211);
    for (int round = 0; round < 40; ++round) {
        const std::size_t n = 2 + rng.below(3);
        Circuit c(n, n);
        for (int g = 0; g < 30; ++g)
            c.append(randomOperation(n, rng));

        const kernels::ExecutablePlan fused =
            kernels::ExecutablePlan::compile(c, true);
        const kernels::ExecutablePlan unfused =
            kernels::ExecutablePlan::compile(c, false);
        EXPECT_LE(fused.entries().size(), unfused.entries().size());

        StateVector fast = randomState(n, 5000 + round);
        StateVector reference = fast;
        for (const kernels::PlanEntry &entry : fused.entries())
            fast.applyKernel(entry);
        for (const Operation &op : c.ops()) {
            if (op.kind != OpKind::Barrier && op.kind != OpKind::I)
                applyDense(reference, op);
        }
        test::expectAmplitudesNear(fast.amplitudes(),
                                   reference.amplitudes(), 1e-12);
    }
}

TEST(KernelsTest, TwoQubitWindowFusionMatchesDenseReference)
{
    Rng rng(223);
    for (int round = 0; round < 40; ++round) {
        const std::size_t n = 2 + rng.below(3);
        Circuit c(n, n);
        for (int g = 0; g < 30; ++g)
            c.append(randomOperation(n, rng));

        const kernels::ExecutablePlan fused =
            kernels::ExecutablePlan::compile(c, kernels::kFusion2q);
        const kernels::ExecutablePlan unfused =
            kernels::ExecutablePlan::compile(c, kernels::kFusionNone);
        EXPECT_LE(fused.entries().size(), unfused.entries().size());

        StateVector fast = randomState(n, 6000 + round);
        StateVector reference = fast;
        for (const kernels::PlanEntry &entry : fused.entries())
            fast.applyKernel(entry);
        for (const Operation &op : c.ops()) {
            if (op.kind != OpKind::Barrier && op.kind != OpKind::I)
                applyDense(reference, op);
        }
        test::expectAmplitudesNear(fast.amplitudes(),
                                   reference.amplitudes(), 1e-12);
    }
}

TEST(KernelsTest, WindowFusionFindsStructure)
{
    // H-CX-H on the target is CZ: one phase-mask entry.
    Circuit hch(2, 2);
    hch.h(1).cx(0, 1).h(1);
    const kernels::ExecutablePlan cz =
        kernels::ExecutablePlan::compile(hch, kernels::kFusion2q);
    ASSERT_EQ(cz.entries().size(), 1u);
    EXPECT_EQ(cz.entries()[0].kind, kernels::KernelKind::PhaseOnMask);
    EXPECT_EQ(cz.entries()[0].mask, 0b11u);

    // CX-CX cancels to nothing.
    Circuit cxcx(2, 2);
    cxcx.cx(0, 1).cx(0, 1);
    EXPECT_TRUE(kernels::ExecutablePlan::compile(
                    cxcx, kernels::kFusion2q)
                    .entries()
                    .empty());

    // H then CX is NOT cheaper as one dense 4x4: the cost model must
    // refuse and keep both entries.
    Circuit hcx(2, 2);
    hcx.h(0).cx(0, 1);
    EXPECT_EQ(kernels::ExecutablePlan::compile(hcx,
                                               kernels::kFusion2q)
                  .entries()
                  .size(),
              2u);

    // Windows must not cross a barrier.
    Circuit fenced(2, 2);
    fenced.cx(0, 1).barrier().cx(0, 1);
    EXPECT_EQ(kernels::ExecutablePlan::compile(fenced,
                                               kernels::kFusion2q)
                  .entries()
                  .size(),
              2u);
}

TEST(KernelsTest, Classify2qDetectsSeparableAndControlled)
{
    // X ⊗ I (acts on q0 only) classifies down to the 1q permutation.
    Complex x_on_q0[16] = {};
    x_on_q0[0 * 4 + 1] = 1.0;
    x_on_q0[1 * 4 + 0] = 1.0;
    x_on_q0[2 * 4 + 3] = 1.0;
    x_on_q0[3 * 4 + 2] = 1.0;
    const kernels::PlanEntry x_entry =
        kernels::classify2q(3, 5, x_on_q0);
    EXPECT_EQ(x_entry.kind, kernels::KernelKind::PauliX);
    EXPECT_EQ(x_entry.q0, 3u);

    // Controlled-on-q1 phase structure.
    Complex cs[16] = {};
    cs[0] = cs[5] = cs[10] = 1.0;
    cs[15] = Complex{0.0, 1.0};
    const kernels::PlanEntry cs_entry = kernels::classify2q(0, 1, cs);
    EXPECT_EQ(cs_entry.kind, kernels::KernelKind::PhaseOnMask);
    EXPECT_EQ(cs_entry.mask, 0b11u);

    // Swap permutation.
    Complex swap[16] = {};
    swap[0] = swap[15] = 1.0;
    swap[2 * 4 + 1] = 1.0;
    swap[1 * 4 + 2] = 1.0;
    EXPECT_EQ(kernels::classify2q(0, 1, swap).kind,
              kernels::KernelKind::SwapQubits);
}

TEST(KernelsTest, MarginalMatchesSerialReference)
{
    // 17 qubits: above the reduce-block size, so the blocked scatter
    // path actually engages.
    const StateVector sv = randomState(17, 91);
    Rng rng(17);
    for (int round = 0; round < 6; ++round) {
        std::vector<Qubit> qubits;
        const std::size_t k = 1 + rng.below(5);
        while (qubits.size() < k) {
            const Qubit q = static_cast<Qubit>(rng.below(17));
            bool dup = false;
            for (Qubit used : qubits)
                dup = dup || used == q;
            if (!dup)
                qubits.push_back(q);
        }

        // Serial reference: the pre-PR scatter.
        std::vector<double> reference(std::size_t{1} << k, 0.0);
        const auto &amps = sv.amplitudes();
        for (std::uint64_t i = 0; i < amps.size(); ++i) {
            std::uint64_t key = 0;
            for (std::size_t j = 0; j < k; ++j)
                if ((i >> qubits[j]) & 1)
                    key |= std::uint64_t{1} << j;
            reference[key] += std::norm(amps[i]);
        }

        const std::vector<double> blocked =
            sv.marginalProbabilities(qubits);
        ASSERT_EQ(blocked.size(), reference.size());
        for (std::size_t j = 0; j < blocked.size(); ++j)
            EXPECT_NEAR(blocked[j], reference[j], 1e-12);
    }
}

TEST(KernelsTest, MarginalBitIdenticalAcrossLaneCounts)
{
    const StateVector sv = randomState(17, 93);
    const std::vector<Qubit> qubits = {2, 9, 14, 4};
    const std::vector<double> serial =
        sv.marginalProbabilities(qubits);
    runtime::ThreadPool pool(4);
    std::vector<double> parallel;
    {
        kernels::ParallelScope scope(&pool, 4);
        parallel = sv.marginalProbabilities(qubits);
    }
    // Fixed-block merge: identical rounding at any lane count.
    EXPECT_EQ(serial, parallel);
}

TEST(KernelsTest, SubsetSampledHistogramMatchesMarginal)
{
    // Ancilla-subset measurement through the sampled path must
    // reproduce the dense marginal distribution.
    Circuit c(8, 3);
    Rng rng(47);
    for (int g = 0; g < 40; ++g)
        c.append(randomOperation(8, rng));
    const std::vector<Qubit> measured = {1, 4, 6};
    for (std::size_t j = 0; j < measured.size(); ++j)
        c.measure(measured[j], static_cast<Clbit>(j));

    StatevectorSimulator prep(3);
    Circuit bare(8, 3);
    for (const Operation &op : c.ops())
        if (op.kind != OpKind::Measure)
            bare.append(op);
    const std::vector<double> marginal =
        prep.finalState(bare).marginalProbabilities(measured);

    StatevectorSimulator sim(29);
    const std::size_t shots = 60000;
    const Result result = sim.run(c, shots);
    for (std::size_t b = 0; b < marginal.size(); ++b)
        EXPECT_NEAR(result.probability(b), marginal[b], 0.01)
            << "outcome " << b;
}

TEST(KernelsTest, FusionCollapsesInverseRunsToNothing)
{
    Circuit c(1, 1);
    c.h(0).h(0); // H H = I exactly
    const kernels::ExecutablePlan plan =
        kernels::ExecutablePlan::compile(c, true);
    EXPECT_TRUE(plan.entries().empty());
    EXPECT_EQ(plan.stats().fusedGates, 2u);
}

TEST(KernelsTest, FusionStopsAtBarriersAndMeasurements)
{
    Circuit c(2, 2);
    c.h(0).barrier().h(0); // barrier fences fusion
    const kernels::ExecutablePlan fenced =
        kernels::ExecutablePlan::compile(c, true);
    EXPECT_EQ(fenced.entries().size(), 2u);

    Circuit cm(1, 1);
    cm.h(0).measure(0, 0).h(0);
    const kernels::ExecutablePlan measured =
        kernels::ExecutablePlan::compile(cm, true);
    // H, Measure, H: the measurement pins both hadamards in place.
    ASSERT_EQ(measured.entries().size(), 3u);
    EXPECT_EQ(measured.entries()[1].kind,
              kernels::KernelKind::Measure);
}

TEST(KernelsTest, SampledCountsBitIdenticalAcrossLaneCounts)
{
    // End-to-end determinism: same seed, 1 vs 4 intra-shot lanes,
    // merged counts must match exactly.
    Circuit c(12, 12);
    Rng rng(31);
    for (int g = 0; g < 60; ++g)
        c.append(randomOperation(12, rng));
    c.measureAll();

    runtime::ExecutionEngine one_lane(runtime::EngineOptions{
        .threads = 1, .shardShots = 256, .intraThreads = 1});
    runtime::ExecutionEngine four_lanes(runtime::EngineOptions{
        .threads = 4, .shardShots = 256, .intraThreads = 4});
    const Result a = one_lane.run(c, 1024, "statevector", 77);
    const Result b = four_lanes.run(c, 1024, "statevector", 77);
    EXPECT_EQ(a.rawCounts(), b.rawCounts());
}

TEST(KernelsTest, PerShotCountsBitIdenticalAcrossLaneCounts)
{
    // Mid-circuit measurement forces the per-shot path; measurement
    // collapse probabilities come from the deterministic reduction.
    Circuit c(10, 2);
    Rng rng(33);
    for (int g = 0; g < 30; ++g)
        c.append(randomOperation(10, rng));
    c.measure(0, 0).reset(0);
    for (int g = 0; g < 10; ++g)
        c.append(randomOperation(10, rng));
    c.measure(0, 1);

    runtime::ExecutionEngine one_lane(runtime::EngineOptions{
        .threads = 1, .shardShots = 64, .intraThreads = 1});
    runtime::ExecutionEngine four_lanes(runtime::EngineOptions{
        .threads = 4, .shardShots = 64, .intraThreads = 4});
    const Result a = one_lane.run(c, 128, "statevector", 99);
    const Result b = four_lanes.run(c, 128, "statevector", 99);
    EXPECT_EQ(a.rawCounts(), b.rawCounts());
}

TEST(KernelsTest, BoundsCheckedFastPaths)
{
    // X, Z, CZ used to index out of range without a check (only CX
    // threw); all specializations must reject bad operands now.
    StateVector sv(2);
    EXPECT_THROW(
        sv.applyUnitary({.kind = OpKind::X, .qubits = {2}}),
        IndexError);
    EXPECT_THROW(
        sv.applyUnitary({.kind = OpKind::Z, .qubits = {5}}),
        IndexError);
    EXPECT_THROW(
        sv.applyUnitary({.kind = OpKind::CZ, .qubits = {0, 2}}),
        IndexError);
    EXPECT_THROW(
        sv.applyUnitary({.kind = OpKind::CX, .qubits = {3, 0}}),
        IndexError);
    EXPECT_THROW(
        sv.applyUnitary({.kind = OpKind::Swap, .qubits = {0, 4}}),
        IndexError);
    EXPECT_THROW(
        sv.applyUnitary({.kind = OpKind::H, .qubits = {2}}),
        IndexError);
    // Mask-kernel operands >= 64 would wrap the bit shift before the
    // state-size check can see it; they must throw, not alias.
    EXPECT_THROW(
        sv.applyUnitary({.kind = OpKind::Z, .qubits = {64}}),
        IndexError);
    EXPECT_THROW(
        sv.applyUnitary({.kind = OpKind::CZ, .qubits = {0, 130}}),
        IndexError);
}

TEST(KernelsTest, AttemptBudgetSaturatesInsteadOfOverflowing)
{
    EXPECT_EQ(postSelectAttemptBudget(10), 2000u);
    const std::size_t huge =
        std::numeric_limits<std::size_t>::max() / 2;
    EXPECT_EQ(postSelectAttemptBudget(huge),
              std::numeric_limits<std::size_t>::max());
    EXPECT_GT(postSelectAttemptBudget(huge), huge);
}

TEST(KernelsTest, ParallelForPropagatesExceptions)
{
    runtime::ThreadPool pool(2);
    kernels::ParallelScope scope(&pool, 2);
    EXPECT_THROW(
        kernels::parallelFor(std::uint64_t{1} << 16, /*grain=*/1,
                             [](std::uint64_t begin, std::uint64_t) {
                                 if (begin == 0)
                                     throw ValueError("boom");
                             }),
        ValueError);
}

} // namespace
} // namespace qra
