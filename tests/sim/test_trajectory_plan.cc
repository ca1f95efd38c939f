/**
 * @file
 * Trajectory plan-lowering tests: the pre-lowered noisy plan must
 * reproduce the legacy Operation interpreter bit-for-bit (same RNG
 * stream, fusion off), stay statistically faithful with fusion on,
 * classify noise sites correctly, and keep merged counts bit-identical
 * at any thread/lane count.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "assertions/directives.hh"
#include "assertions/entanglement_assertion.hh"
#include "compile/pipelines.hh"
#include "noise/device_model.hh"
#include "runtime/execution_engine.hh"
#include "sim/density_simulator.hh"
#include "sim/kernels/noise_plan.hh"
#include "sim/kernels/plan_cache.hh"
#include "sim/trajectory_simulator.hh"
#include "stats/chi_square.hh"
#include "stats/distance.hh"
#include "testutil.hh"

namespace qra {
namespace {

/** Depolarising + readout model over @p num_qubits qubits. */
NoiseModel
depolarizingReadoutNoise(std::size_t num_qubits)
{
    NoiseModel noise;
    noise.setGateError(OpKind::CX, 0.03);
    noise.setGateError(OpKind::H, 0.004);
    noise.setGateError(OpKind::RY, 0.002);
    for (Qubit q = 0; q < num_qubits; ++q)
        noise.setReadoutError(q, ReadoutError(0.015, 0.03));
    return noise;
}

/** Random noisy workload with mid-circuit measurement and reset. */
Circuit
randomNoisyCircuit(std::size_t num_qubits, std::size_t num_gates,
                   std::uint64_t seed)
{
    Circuit c(num_qubits, num_qubits);
    Rng rng(seed);
    auto layer = [&](std::size_t gates) {
        for (std::size_t i = 0; i < gates; ++i) {
            const Qubit q = static_cast<Qubit>(rng.below(num_qubits));
            switch (rng.below(5)) {
              case 0:
                c.h(q);
                break;
              case 1:
                c.t(q);
                break;
              case 2:
                c.ry(rng.uniform() * M_PI, q);
                break;
              case 3:
                c.rz(rng.uniform() * M_PI, q);
                break;
              default:
              {
                const Qubit r = static_cast<Qubit>(
                    (q + 1 + rng.below(num_qubits - 1)) % num_qubits);
                c.cx(q, r);
              }
            }
        }
    };
    layer(num_gates / 2);
    c.measure(0, 0);
    c.reset(0);
    layer(num_gates - num_gates / 2);
    c.measureAll();
    return c;
}

TEST(TrajectoryPlanTest, UnfusedPlanMatchesLegacyInterpreterExactly)
{
    // Fusion off, identical seed: the plan path consumes the same RNG
    // stream through the same kernels, so counts must match
    // bit-for-bit, per shot, under gate + readout noise.
    for (const std::uint64_t seed : {11u, 12u, 13u, 14u}) {
        const std::size_t n = 5;
        const Circuit c = randomNoisyCircuit(n, 36, 500 + seed);
        const NoiseModel noise = depolarizingReadoutNoise(n);

        kernels::FusionScope fusion(kernels::kFusionNone);
        TrajectorySimulator legacy(seed);
        legacy.setNoiseModel(&noise);
        legacy.setUseLoweredPlan(false);
        const Result a = legacy.run(c, 400);

        TrajectorySimulator lowered(seed);
        lowered.setNoiseModel(&noise);
        const Result b = lowered.run(c, 400);

        EXPECT_EQ(a.rawCounts(), b.rawCounts()) << "seed " << seed;
        EXPECT_EQ(a.retainedFraction(), b.retainedFraction());
    }
}

TEST(TrajectoryPlanTest, UnfusedPlanMatchesLegacyUnderRelaxation)
{
    // Thermal relaxation exercises the state-dependent (non-unitary
    // Kraus) sites; the copy-free weight computation must track the
    // legacy branch weights.
    const std::size_t n = 4;
    Circuit c(n, n);
    c.h(0).cx(0, 1).cx(1, 2).cx(2, 3).measureAll();
    NoiseModel noise;
    noise.setGateError(OpKind::CX, 0.02);
    noise.setGateDuration(OpKind::CX, 300.0);
    noise.setGateDuration(OpKind::H, 50.0);
    for (Qubit q = 0; q < n; ++q)
        noise.setQubitRelaxation(q, 50000.0, 30000.0);

    kernels::FusionScope fusion(kernels::kFusionNone);
    TrajectorySimulator legacy(21);
    legacy.setNoiseModel(&noise);
    legacy.setUseLoweredPlan(false);
    TrajectorySimulator lowered(21);
    lowered.setNoiseModel(&noise);

    EXPECT_EQ(legacy.run(c, 600).rawCounts(),
              lowered.run(c, 600).rawCounts());
}

/**
 * Table 2's Bell pair with two entanglement checks sharing one reset
 * ancilla, prepared for ibmqx4: mid-circuit measure + reset on the
 * ancilla, idle physical qubits relaxing every moment.
 */
Circuit
reusePreparedBell(const DeviceModel &device)
{
    Circuit payload(2, 2);
    payload.h(0).cx(0, 1).measureAll();
    compile::PrepareSpec prep;
    for (int i = 0; i < 2; ++i) {
        AssertionSpec spec;
        spec.assertion = std::make_shared<EntanglementAssertion>(2);
        spec.targets = {0, 1};
        spec.insertAt = 2; // after the CX, before the measurements
        prep.assertions.push_back(spec);
    }
    prep.instrumentOptions.reuseAncillas = true;
    prep.coupling = &device.couplingMap();
    return compile::prepare(payload, prep).circuit;
}

TEST(TrajectoryPlanTest, ReuseShapeMatchesLegacyUnderIbmqx4)
{
    const DeviceModel device = DeviceModel::ibmqx4();
    const NoiseModel &noise = device.noiseModel();
    const Circuit c = reusePreparedBell(device);
    // The shared ancilla is reset after its first measurement, and the
    // device register leaves qubits idle.
    std::size_t resets = 0;
    for (const Operation &op : c.ops())
        resets += op.kind == OpKind::Reset ? 1 : 0;
    ASSERT_GE(resets, 1u);
    ASSERT_EQ(c.numQubits(), device.couplingMap().numQubits());

    kernels::FusionScope fusion(kernels::kFusionNone);
    for (const std::uint64_t seed : {41u, 42u}) {
        TrajectorySimulator legacy(seed);
        legacy.setNoiseModel(&noise);
        legacy.setUseLoweredPlan(false);
        const Result want = legacy.run(c, 600);

        TrajectorySimulator lowered(seed);
        lowered.setNoiseModel(&noise);
        EXPECT_EQ(want.rawCounts(), lowered.run(c, 600).rawCounts())
            << "seed " << seed;

        // A cached plan (miss, then hit) replays the same counts.
        kernels::PlanCache cache;
        kernels::PlanCacheScope scope(&cache);
        for (int pass = 0; pass < 2; ++pass) {
            TrajectorySimulator cached(seed);
            cached.setNoiseModel(&noise);
            EXPECT_EQ(want.rawCounts(), cached.run(c, 600).rawCounts())
                << "seed " << seed << " pass " << pass;
        }
        EXPECT_EQ(cache.stats().misses, 1u);
        EXPECT_EQ(cache.stats().hits, 1u);

        // One trajectory: same branches, amplitudes equal to rounding.
        legacy.seed(seed);
        lowered.seed(seed);
        const StateVector a = legacy.evolveOne(c);
        const StateVector b = lowered.evolveOne(c);
        ASSERT_EQ(a.dim(), b.dim());
        for (std::size_t i = 0; i < a.dim(); ++i)
            EXPECT_LE(std::abs(a.amplitude(i) - b.amplitude(i)), 1e-12)
                << "seed " << seed << " amplitude " << i;
    }
}

/**
 * The paper's Table 1, Table 2, section 4.3, Fig. 4 GHZ(3) and GHZ(4)
 * circuits with two checks each sharing one reset ancilla, prepared
 * for ibmqx4 (the e2ebench paper_reuse_traj jobs).
 */
std::vector<std::pair<std::string, Circuit>>
paperReuseShapes(const DeviceModel &device)
{
    const std::string head = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n";
    auto regs = [&](int n) {
        return head + "qreg q[" + std::to_string(n) + "];\ncreg c[" +
               std::to_string(n) + "];\n";
    };
    auto measure = [](int n) {
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
    const std::vector<std::pair<std::string, std::string>> sources = {
        {"table1_x2", regs(1) + classical + classical + measure(1)},
        {"table2_bell_x2",
         regs(2) + "h q[0];\ncx q[0],q[1];\n" + bell + bell + measure(2)},
        {"sec43_plus_x2", regs(1) + "h q[0];\n" + plus + plus + measure(1)},
        {"fig4_ghz3_seq", regs(3) + "h q[0];\ncx q[0],q[1];\n" + bell +
                              "cx q[1],q[2];\n" + ghz3 + measure(3)},
        {"ghz4_seq",
         regs(4) + "h q[0];\ncx q[0],q[1];\ncx q[1],q[2];\n" + ghz3 +
             "cx q[2],q[3];\n"
             "// qra:assert-entangled q[0], q[1], q[2], q[3]\n" +
             measure(4)},
    };
    std::vector<std::pair<std::string, Circuit>> shapes;
    for (const auto &[name, text] : sources) {
        const AnnotatedProgram program = parseAnnotatedQasm(text);
        compile::PrepareSpec prep;
        prep.assertions = program.specs;
        prep.instrumentOptions.reuseAncillas = true;
        prep.coupling = &device.couplingMap();
        shapes.emplace_back(name,
                            compile::prepare(program.payload, prep).circuit);
    }
    return shapes;
}

TEST(TrajectoryPlanTest, ReuseShapesFitExactBranchedDistribution)
{
    // The trajectory plan against the density backend's exact record
    // branches: 8192 shots per shape and seed must pass the pooled
    // chi-square at a 1e-6 false-alarm rate.
    const DeviceModel device = DeviceModel::ibmqx4();
    const NoiseModel &noise = device.noiseModel();
    for (const auto &[name, c] : paperReuseShapes(device)) {
        std::size_t resets = 0;
        for (const Operation &op : c.ops())
            resets += op.kind == OpKind::Reset ? 1 : 0;
        ASSERT_GE(resets, 1u) << name;

        DensityMatrixSimulator density;
        density.setNoiseModel(&noise);
        const auto exact = density.exactDistribution(c);
        const stats::Distribution reference(exact.begin(), exact.end());
        for (const std::uint64_t seed : {1u, 2u}) {
            TrajectorySimulator sim(seed);
            sim.setNoiseModel(&noise);
            const Result r = sim.run(c, 8192);
            EXPECT_GE(stats::pooledChiSquareTest(r.rawCounts(), reference)
                          .pValue,
                      1e-6)
                << name << " seed " << seed;
        }
    }
}

TEST(TrajectoryPlanTest, FusedPlanMatchesUnfusedCounts)
{
    // Fusion only rearranges clean unitary segments; site structure
    // and draw sequence are unchanged, so with a shared seed the two
    // runs diverge only where a probability shifted by ULPs lands
    // exactly on a draw boundary. Counts must agree up to a handful
    // of such flips — never the O(0.1) shift a semantic fusion bug
    // produces. (Exact equality would hinge on FMA/libm luck.)
    for (const std::uint64_t seed : {31u, 32u}) {
        const std::size_t n = 6;
        const Circuit c = randomNoisyCircuit(n, 40, 700 + seed);
        const NoiseModel noise = depolarizingReadoutNoise(n);

        Result results[2];
        const int levels[2] = {kernels::kFusionNone,
                               kernels::kFusion2q};
        for (int i = 0; i < 2; ++i) {
            kernels::FusionScope fusion(levels[i]);
            TrajectorySimulator sim(seed);
            sim.setNoiseModel(&noise);
            results[i] = sim.run(c, 500);
        }
        EXPECT_EQ(results[0].shots(), results[1].shots());
        const double tv = stats::totalVariation(
            stats::toDistribution(results[0].rawCounts()),
            stats::toDistribution(results[1].rawCounts()));
        EXPECT_LE(tv, 0.02) << "seed " << seed;
    }
}

TEST(TrajectoryPlanTest, CountsBitIdenticalAcrossThreadsAndLanes)
{
    const std::size_t n = 6;
    const Circuit c = randomNoisyCircuit(n, 32, 900);
    const NoiseModel noise = depolarizingReadoutNoise(n);

    runtime::ExecutionEngine one(runtime::EngineOptions{
        .threads = 1, .shardShots = 128, .intraThreads = 1});
    runtime::ExecutionEngine four(runtime::EngineOptions{
        .threads = 4, .shardShots = 128, .intraThreads = 4});
    const Result a = one.run(c, 512, "trajectory", 77, &noise);
    const Result b = four.run(c, 512, "trajectory", 77, &noise);
    EXPECT_EQ(a.rawCounts(), b.rawCounts());
}

TEST(TrajectoryPlanTest, DepolarizingSitesHaveFixedWeights)
{
    Circuit c(2, 2);
    c.h(0).cx(0, 1).measureAll();
    NoiseModel noise;
    noise.setGateError(OpKind::CX, 0.1);
    noise.setReadoutError(0, ReadoutError(0.02, 0.03));

    const kernels::TrajectoryPlan plan =
        kernels::TrajectoryPlan::compile(c, &noise,
                                         kernels::kFusionNone);
    ASSERT_EQ(plan.numSites(), 1u);
    const kernels::KrausSite &site = plan.site(0);
    EXPECT_TRUE(site.fixedWeights);
    ASSERT_EQ(site.weights.size(), site.branches.size());
    double total = 0.0;
    for (const double w : site.weights)
        total += w;
    EXPECT_NEAR(total, 1.0, 1e-10);
    // Every branch of a depolarising channel is a (scaled) Pauli
    // tensor product, so the pre-lowered kernels must all be cheap
    // structural 1q classes — never a dense 4x4.
    for (const std::vector<kernels::PlanEntry> &branch : site.branches)
        for (const kernels::PlanEntry &entry : branch)
            EXPECT_NE(entry.kind, kernels::KernelKind::General2q);

    // Readout on qubit 0 only: its Measure entry carries the site,
    // qubit 1's does not.
    int readout_sites = 0;
    for (const kernels::PlanEntry &entry : plan.entries()) {
        if (entry.kind != kernels::KernelKind::Measure)
            continue;
        if (entry.q0 == 0) {
            EXPECT_GE(entry.site, 0);
            ++readout_sites;
        } else {
            EXPECT_LT(entry.site, 0);
        }
    }
    EXPECT_EQ(readout_sites, 1);
}

TEST(TrajectoryPlanTest, RelaxationSitesAreStateDependent)
{
    Circuit c(1, 1);
    c.h(0).measure(0, 0);
    NoiseModel noise;
    noise.setGateDuration(OpKind::H, 100.0);
    noise.setQubitRelaxation(0, 50000.0, 30000.0);

    const kernels::TrajectoryPlan plan =
        kernels::TrajectoryPlan::compile(c, &noise,
                                         kernels::kFusionNone);
    ASSERT_GE(plan.numSites(), 1u);
    const kernels::KrausSite &site = plan.site(0);
    EXPECT_FALSE(site.fixedWeights);
    // One-qubit sites keep only the flat operators with their Gram
    // matrices; the Matrix list is the multi-qubit fallback's.
    EXPECT_EQ(site.ops1q.size(), 4u);
    EXPECT_TRUE(site.ops.empty());

    // Completeness: sum_k G_k = I, so the weights of any reduced
    // density sum to its trace.
    const kernels::QubitDensity rho{0.3, 0.7, Complex{0.2, -0.4}};
    double total = 0.0;
    for (const kernels::Kraus1q &op : site.ops1q)
        total += op.weight(rho);
    EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(TrajectoryPlanTest, CleanSegmentsFuseNoisyGatesFence)
{
    // Noise only on CX: 1q runs fuse, the noisy CX stays fenced by
    // its sample site.
    Circuit c(2, 2);
    c.h(0).t(0).h(1).t(1).cx(0, 1).h(0).h(0).measureAll();
    NoiseModel noise;
    noise.setGateError(OpKind::CX, 0.05);

    const kernels::TrajectoryPlan fused =
        kernels::TrajectoryPlan::compile(c, &noise,
                                         kernels::kFusion2q);
    const kernels::TrajectoryPlan unfused =
        kernels::TrajectoryPlan::compile(c, &noise,
                                         kernels::kFusionNone);
    EXPECT_LT(fused.entries().size(), unfused.entries().size());
    EXPECT_GE(fused.stats().fusedGates, 4u); // t·h runs + h·h vanish

    bool has_site = false;
    for (const kernels::PlanEntry &entry : fused.entries())
        has_site = has_site ||
                   entry.kind == kernels::KernelKind::SampleKraus;
    EXPECT_TRUE(has_site);
}

TEST(TrajectoryPlanTest, BarriersFenceTrajectoryFusion)
{
    // The moment schedule drops barriers, but the plan must still
    // honour them as fusion fences — same contract as ExecutablePlan.
    Circuit hh(1, 1);
    hh.h(0).barrier().h(0).measure(0, 0);
    const kernels::TrajectoryPlan fenced1q =
        kernels::TrajectoryPlan::compile(hh, nullptr,
                                         kernels::kFusion2q);
    // H, H, Measure — the pair must not cancel across the barrier.
    EXPECT_EQ(fenced1q.entries().size(), 3u);

    Circuit cxcx(2, 2);
    cxcx.cx(0, 1).barrier().cx(0, 1).measureAll();
    const kernels::TrajectoryPlan fenced2q =
        kernels::TrajectoryPlan::compile(cxcx, nullptr,
                                         kernels::kFusion2q);
    std::size_t cx_entries = 0;
    for (const kernels::PlanEntry &entry : fenced2q.entries())
        if (entry.kind == kernels::KernelKind::ControlledX)
            ++cx_entries;
    EXPECT_EQ(cx_entries, 2u);

    // Without the barrier both collapse.
    Circuit free2q(2, 2);
    free2q.cx(0, 1).cx(0, 1).measureAll();
    const kernels::TrajectoryPlan open =
        kernels::TrajectoryPlan::compile(free2q, nullptr,
                                         kernels::kFusion2q);
    for (const kernels::PlanEntry &entry : open.entries())
        EXPECT_NE(entry.kind, kernels::KernelKind::ControlledX);
}

TEST(TrajectoryPlanTest, IdealPlanMatchesIdealLegacy)
{
    // No noise model at all: the plan path must still reproduce the
    // legacy interpreter (pure trajectory semantics).
    const Circuit c = randomNoisyCircuit(5, 30, 1300);
    kernels::FusionScope fusion(kernels::kFusionNone);
    TrajectorySimulator legacy(5);
    legacy.setUseLoweredPlan(false);
    TrajectorySimulator lowered(5);
    EXPECT_EQ(legacy.run(c, 300).rawCounts(),
              lowered.run(c, 300).rawCounts());
}

TEST(TrajectoryPlanTest, PlanCacheReusesTrajectoryPlans)
{
    const Circuit c = randomNoisyCircuit(4, 20, 1500);
    const NoiseModel noise = depolarizingReadoutNoise(4);

    kernels::PlanCache cache;
    kernels::PlanCacheScope scope(&cache);
    TrajectorySimulator sim(9);
    sim.setNoiseModel(&noise);
    const Result a = sim.run(c, 100);
    EXPECT_EQ(cache.stats().misses, 1u);

    sim.seed(9);
    const Result b = sim.run(c, 100);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(a.rawCounts(), b.rawCounts());

    // A different noise model (different fingerprint) must miss.
    const NoiseModel scaled = noise.scaled(2.0);
    TrajectorySimulator sim2(9);
    sim2.setNoiseModel(&scaled);
    sim2.run(c, 50);
    EXPECT_EQ(cache.stats().misses, 2u);
}

} // namespace
} // namespace qra
