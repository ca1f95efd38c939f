/** @file Tests for the DensityMatrix backend. */

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <random>

#include <gtest/gtest.h>

#include "circuit/schedule.hh"
#include "common/error.hh"
#include "common/hash.hh"
#include "math/gates.hh"
#include "noise/channels.hh"
#include "noise/device_model.hh"
#include "runtime/execution_engine.hh"
#include "sim/density_matrix.hh"
#include "sim/density_simulator.hh"
#include "sim/kernels/plan_cache.hh"
#include "sim/state_vector.hh"
#include "stats/chi_square.hh"
#include "paper_circuits.hh"
#include "testutil.hh"

namespace qra {
namespace {

/** Evolve the same ops on a StateVector for cross-checking. */
StateVector
statevectorReference(std::size_t nq, const std::vector<Operation> &ops)
{
    StateVector sv(nq);
    for (const Operation &op : ops)
        sv.applyUnitary(op);
    return sv;
}

TEST(DensityMatrixTest, InitialStateIsPureZero)
{
    DensityMatrix dm(2);
    EXPECT_NEAR(dm.matrix()(0, 0).real(), 1.0, 1e-12);
    EXPECT_NEAR(dm.trace(), 1.0, 1e-12);
    EXPECT_NEAR(dm.purity(), 1.0, 1e-12);
}

TEST(DensityMatrixTest, SizeLimits)
{
    EXPECT_THROW(DensityMatrix(0), SimulationError);
    EXPECT_THROW(DensityMatrix(DensityMatrix::kMaxQubits + 1),
                 SimulationError);
}

TEST(DensityMatrixTest, UnitaryEvolutionMatchesStateVector)
{
    const std::vector<Operation> ops{
        {.kind = OpKind::H, .qubits = {0}},
        {.kind = OpKind::CX, .qubits = {0, 1}},
        {.kind = OpKind::T, .qubits = {1}},
        {.kind = OpKind::RY, .qubits = {2}, .params = {0.7}},
        {.kind = OpKind::CZ, .qubits = {1, 2}},
    };
    DensityMatrix dm(3);
    for (const Operation &op : ops)
        dm.applyUnitary(op);

    const StateVector sv = statevectorReference(3, ops);
    EXPECT_NEAR(dm.fidelityWithPure(sv.amplitudes()), 1.0, 1e-10);
    EXPECT_NEAR(dm.purity(), 1.0, 1e-10);
}

TEST(DensityMatrixTest, ProbabilitiesMatchStateVector)
{
    const std::vector<Operation> ops{
        {.kind = OpKind::H, .qubits = {0}},
        {.kind = OpKind::CX, .qubits = {0, 1}},
    };
    DensityMatrix dm(2);
    for (const Operation &op : ops)
        dm.applyUnitary(op);
    const StateVector sv = statevectorReference(2, ops);

    const auto dm_probs = dm.probabilities();
    const auto sv_probs = sv.probabilities();
    for (std::size_t i = 0; i < dm_probs.size(); ++i)
        EXPECT_NEAR(dm_probs[i], sv_probs[i], 1e-12) << i;
}

TEST(DensityMatrixTest, FromPureState)
{
    DensityMatrix dm = DensityMatrix::fromPureState(
        {kInvSqrt2, 0.0, 0.0, kInvSqrt2});
    EXPECT_NEAR(dm.purity(), 1.0, 1e-12);
    EXPECT_NEAR(dm.probabilityOfOne(0), 0.5, 1e-12);
    EXPECT_NEAR(dm.probabilityOfOne(1), 0.5, 1e-12);
}

TEST(DensityMatrixTest, DephaseKillsCoherence)
{
    DensityMatrix dm(1);
    dm.applyUnitary({.kind = OpKind::H, .qubits = {0}});
    EXPECT_NEAR(std::abs(dm.matrix()(0, 1)), 0.5, 1e-12);
    dm.dephase(0);
    EXPECT_NEAR(std::abs(dm.matrix()(0, 1)), 0.0, 1e-12);
    // Populations survive.
    EXPECT_NEAR(dm.probabilityOfOne(0), 0.5, 1e-12);
    EXPECT_NEAR(dm.purity(), 0.5, 1e-12);
}

TEST(DensityMatrixTest, DephaseOnlyTargetsQubit)
{
    DensityMatrix dm(2);
    dm.applyUnitary({.kind = OpKind::H, .qubits = {0}});
    dm.applyUnitary({.kind = OpKind::H, .qubits = {1}});
    dm.dephase(0);
    // Qubit 1 keeps its coherence: rho(0,2) couples q1's 0 and 1
    // with q0 fixed at 0.
    EXPECT_NEAR(std::abs(dm.matrix()(0, 2)), 0.25, 1e-12);
}

TEST(DensityMatrixTest, ProjectKeepsOutcomeWeight)
{
    DensityMatrix dm(2);
    dm.applyUnitary({.kind = OpKind::H, .qubits = {0}});
    dm.applyUnitary({.kind = OpKind::CX, .qubits = {0, 1}});
    EXPECT_NEAR(dm.outcomeWeight(0, 1), 0.5, 1e-12);
    // Bell pair projected on q0=1 leaves |11>, unnormalised.
    dm.project(0, 1);
    EXPECT_NEAR(dm.trace(), 0.5, 1e-12);
    EXPECT_NEAR(dm.matrix()(3, 3).real(), 0.5, 1e-12);
    EXPECT_NEAR(dm.outcomeWeight(0, 0), 0.0, 1e-12);
    // A scale renormalises the row index once, so the state once.
    dm.project(0, 1, 2.0);
    EXPECT_NEAR(dm.trace(), 1.0, 1e-12);
}

TEST(DensityMatrixTest, ResetChannel)
{
    DensityMatrix dm(2);
    dm.applyUnitary({.kind = OpKind::X, .qubits = {0}});
    dm.applyUnitary({.kind = OpKind::H, .qubits = {1}});
    dm.resetQubit(0);
    EXPECT_NEAR(dm.probabilityOfOne(0), 0.0, 1e-12);
    // Qubit 1 untouched.
    EXPECT_NEAR(dm.probabilityOfOne(1), 0.5, 1e-12);
    EXPECT_NEAR(dm.trace(), 1.0, 1e-12);
}

TEST(DensityMatrixTest, ResetOfSuperposedQubit)
{
    DensityMatrix dm(1);
    dm.applyUnitary({.kind = OpKind::H, .qubits = {0}});
    dm.resetQubit(0);
    EXPECT_NEAR(dm.matrix()(0, 0).real(), 1.0, 1e-12);
    EXPECT_NEAR(dm.purity(), 1.0, 1e-12);
}

TEST(DensityMatrixTest, DepolarizingDrivesToMaximallyMixed)
{
    DensityMatrix dm(1);
    dm.applyKraus(channels::depolarizing1(1.0), {0});
    // p=1 depolarising leaves I/2... with our parameterisation
    // p=1 means uniform Paulis: (rho + X rho X + Y rho Y + Z rho Z)/3
    // applied to |0><0| = (|0><0| + 2|1><1| + ... ) — compute:
    // result diag = (1/3)(0,?) -> direct check: trace stays 1.
    EXPECT_NEAR(dm.trace(), 1.0, 1e-12);
    EXPECT_NEAR(dm.matrix()(0, 0).real() + dm.matrix()(1, 1).real(),
                1.0, 1e-12);
    // With p = 3/4 the channel is exactly the replace-by-I/2 map.
    DensityMatrix dm2(1);
    dm2.applyKraus(channels::depolarizing1(0.75), {0});
    EXPECT_NEAR(dm2.matrix()(0, 0).real(), 0.5, 1e-12);
    EXPECT_NEAR(dm2.matrix()(1, 1).real(), 0.5, 1e-12);
}

TEST(DensityMatrixTest, AmplitudeDampingDecaysExcitedState)
{
    DensityMatrix dm(1);
    dm.applyUnitary({.kind = OpKind::X, .qubits = {0}});
    dm.applyKraus(channels::amplitudeDamping(0.3), {0});
    EXPECT_NEAR(dm.probabilityOfOne(0), 0.7, 1e-12);
    EXPECT_NEAR(dm.trace(), 1.0, 1e-12);
}

TEST(DensityMatrixTest, KrausOnSpecificQubitOfRegister)
{
    DensityMatrix dm(3);
    dm.applyUnitary({.kind = OpKind::X, .qubits = {1}});
    dm.applyKraus(channels::amplitudeDamping(1.0), {1});
    EXPECT_NEAR(dm.probabilityOfOne(1), 0.0, 1e-12);
    EXPECT_NEAR(dm.probabilityOfOne(0), 0.0, 1e-12);
    EXPECT_NEAR(dm.trace(), 1.0, 1e-12);
}

TEST(DensityMatrixTest, ReducedQubitDensity)
{
    DensityMatrix dm(2);
    dm.applyUnitary({.kind = OpKind::H, .qubits = {0}});
    dm.applyUnitary({.kind = OpKind::CX, .qubits = {0, 1}});
    const Matrix reduced = dm.reducedQubitDensity(0);
    EXPECT_NEAR(reduced(0, 0).real(), 0.5, 1e-12);
    EXPECT_NEAR(std::abs(reduced(0, 1)), 0.0, 1e-12);
}

TEST(DensityMatrixTest, TwoQubitKrausChannel)
{
    DensityMatrix dm(2);
    dm.applyUnitary({.kind = OpKind::H, .qubits = {0}});
    dm.applyUnitary({.kind = OpKind::CX, .qubits = {0, 1}});
    dm.applyKraus(channels::depolarizing2(0.1), {0, 1});
    EXPECT_NEAR(dm.trace(), 1.0, 1e-10);
    EXPECT_LT(dm.purity(), 1.0);
    EXPECT_GT(dm.purity(), 0.8);
}


// ---- independent oracle for the superoperator plan ------------------
//
// The reference evolves the full 2^n x 2^n matrix as sum_k K rho K^dagger
// with every operator embedded at full size through Matrix::kron and
// operator*: no kernels, no plan, no vec(rho) view.

/** |i><j| on qubit @p q of an n-qubit register (qubit 0 = bit 0). */
Matrix
unitOn(std::size_t n, Qubit q, std::size_t i, std::size_t j)
{
    Matrix e(2, 2);
    e(i, j) = 1.0;
    Matrix full = Matrix::identity(1);
    for (std::size_t k = n; k-- > 0;)
        full = full.kron(k == q ? e : Matrix::identity(2));
    return full;
}

/** Full-register operator of @p m; matrix bit j is qubits[j]. */
Matrix
embed(const Matrix &m, const Operands &qubits, std::size_t n)
{
    const std::size_t dim = std::size_t{1} << n;
    Matrix full(dim, dim);
    for (std::size_t r = 0; r < m.rows(); ++r)
        for (std::size_t c = 0; c < m.cols(); ++c) {
            if (m(r, c) == Complex{0.0, 0.0})
                continue;
            Matrix term = Matrix::identity(dim);
            for (std::size_t j = 0; j < qubits.size(); ++j)
                term = term * unitOn(n, qubits[j], (r >> j) & 1,
                                     (c >> j) & 1);
            full += term * m(r, c);
        }
    return full;
}

Matrix
referenceChannel(const Matrix &rho, const std::vector<Matrix> &kraus,
                 const Operands &qubits, std::size_t n)
{
    Matrix out(rho.rows(), rho.cols());
    for (const Matrix &k : kraus) {
        const Matrix full = embed(k, qubits, n);
        out += full * rho * full.adjoint();
    }
    return out;
}

/** True when an op after @p idx (barriers aside) touches its qubit. */
bool
usedLater(const Circuit &circuit, std::size_t idx)
{
    const Qubit q = circuit.ops()[idx].qubits[0];
    for (std::size_t j = idx + 1; j < circuit.size(); ++j) {
        const Operation &op = circuit.ops()[j];
        if (op.kind != OpKind::Barrier &&
            std::find(op.qubits.begin(), op.qubits.end(), q) !=
                op.qubits.end())
            return true;
    }
    return false;
}

/**
 * The density backend's semantics, evolved densely: one rho per value
 * of the mid-circuit records, keyed by the clbits they wrote (records
 * that end up equal share one rho). A terminal measurement dephases
 * and freezes its qubit; post-selection renormalises every rho by the
 * total kept trace.
 */
struct Reference
{
    std::map<std::uint64_t, Matrix> rhos;
    /** clbit -> (qubit, is a record) of its last measurement. */
    std::map<Clbit, std::pair<Qubit, bool>> writers;

    /** The state with the records traced out. */
    Matrix
    sum() const
    {
        Matrix total = rhos.begin()->second;
        for (auto it = std::next(rhos.begin()); it != rhos.end(); ++it)
            total += it->second;
        return total;
    }

    /** Register distribution, readout confusion folded per clbit. */
    std::map<std::uint64_t, double>
    distribution(const NoiseModel &noise) const
    {
        std::map<std::uint64_t, double> dist;
        for (const auto &[key, rho] : rhos)
            for (std::size_t i = 0; i < rho.rows(); ++i) {
                std::uint64_t reg = 0;
                for (const auto &[c, w] : writers) {
                    const auto &[q, record] = w;
                    if (record ? (key >> c) & 1 : (i >> q) & 1)
                        reg |= std::uint64_t{1} << c;
                }
                dist[reg] += rho(i, i).real();
            }
        for (const auto &[c, w] : writers) {
            const ReadoutError *ro = noise.readoutFor(w.first);
            if (ro == nullptr)
                continue;
            std::map<std::uint64_t, double> read;
            const std::uint64_t bit = std::uint64_t{1} << c;
            for (const auto &[reg, p] : dist) {
                const int truth = (reg & bit) ? 1 : 0;
                read[reg & ~bit] += p * ro->confusion(truth, 0);
                read[reg | bit] += p * ro->confusion(truth, 1);
            }
            dist = std::move(read);
        }
        return dist;
    }
};

Reference
referenceRun(const Circuit &circuit, const NoiseModel &noise)
{
    const std::size_t n = circuit.numQubits();
    Reference ref;
    Matrix &initial = ref.rhos[0];
    initial = Matrix(std::size_t{1} << n, std::size_t{1} << n);
    initial(0, 0) = 1.0;
    const Matrix p0{{1.0, 0.0}, {0.0, 0.0}};
    const Matrix p1{{0.0, 0.0}, {0.0, 1.0}};
    const Matrix lower{{0.0, 1.0}, {0.0, 0.0}};
    const auto every = [&](const std::vector<Matrix> &kraus,
                           const Operands &qubits) {
        for (auto &[key, rho] : ref.rhos)
            rho = referenceChannel(rho, kraus, qubits, n);
    };
    std::vector<bool> frozen(n, false);
    const auto duration = [&](const Operation &op) {
        return noise.opDuration(op);
    };
    for (const TimedMoment &moment :
         computeTimedMoments(circuit, duration)) {
        for (const std::size_t idx : moment.opIndices) {
            const Operation &op = circuit.ops()[idx];
            switch (op.kind) {
              case OpKind::Measure:
              {
                const Qubit q = op.qubits[0];
                const bool record = usedLater(circuit, idx);
                ref.writers[*op.clbit] = {q, record};
                if (!record) {
                    every({p0, p1}, op.qubits);
                    frozen[q] = true;
                    continue;
                }
                const std::uint64_t bit = std::uint64_t{1} << *op.clbit;
                std::map<std::uint64_t, Matrix> split;
                for (const auto &[key, rho] : ref.rhos)
                    for (const int outcome : {0, 1}) {
                        const Matrix keep =
                            embed(outcome ? p1 : p0, op.qubits, n);
                        const std::uint64_t to =
                            outcome ? key | bit : key & ~bit;
                        const Matrix part = keep * rho * keep;
                        auto [it, fresh] = split.emplace(to, part);
                        if (!fresh)
                            it->second += part;
                    }
                ref.rhos = std::move(split);
                continue;
              }
              case OpKind::Reset:
                every({p0, lower}, op.qubits);
                continue;
              case OpKind::PostSelect:
              {
                const Matrix keep =
                    embed(op.postselectValue ? p1 : p0, op.qubits, n);
                double kept = 0.0;
                for (auto &[key, rho] : ref.rhos) {
                    rho = keep * rho * keep;
                    kept += rho.trace().real();
                }
                for (auto &[key, rho] : ref.rhos)
                    rho *= Complex{1.0 / kept, 0.0};
                continue;
              }
              case OpKind::Barrier:
                continue;
              default:
                break;
            }
            every({op.matrix()}, op.qubits);
            for (const auto &applied : noise.channelsFor(op))
                every(applied.channel.operators(), applied.qubits);
        }
        for (Qubit q = 0; q < n; ++q) {
            if (frozen[q])
                continue;
            if (auto relax = noise.relaxationFor(q, moment.durationNs))
                every(relax->operators(), {q});
        }
    }
    return ref;
}

/** Largest |a - b| over the union of both distributions' outcomes. */
double
maxDistributionDiff(const std::map<std::uint64_t, double> &a,
                    const std::map<std::uint64_t, double> &b)
{
    double diff = 0.0;
    for (const auto &[key, p] : a)
        diff = std::max(diff, std::abs(p - (b.count(key) ? b.at(key) : 0.0)));
    for (const auto &[key, p] : b)
        diff = std::max(diff, std::abs(p - (a.count(key) ? a.at(key) : 0.0)));
    return diff;
}

/**
 * Seeded random circuit: 1q, 2q and 3q gates (CY is noise-free on
 * ibmqx4, CCX gets pairwise depolarising), resets, a post-selection
 * on a superposed qubit, a barrier, one mid-circuit measurement whose
 * qubit is reused, one early terminal measurement and terminal
 * measures of the rest.
 */
Circuit
randomNoisyCircuit(std::uint64_t seed, std::size_t n)
{
    std::mt19937_64 rng(seed);
    const auto pick = [&](std::size_t bound) {
        return static_cast<std::size_t>(rng() % bound);
    };
    Circuit c(n, n + 1);
    std::vector<Qubit> live(n);
    for (Qubit q = 0; q < n; ++q)
        live[q] = q;
    const auto any = [&]() { return live[pick(live.size())]; };
    const auto distinct = [&](std::size_t k) {
        std::vector<Qubit> pool = live;
        std::vector<Qubit> out;
        for (std::size_t i = 0; i < k; ++i) {
            const std::size_t at = pick(pool.size());
            out.push_back(pool[at]);
            pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(at));
        }
        return out;
    };
    Clbit next_clbit = 0;
    const std::size_t length = 26;
    for (std::size_t i = 0; i < length; ++i) {
        if (i == length / 4) {
            // A record: the measured qubit is rotated and used again.
            const Qubit q = any();
            c.measure(q, next_clbit++).h(q);
        }
        if (i == length / 2) {
            // One qubit measured mid-circuit, never touched again.
            const Qubit q = any();
            c.measure(q, next_clbit++);
            live.erase(std::find(live.begin(), live.end(), q));
        }
        if (i == length / 3)
            c.barrier();
        if (i == 2 * length / 3) {
            // Reset first so the kept branch has weight ~1/2.
            const Qubit q = any();
            c.reset(q).h(q).postSelect(q, static_cast<int>(pick(2)));
        }
        const double angle = 0.1 + 0.37 * static_cast<double>(pick(16));
        switch (pick(11)) {
          case 0: c.h(any()); break;
          case 1: c.x(any()); break;
          case 2: c.t(any()); break;
          case 3: c.ry(angle, any()); break;
          case 4: c.u(angle, 0.3, -angle, any()); break;
          case 5: { const auto q = distinct(2); c.cx(q[0], q[1]); break; }
          case 6: { const auto q = distinct(2); c.cz(q[0], q[1]); break; }
          case 7: { const auto q = distinct(2); c.swap(q[0], q[1]); break; }
          case 8: { const auto q = distinct(2); c.cy(q[0], q[1]); break; }
          case 9:
          {
            const auto q = distinct(3);
            c.ccx(q[0], q[1], q[2]);
            break;
          }
          default: c.reset(any()); break;
        }
    }
    for (std::size_t i = live.size(); i-- > 0;)
        c.measure(live[i], next_clbit++);
    return c;
}

TEST(DensityPlanOracle, RandomNoisyCircuitsMatchDenseKrausReference)
{
    // The state with records traced out, and the register distribution
    // with each record's branch and readout folded in.
    const DeviceModel device = DeviceModel::ibmqx4();
    const NoiseModel &noise = device.noiseModel();
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        const Circuit circuit = randomNoisyCircuit(seed, 4);
        const Reference reference = referenceRun(circuit, noise);
        ASSERT_EQ(reference.rhos.size(), 2u) << "seed " << seed;
        for (int fusion : {kernels::kFusionNone, kernels::kFusion1q,
                           kernels::kFusion2q}) {
            kernels::FusionScope scope(fusion);
            DensityMatrixSimulator sim;
            sim.setNoiseModel(&noise);
            const Matrix got = sim.finalState(circuit).matrix();
            EXPECT_LE(got.maxAbsDiff(reference.sum()), 1e-12)
                << "seed " << seed << " fusion " << fusion;
            EXPECT_LE(maxDistributionDiff(sim.exactDistribution(circuit),
                                          reference.distribution(noise)),
                      1e-12)
                << "seed " << seed << " fusion " << fusion;
        }
    }
}

/**
 * @p circuit with every mid-circuit measurement deferred: its qubit is
 * CXed onto a fresh qubit, which is measured into the clbit at the end.
 */
Circuit
deferMeasurements(const Circuit &circuit)
{
    std::vector<std::size_t> mid;
    for (std::size_t i = 0; i < circuit.size(); ++i)
        if (circuit.ops()[i].kind == OpKind::Measure && usedLater(circuit, i))
            mid.push_back(i);
    const std::size_t n = circuit.numQubits();
    Circuit deferred(n + mid.size(), circuit.numClbits());
    std::vector<std::pair<Qubit, Clbit>> finals;
    for (std::size_t i = 0; i < circuit.size(); ++i) {
        const Operation &op = circuit.ops()[i];
        if (std::find(mid.begin(), mid.end(), i) == mid.end()) {
            deferred.append(op);
            continue;
        }
        const auto fresh = static_cast<Qubit>(n + finals.size());
        deferred.cx(op.qubits[0], fresh);
        finals.emplace_back(fresh, *op.clbit);
    }
    for (const auto &[q, c] : finals)
        deferred.measure(q, c);
    return deferred;
}

TEST(DensityPlanOracle, IdealRecordsMatchDeferredMeasurement)
{
    // Deferred, the record is a terminal measurement on today's
    // dephasing path; branched, it is a projector split.
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        const Circuit circuit = randomNoisyCircuit(seed, 4);
        const Circuit deferred = deferMeasurements(circuit);
        ASSERT_EQ(deferred.numQubits(), 5u) << "seed " << seed;
        DensityMatrixSimulator sim;
        EXPECT_LE(maxDistributionDiff(sim.exactDistribution(circuit),
                                      sim.exactDistribution(deferred)),
                  1e-12)
            << "seed " << seed;
    }
}

TEST(DensityPlanOracle, BellWithReusedAncillaMatchesHand)
{
    // Table 2's Bell pair with two parity checks sharing ancilla q2,
    // reset between them, and readout error alone: the payload is 00
    // or 11 with 1/2 each, both checks read parity 0, and every bit is
    // then read through its confusion independently.
    Circuit c(3, 4);
    c.h(0).cx(0, 1);
    c.cx(0, 2).cx(1, 2).measure(2, 2).reset(2);
    c.cx(0, 2).cx(1, 2).measure(2, 3);
    c.measure(0, 0).measure(1, 1);
    NoiseModel noise;
    const ReadoutError ro(0.02, 0.05);
    for (Qubit q = 0; q < 3; ++q)
        noise.setReadoutError(q, ro);
    DensityMatrixSimulator sim;
    sim.setNoiseModel(&noise);
    const auto dist = sim.exactDistribution(c);
    ASSERT_EQ(dist.size(), 16u);
    for (std::uint64_t reg = 0; reg < 16; ++reg) {
        const auto read = [&](int truth, int bit) {
            return ro.confusion(truth, static_cast<int>((reg >> bit) & 1));
        };
        double want = 0.0;
        for (const int v : {0, 1})
            want += 0.5 * read(v, 0) * read(v, 1) * read(0, 2) * read(0, 3);
        EXPECT_NEAR(dist.at(reg), want, 1e-15) << reg;
    }
}

TEST(DensityPlanOracle, IdealAndPublicMethodsMatchReference)
{
    // Ideal evolution (no noise model) through the plan, and the same
    // circuit's channels through DensityMatrix's public methods.
    const NoiseModel none;
    for (std::uint64_t seed = 21; seed <= 24; ++seed) {
        const Circuit circuit = randomNoisyCircuit(seed, 4);
        DensityMatrixSimulator sim;
        EXPECT_LE(sim.finalState(circuit).matrix().maxAbsDiff(
                      referenceRun(circuit, none).sum()),
                  1e-12)
            << "seed " << seed;
    }
    DensityMatrix dm(3);
    Matrix rho(8, 8);
    rho(0, 0) = 1.0;
    const Operation h{.kind = OpKind::H, .qubits = {2}};
    const Operation cx{.kind = OpKind::CX, .qubits = {2, 0}};
    const Operation ccx{.kind = OpKind::CCX, .qubits = {0, 2, 1}};
    for (const Operation &op : {h, cx, ccx}) {
        dm.applyUnitary(op);
        rho = referenceChannel(rho, {op.matrix()}, op.qubits, 3);
    }
    const KrausChannel dep2 = channels::depolarizing2(0.2);
    dm.applyKraus(dep2, {1, 2});
    rho = referenceChannel(rho, dep2.operators(), {1, 2}, 3);
    const KrausChannel relax = channels::thermalRelaxation(4e4, 3e4, 900);
    dm.applyKraus(relax, {0});
    rho = referenceChannel(rho, relax.operators(), {0}, 3);
    EXPECT_LE(dm.matrix().maxAbsDiff(rho), 1e-12);
}

TEST(DensityPlanOracle, CachedAndThreadedRunsAreBitIdentical)
{
    const DeviceModel device = DeviceModel::ibmqx4();
    const NoiseModel &noise = device.noiseModel();
    kernels::PlanCache cache;
    // 8 qubits: vec(rho) has 2^16 entries, enough for the kernels to
    // split across engine lanes.
    for (const auto &[seed, n] :
         std::vector<std::pair<std::uint64_t, std::size_t>>{
             {3, 4}, {5, 5}, {8, 8}}) {
        const Circuit circuit = randomNoisyCircuit(seed, n);
        DensityMatrixSimulator direct(seed);
        direct.setNoiseModel(&noise);
        const Result local = direct.run(circuit, 4096);
        ASSERT_TRUE(local.exactDistribution().has_value());
        for (int pass = 0; pass < 2; ++pass) { // miss, then hit
            kernels::PlanCacheScope scope(&cache);
            DensityMatrixSimulator cached(seed);
            cached.setNoiseModel(&noise);
            const Result result = cached.run(circuit, 4096);
            EXPECT_EQ(result.exactDistribution(),
                      local.exactDistribution());
            EXPECT_EQ(result.rawCounts(), local.rawCounts());
        }

        runtime::ExecutionEngine one(runtime::EngineOptions{.threads = 1});
        runtime::ExecutionEngine four(
            runtime::EngineOptions{.threads = 4});
        const Result a = one.run(circuit, 4096, "density", seed, &noise);
        const Result b = four.run(circuit, 4096, "density", seed, &noise);
        EXPECT_EQ(a.exactDistribution(), local.exactDistribution());
        EXPECT_EQ(b.exactDistribution(), local.exactDistribution());
        EXPECT_EQ(a.rawCounts(), b.rawCounts());
    }
    EXPECT_EQ(cache.stats().hits, 3u);
}

/**
 * From CumulativeSampler's split on, a density run's counts are drawn
 * by binomial splits: they must fit the run's own exact distribution
 * (pooled chi-square, 1e-6 false-alarm rate per fit).
 */
void
expectSplitCountsFit(const Result &r, const std::string &where)
{
    ASSERT_TRUE(r.exactDistribution().has_value()) << where;
    const stats::Distribution &exact = *r.exactDistribution();
    if (r.shots() < CumulativeSampler::kSplitShotsPerKey * exact.size())
        return;
    EXPECT_GE(stats::pooledChiSquareTest(r.rawCounts(), exact).pValue, 1e-6)
        << where << ": " << r.shots() << " shots over " << exact.size()
        << " keys";
}

/** Folds a run's raw counts, retained fraction and exact distribution. */
std::uint64_t
mixRun(std::uint64_t h, const Result &r)
{
    for (const auto &[key, count] : r.rawCounts())
        h = fnv1aMix64(fnv1aMix64(h, key), count);
    h = fnv1aMix64(h, std::bit_cast<std::uint64_t>(r.retainedFraction()));
    if (r.exactDistribution())
        for (const auto &[key, p] : *r.exactDistribution())
            h = fnv1aMix64(fnv1aMix64(h, key),
                           std::bit_cast<std::uint64_t>(p));
    return h;
}

// Pinned before the register distribution was cached: every later
// change to the density backend's sampling or caching must reproduce
// these counts, exact distributions and retained fractions bit for
// bit. Never re-pin them. One deliberate move so far (the second of
// the sampling stream, after the statevector rows of
// EngineGoldenCounts): CumulativeSampler::counts splits shots by
// binomial draws from 32 shots per key on, so every row whose 8192-shot
// runs split was re-pinned. The ideal table1 rows have one key, which
// gets every shot in either regime, so they kept their digests. Every
// split run is fitted against its exact distribution
// (expectSplitCountsFit).
TEST(DensityGoldenCounts, PaperAndRandomCircuitsAcrossRunners)
{
    const DeviceModel device = DeviceModel::ibmqx4();
    std::vector<std::pair<std::string, Circuit>> circuits =
        test::paperPreparedShapes(device, false);
    for (auto &shape : test::paperPreparedShapes(device, true))
        circuits.push_back(std::move(shape));
    for (const std::uint64_t seed : {1u, 2u, 3u})
        circuits.emplace_back("random" + std::to_string(seed),
                              randomNoisyCircuit(seed, 4));

    // Per (circuit, noise): the direct simulator's digest and the
    // engine's (whose shard seed is derived from the job seed).
    const std::map<std::string, std::pair<std::uint64_t, std::uint64_t>>
        golden = {
            {"table1/ideal",
             {0x32fa48816a45b1c5ULL, 0x32fa48816a45b1c5ULL}},
            {"table1/ibmqx4",
             {0xd16058d869946e6bULL, 0xc57516e39a9a694eULL}},
            {"table2_bell/ideal",
             {0x8fc29df112d0a384ULL, 0xd23d7b1a5c7767dfULL}},
            {"table2_bell/ibmqx4",
             {0xda4355553a8ffe8ULL, 0xcd01b259d484dbf6ULL}},
            {"sec43_plus/ideal",
             {0xd8c0e6a5cd04a8b2ULL, 0xce30d0f492bfcbefULL}},
            {"sec43_plus/ibmqx4",
             {0x6fb1827de605dd68ULL, 0xb5b0d1903d857a95ULL}},
            {"fig4_ghz3/ideal",
             {0xead0adfd08ff5ba8ULL, 0xb1fee87ad110ecbfULL}},
            {"fig4_ghz3/ibmqx4",
             {0x4920c21566e954fdULL, 0xe79a87780629893ULL}},
            {"ghz4_auto/ideal",
             {0x25bd7793019d0708ULL, 0x6198b8307100ee77ULL}},
            {"ghz4_auto/ibmqx4",
             {0xcd3a6e7a44f148a1ULL, 0x5f2eab7156cfec02ULL}},
            {"w3_auto/ideal",
             {0x2bd6400096d1efe0ULL, 0x146274e98ce28b3bULL}},
            {"w3_auto/ibmqx4",
             {0xc2f2cad87faed1a4ULL, 0xbe37c85ec517f7ccULL}},
            {"table1_x2/ideal",
             {0x32fa48816a45b1c5ULL, 0x32fa48816a45b1c5ULL}},
            {"table1_x2/ibmqx4",
             {0x3d0e050baa7c8f35ULL, 0xb9783ec792bc1f89ULL}},
            {"table2_bell_x2/ideal",
             {0x7e6f7fd4bc14d62cULL, 0xeb729d10d7a3c827ULL}},
            {"table2_bell_x2/ibmqx4",
             {0x54741c175f8bfb10ULL, 0x96d7382a8d00439ULL}},
            {"sec43_plus_x2/ideal",
             {0xc112e241f6376cbaULL, 0x5f07a490ff5b8c27ULL}},
            {"sec43_plus_x2/ibmqx4",
             {0x684e06a78a4ed666ULL, 0xda9e5a94b565a6cbULL}},
            {"fig4_ghz3_seq/ideal",
             {0xbe8ee59e9b66b860ULL, 0x843fc3a1a742ca87ULL}},
            {"fig4_ghz3_seq/ibmqx4",
             {0x22578954e284b911ULL, 0x9a247b44c7fba0eaULL}},
            {"ghz4_seq/ideal",
             {0x3ffae32b530ef518ULL, 0xc0e4d93c5e70ef27ULL}},
            {"ghz4_seq/ibmqx4",
             {0x397fddd9b6229b5eULL, 0xdb73957c5b2274b6ULL}},
            {"random1/ideal",
             {0x97067921bb2eac80ULL, 0x93338a70e36ec182ULL}},
            {"random1/ibmqx4",
             {0x2232564711cbe3e0ULL, 0x5d0e19ed96b0e485ULL}},
            {"random2/ideal",
             {0xa9588547f64458e2ULL, 0x40a38ff54b58808eULL}},
            {"random2/ibmqx4",
             {0x77b2ffae7167455cULL, 0x35ed685f37a442a8ULL}},
            {"random3/ideal",
             {0x5083208f8bd8f9cdULL, 0x870fac7d9f527825ULL}},
            {"random3/ibmqx4",
             {0xdaa46355338621c2ULL, 0x4e6475fc39a5c2ffULL}},
        };
    const NoiseModel *noises[] = {nullptr, &device.noiseModel()};
    std::vector<std::pair<std::string, std::pair<std::uint64_t, std::uint64_t>>>
        got;
    for (const auto &[name, circuit] : circuits)
        for (const NoiseModel *noise : noises) {
            const std::string key =
                name + (noise != nullptr ? "/ibmqx4" : "/ideal");
            std::uint64_t direct = kFnv1aOffset;
            std::uint64_t cached = kFnv1aOffset;
            std::uint64_t engine[2] = {kFnv1aOffset, kFnv1aOffset};
            auto artifacts = std::make_shared<kernels::PlanCache>();
            runtime::ExecutionEngine one(
                runtime::EngineOptions{.threads = 1});
            runtime::ExecutionEngine four(
                runtime::EngineOptions{.threads = 4});
            for (const std::size_t shots : {1u, 256u, 8192u})
                for (const std::uint64_t seed : {5u, 6u}) {
                    DensityMatrixSimulator sim(seed);
                    sim.setNoiseModel(noise);
                    const Result run = sim.run(circuit, shots);
                    expectSplitCountsFit(run, key);
                    direct = mixRun(direct, run);
                    {
                        // Miss on the first (shots, seed), hits after.
                        kernels::PlanCacheScope scope(artifacts.get());
                        DensityMatrixSimulator hit(seed);
                        hit.setNoiseModel(noise);
                        cached = mixRun(cached, hit.run(circuit, shots));
                    }
                    runtime::ExecutionEngine *engines[] = {&one, &four};
                    for (int e = 0; e < 2; ++e) {
                        runtime::Job job(circuit, shots, "density", seed,
                                         noise);
                        job.artifacts = artifacts;
                        const Result run = engines[e]->run(job);
                        expectSplitCountsFit(run, key + " engine");
                        engine[e] = mixRun(engine[e], run);
                    }
                }
            EXPECT_EQ(cached, direct) << key;
            EXPECT_EQ(engine[1], engine[0]) << key;
            got.emplace_back(key, std::pair{direct, engine[0]});
        }
    test::expectGoldenTable(golden, got);
}

// Which regime each e2ebench paper kind's sampling takes under ibmqx4
// noise: paper_ibmqx4's 8192 shots split on every kind, and of
// paper_reuse_traj's 256-shot kinds the 8-key ones split while the
// wider registers (16, 32 and 64 keys) stay per-shot.
TEST(DensitySplit, PaperKindsTakeTheirRegime)
{
    const DeviceModel device = DeviceModel::ibmqx4();
    DensityMatrixSimulator sim;
    sim.setNoiseModel(&device.noiseModel());
    const std::map<std::string, std::size_t> keys = {
        {"table1", 4},          {"table2_bell", 8},  {"sec43_plus", 4},
        {"fig4_ghz3", 16},      {"ghz4_auto", 32},   {"w3_auto", 16},
        {"table1_x2", 8},       {"table2_bell_x2", 16},
        {"sec43_plus_x2", 8},   {"fig4_ghz3_seq", 32},
        {"ghz4_seq", 64}};
    for (const bool reuse : {false, true})
        for (const auto &[name, circuit] :
             test::paperPreparedShapes(device, reuse)) {
            const std::size_t size = sim.exactDistribution(circuit).size();
            EXPECT_EQ(size, keys.at(name)) << name;
            const bool split =
                (reuse ? 256u : 8192u) >=
                CumulativeSampler::kSplitShotsPerKey * size;
            EXPECT_EQ(split, !(reuse && size >= 16)) << name;
        }
}

/**
 * Five ibmqx4 qubits, each of the first @p records measured mid-circuit
 * and rotated again, then all five measured at the end: 5 + records
 * clbits, every register value reachable once readout noise is folded.
 */
Circuit
wideRegisterCircuit(std::size_t records)
{
    Circuit c(5, 5 + records);
    for (Qubit q = 0; q < 5; ++q)
        c.ry(0.3 + 0.41 * double(q), q);
    c.cx(0, 1).cx(1, 2).cx(2, 3).cx(3, 4);
    for (Qubit q = 0; q < records; ++q)
        c.measure(q, q).rx(0.7 + 0.23 * double(q), q);
    c.cx(4, 0).cz(1, 3).ry(1.1, 2);
    for (Qubit q = 0; q < 5; ++q)
        c.measure(q, records + q);
    return c;
}

// Pinned before the density sampler's per-shot search was replaced:
// registers of 9 and 10 clbits carry 512 and 1024 keys under readout
// noise, more than the smallest sampling structures hold. Never
// re-pin them. One deliberate move so far, as above: the 65536-shot
// runs split (64 or more shots per key), so all four rows were
// re-pinned, and their split runs are fitted against the exact
// distribution.
TEST(DensityGoldenCounts, WideReadoutNoisyRegisters)
{
    const DeviceModel device = DeviceModel::ibmqx4();
    const std::map<std::string, std::pair<std::uint64_t, std::uint64_t>>
        golden = {
            {"records4/ideal",
             {0xf88987288438dc35ULL, 0x6ec219dbbca657ccULL}},
            {"records4/ibmqx4",
             {0xdfc5f8891aeec25eULL, 0x3d644bcd197c52adULL}},
            {"records5/ideal",
             {0xb82865d708ca3984ULL, 0x6d5019c3010a9360ULL}},
            {"records5/ibmqx4",
             {0x1684ba164803e582ULL, 0x502e7c41222d9781ULL}},
        };
    const NoiseModel *noises[] = {nullptr, &device.noiseModel()};
    std::vector<std::pair<std::string, std::pair<std::uint64_t, std::uint64_t>>>
        got;
    for (const std::size_t records : {4u, 5u})
        for (const NoiseModel *noise : noises) {
            const Circuit circuit = wideRegisterCircuit(records);
            const std::string key =
                "records" + std::to_string(records) +
                (noise != nullptr ? "/ibmqx4" : "/ideal");
            std::uint64_t direct = kFnv1aOffset;
            std::uint64_t cached = kFnv1aOffset;
            std::uint64_t engine[2] = {kFnv1aOffset, kFnv1aOffset};
            auto artifacts = std::make_shared<kernels::PlanCache>();
            runtime::ExecutionEngine one(
                runtime::EngineOptions{.threads = 1});
            runtime::ExecutionEngine four(
                runtime::EngineOptions{.threads = 4});
            for (const std::size_t shots : {1u, 256u, 65536u})
                for (const std::uint64_t seed : {5u, 6u}) {
                    DensityMatrixSimulator sim(seed);
                    sim.setNoiseModel(noise);
                    const Result run = sim.run(circuit, shots);
                    expectSplitCountsFit(run, key);
                    direct = mixRun(direct, run);
                    {
                        kernels::PlanCacheScope scope(artifacts.get());
                        DensityMatrixSimulator hit(seed);
                        hit.setNoiseModel(noise);
                        cached = mixRun(cached, hit.run(circuit, shots));
                    }
                    runtime::ExecutionEngine *engines[] = {&one, &four};
                    for (int e = 0; e < 2; ++e) {
                        runtime::Job job(circuit, shots, "density", seed,
                                         noise);
                        job.artifacts = artifacts;
                        const Result run = engines[e]->run(job);
                        expectSplitCountsFit(run, key + " engine");
                        engine[e] = mixRun(engine[e], run);
                    }
                }
            if (noise != nullptr) {
                DensityMatrixSimulator sim;
                sim.setNoiseModel(noise);
                EXPECT_EQ(sim.exactDistribution(circuit).size(),
                          std::size_t{1} << (5 + records))
                    << key;
            }
            EXPECT_EQ(cached, direct) << key;
            EXPECT_EQ(engine[1], engine[0]) << key;
            got.emplace_back(key, std::pair{direct, engine[0]});
        }
    test::expectGoldenTable(golden, got);
}

} // namespace
} // namespace qra
