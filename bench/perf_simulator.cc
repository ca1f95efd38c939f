/**
 * @file
 * P1: simulator performance harness for the kernel subsystem.
 *
 * Eight sections, each with machine-readable JSON lines for the perf
 * trajectory:
 *  - gate throughput: amplitudes/sec per kernel class (diagonal,
 *    permutation, controlled, general 1q/2q, generic k-qubit) at one
 *    lane and at all pool lanes;
 *  - roofline: amps/sec of every vectorizable kernel class at every
 *    available SIMD tier against a measured copy-bandwidth ceiling on
 *    the same footprint, with simd_speedup = tier/scalar per class;
 *  - reduction roofline: the measurement-pipeline reductions
 *    (computeProbabilities, normSquaredOnMask, sumWeights, marginal
 *    scatter) per tier against the same ceiling, with reduce_speedup
 *    = tier/scalar, plus a cross-tier bit-identity check on sampled
 *    counts that gates the exit code (determinism is a hard verdict;
 *    throughput targets stay warn-only);
 *  - fusion: entry count and wall-time effect of the ExecutablePlan
 *    single-qubit fusion pass on a 1q-dense random circuit;
 *  - fusion depth: entries and evolve time at fusion levels 0/1/2,
 *    quantifying the two-qubit window cost model;
 *  - sampling throughput: shots/sec of sampled execution (alias
 *    table, O(1) per shot) vs the legacy per-shot cumulative scan;
 *  - marginal sampling: sampled shots/sec measuring the full register
 *    vs an ancilla-style subset (blocked parallel marginal);
 *  - trajectory: noisy (depolarizing + readout) shots/sec of the
 *    plan-lowered trajectory path vs the legacy Operation
 *    interpreter.
 *
 * Usage: perf_simulator [--json] [--qubits N] [--shots N]
 *   --json emits only the JSON lines (CI artifact mode).
 */

#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include <map>

#include "bench_util.hh"
#include "math/gates.hh"
#include "qra.hh"
#include "sim/kernels/alias_table.hh"
#include "sim/kernels/kernels.hh"
#include "sim/kernels/noise_plan.hh"
#include "sim/kernels/parallel.hh"
#include "sim/kernels/plan.hh"
#include "sim/kernels/simd/dispatch.hh"

using namespace qra;

namespace {

bool g_json_only = false;

using bench::secondsSince;

void
human(const char *fmt, ...)
{
    if (g_json_only)
        return;
    va_list args;
    va_start(args, fmt);
    std::vprintf(fmt, args);
    va_end(args);
}

Circuit
randomCircuit(std::size_t num_qubits, std::size_t num_gates,
              std::uint64_t seed)
{
    Circuit c(num_qubits, num_qubits, "random");
    Rng rng(seed);
    for (std::size_t i = 0; i < num_gates; ++i) {
        const Qubit q = static_cast<Qubit>(rng.below(num_qubits));
        switch (rng.below(4)) {
          case 0:
            c.h(q);
            break;
          case 1:
            c.t(q);
            break;
          case 2:
            c.ry(rng.uniform() * M_PI, q);
            break;
          default:
          {
            const Qubit r = static_cast<Qubit>(
                (q + 1 + rng.below(num_qubits - 1)) % num_qubits);
            c.cx(q, r);
          }
        }
    }
    return c;
}

/**
 * Time `reps` applications of one lowered operation and return
 * amplitudes/sec (2^n amps touched per application).
 */
double
gateThroughput(const Operation &op, std::size_t num_qubits,
               std::size_t reps)
{
    StateVector sv(num_qubits);
    const kernels::PlanEntry entry = kernels::lowerOperation(op);
    // Warm the cache once before timing.
    sv.applyKernel(entry);
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t r = 0; r < reps; ++r)
        sv.applyKernel(entry);
    const double seconds = secondsSince(start);
    return static_cast<double>(reps) *
           static_cast<double>(std::size_t{1} << num_qubits) / seconds;
}

void
gateThroughputSection(std::size_t num_qubits, std::size_t lanes,
                      runtime::ThreadPool *pool)
{
    struct GateCase
    {
        const char *name;
        const char *kernel_class;
        Operation op;
    };
    const Qubit a = 0;
    const Qubit b = static_cast<Qubit>(num_qubits - 1);
    const Qubit mid = static_cast<Qubit>(num_qubits / 2);
    const std::vector<GateCase> cases = {
        {"h", "general_1q", {.kind = OpKind::H, .qubits = {a}}},
        {"rz", "diagonal_1q",
         {.kind = OpKind::RZ, .qubits = {a}, .params = {0.37}}},
        {"x", "permutation", {.kind = OpKind::X, .qubits = {a}}},
        {"y", "antidiagonal_1q", {.kind = OpKind::Y, .qubits = {a}}},
        {"cx", "controlled_x", {.kind = OpKind::CX, .qubits = {a, b}}},
        {"cz", "phase_mask", {.kind = OpKind::CZ, .qubits = {a, b}}},
        {"cy", "controlled_1q", {.kind = OpKind::CY, .qubits = {a, b}}},
        {"swap", "permutation_2q",
         {.kind = OpKind::Swap, .qubits = {a, b}}},
        {"ccx", "toffoli",
         {.kind = OpKind::CCX, .qubits = {a, mid, b}}},
    };

    const std::size_t reps = 40;
    human("  %-8s %-16s %16s   (%zu qubits, %zu lane%s)\n", "gate",
          "kernel class", "amps/sec", num_qubits, lanes,
          lanes == 1 ? "" : "s");
    for (const GateCase &gc : cases) {
        double amps_per_sec = 0.0;
        {
            kernels::ParallelScope scope(pool, lanes);
            amps_per_sec = gateThroughput(gc.op, num_qubits, reps);
        }
        human("  %-8s %-16s %16.3e\n", gc.name, gc.kernel_class,
              amps_per_sec);
        std::printf("{\"bench\":\"perf_simulator\","
                    "\"section\":\"gate_throughput\",\"gate\":\"%s\","
                    "\"kernel_class\":\"%s\",\"qubits\":%zu,"
                    "\"lanes\":%zu,\"amps_per_sec\":%.3e}\n",
                    gc.name, gc.kernel_class, num_qubits, lanes,
                    amps_per_sec);
    }

    // Generic k-qubit path: a dense 8x8 unitary (kron of 1q gates).
    {
        const Matrix u8 = gates::h().kron(gates::t()).kron(gates::sx());
        StateVector sv(num_qubits);
        const std::vector<Qubit> qs = {a, mid, b};
        kernels::ParallelScope scope(pool, lanes);
        sv.applyMatrix(u8, qs);
        const auto start = std::chrono::steady_clock::now();
        for (std::size_t r = 0; r < reps; ++r)
            sv.applyMatrix(u8, qs);
        const double seconds = secondsSince(start);
        const double amps_per_sec =
            static_cast<double>(reps) *
            static_cast<double>(std::size_t{1} << num_qubits) /
            seconds;
        human("  %-8s %-16s %16.3e\n", "u8", "generic_k",
              amps_per_sec);
        std::printf("{\"bench\":\"perf_simulator\","
                    "\"section\":\"gate_throughput\",\"gate\":\"u8\","
                    "\"kernel_class\":\"generic_k\",\"qubits\":%zu,"
                    "\"lanes\":%zu,\"amps_per_sec\":%.3e}\n",
                    num_qubits, lanes, amps_per_sec);
    }
}

/**
 * Roofline: each vectorizable kernel class timed at every available
 * SIMD dispatch tier (forced via TierScope) on the same state, against
 * a measured copy-bandwidth ceiling over the same footprint. A pair
 * kernel streams read+write 16 B per amplitude — the same traffic as
 * the copy — so ceiling_amps_per_sec is the memory-bound limit and
 * amps_per_sec / ceiling the roofline fraction.
 *
 * @return per-class avx2-vs-scalar speedups (empty map when the CPU
 *         or build has no AVX2 tier), for the verdict line.
 */
std::map<std::string, double>
rooflineSection(std::size_t num_qubits)
{
    using kernels::simd::Tier;
    using kernels::simd::TierScope;

    const std::uint64_t n = std::uint64_t{1} << num_qubits;
    const Qubit mid = static_cast<Qubit>(num_qubits / 2);
    const Qubit hi = static_cast<Qubit>(num_qubits - 1);
    const std::size_t reps = 40;

    // Unitary operators so repeated application keeps |amps| bounded.
    const Matrix h = gates::h(), t = gates::t(), y = gates::y();
    const Matrix u4 = h.kron(t);
    struct RooflineCase
    {
        const char *kernel_class;
        std::function<void(Complex *)> apply;
    };
    const std::vector<RooflineCase> cases = {
        {"general_1q",
         [&](Complex *amps) {
             kernels::applyGeneral1q(amps, n, mid, h(0, 0), h(0, 1),
                                     h(1, 0), h(1, 1));
         }},
        {"diagonal_1q",
         [&](Complex *amps) {
             kernels::applyDiagonal1q(amps, n, mid, t(0, 0), t(1, 1));
         }},
        {"antidiagonal_1q",
         [&](Complex *amps) {
             kernels::applyAntiDiagonal1q(amps, n, mid, y(0, 1),
                                          y(1, 0));
         }},
        {"phase_mask",
         [&](Complex *amps) {
             kernels::applyPhaseOnMask(amps, n, std::uint64_t{1} << mid,
                                       Complex{0.0, 1.0});
         }},
        {"controlled_1q",
         [&](Complex *amps) {
             kernels::applyControlled1q(amps, n, hi, mid, y(0, 0),
                                        y(0, 1), y(1, 0), y(1, 1));
         }},
        {"general_2q",
         [&](Complex *amps) {
             kernels::applyGeneral2q(amps, n, mid, hi, u4);
         }},
    };

    // Bandwidth ceiling: a straight copy of the same footprint (reads
    // and writes 16 B per amplitude, like the streaming kernels).
    std::vector<Complex> src(n, Complex{0.5, -0.5});
    std::vector<Complex> dst(n);
    std::memcpy(dst.data(), src.data(), n * sizeof(Complex));
    const auto copy_start = std::chrono::steady_clock::now();
    for (std::size_t r = 0; r < reps; ++r)
        std::memcpy(r % 2 ? dst.data() : src.data(),
                    r % 2 ? src.data() : dst.data(),
                    n * sizeof(Complex));
    const double copy_s = secondsSince(copy_start);
    const double ceiling =
        static_cast<double>(reps) * static_cast<double>(n) / copy_s;
    human("  copy-bandwidth ceiling: %16.3e amps/sec "
          "(%zu qubits, 1 lane)\n",
          ceiling, num_qubits);

    const char *detected =
        kernels::simd::tierName(kernels::simd::detectedTier());
    std::printf("{\"bench\":\"perf_simulator\","
                "\"section\":\"roofline_ceiling\",\"qubits\":%zu,"
                "\"detected\":\"%s\","
                "\"ceiling_amps_per_sec\":%.3e}\n",
                num_qubits, detected, ceiling);

    std::map<std::string, double> avx2_speedups;
    human("  %-16s %-8s %16s %12s %10s\n", "kernel class", "tier",
          "amps/sec", "simd_speedup", "roofline");
    for (const RooflineCase &rc : cases) {
        double scalar_aps = 0.0;
        for (Tier tier : kernels::simd::availableTiers()) {
            std::vector<Complex> amps(n, Complex{0.5, -0.5});
            TierScope scope(static_cast<int>(tier));
            rc.apply(amps.data()); // warm-up
            const auto start = std::chrono::steady_clock::now();
            for (std::size_t r = 0; r < reps; ++r)
                rc.apply(amps.data());
            const double seconds = secondsSince(start);
            const double aps = static_cast<double>(reps) *
                               static_cast<double>(n) / seconds;
            if (tier == Tier::Scalar)
                scalar_aps = aps;
            const double speedup = aps / scalar_aps;
            if (tier == Tier::Avx2)
                avx2_speedups[rc.kernel_class] = speedup;
            human("  %-16s %-8s %16.3e %11.2fx %9.0f%%\n",
                  rc.kernel_class, kernels::simd::tierName(tier), aps,
                  speedup, 100.0 * aps / ceiling);
            std::printf(
                "{\"bench\":\"perf_simulator\","
                "\"section\":\"roofline\",\"kernel_class\":\"%s\","
                "\"qubits\":%zu,\"lanes\":1,\"tier\":\"%s\","
                "\"detected\":\"%s\",\"amps_per_sec\":%.3e,"
                "\"simd_speedup\":%.3f,"
                "\"ceiling_amps_per_sec\":%.3e,"
                "\"roofline_fraction\":%.3f}\n",
                rc.kernel_class, num_qubits,
                kernels::simd::tierName(tier), detected, aps, speedup,
                ceiling, aps / ceiling);
        }
    }
    return avx2_speedups;
}

/**
 * Reduction roofline: the measurement-pipeline reductions timed at
 * every available SIMD tier against the copy-bandwidth ceiling. A
 * reduction streams 16 B per amplitude read-only (computeProbabilities
 * adds an 8 B probability write), so the copy ceiling is again the
 * memory-bound limit. Returns per-class avx2-vs-scalar speedups and
 * sets @p parity_ok to the cross-tier bit-identity verdict: the
 * sampled counts of a measureAll and a subset-marginal circuit must
 * be *identical* (not close) on every tier, serially and under the
 * engine's threaded shard path.
 */
std::map<std::string, double>
reductionRooflineSection(std::size_t num_qubits, bool *parity_ok)
{
    using kernels::simd::Tier;
    using kernels::simd::TierScope;

    const std::uint64_t n = std::uint64_t{1} << num_qubits;
    const Qubit mid = static_cast<Qubit>(num_qubits / 2);
    const std::size_t reps = 40;

    const std::vector<Complex> amps(n, Complex{0.5, -0.5});
    std::vector<double> probs(n);
    const std::vector<Qubit> marginal_qs = {0, 2, mid,
                                            static_cast<Qubit>(
                                                num_qubits - 1)};

    struct ReduceCase
    {
        const char *kernel_class;
        std::function<double()> run;
    };
    volatile double sink = 0.0; // keep the reductions observable
    const std::vector<ReduceCase> cases = {
        {"compute_probabilities",
         [&]() {
             return kernels::computeProbabilities(amps.data(), n,
                                                  probs.data());
         }},
        {"norm_sq_mask",
         [&]() {
             return kernels::normSquaredOnMask(
                 amps.data(), n, std::uint64_t{1} << mid,
                 std::uint64_t{1} << mid);
         }},
        {"sum_weights",
         [&]() { return kernels::sumWeights(probs.data(), n); }},
        {"marginal_scatter",
         [&]() {
             return kernels::marginalProbabilities(amps.data(), n,
                                                   marginal_qs)[0];
         }},
    };

    // Same ceiling methodology as the gate roofline: a straight copy
    // of the amplitude footprint.
    std::vector<Complex> src(n, Complex{0.5, -0.5});
    std::vector<Complex> dst(n);
    std::memcpy(dst.data(), src.data(), n * sizeof(Complex));
    const auto copy_start = std::chrono::steady_clock::now();
    for (std::size_t r = 0; r < reps; ++r)
        std::memcpy(r % 2 ? dst.data() : src.data(),
                    r % 2 ? src.data() : dst.data(),
                    n * sizeof(Complex));
    const double copy_s = secondsSince(copy_start);
    const double ceiling =
        static_cast<double>(reps) * static_cast<double>(n) / copy_s;

    const char *detected =
        kernels::simd::tierName(kernels::simd::detectedTier());
    std::map<std::string, double> avx2_speedups;
    human("  %-22s %-8s %16s %14s %10s\n", "reduction class", "tier",
          "amps/sec", "reduce_speedup", "roofline");
    for (const ReduceCase &rc : cases) {
        double scalar_aps = 0.0;
        double scalar_value = 0.0;
        for (Tier tier : kernels::simd::availableTiers()) {
            TierScope scope(static_cast<int>(tier));
            const double value = rc.run(); // warm-up
            const auto start = std::chrono::steady_clock::now();
            for (std::size_t r = 0; r < reps; ++r)
                sink = rc.run();
            const double seconds = secondsSince(start);
            const double aps = static_cast<double>(reps) *
                               static_cast<double>(n) / seconds;
            if (tier == Tier::Scalar) {
                scalar_aps = aps;
                scalar_value = value;
            } else if (std::memcmp(&value, &scalar_value,
                                   sizeof(double)) != 0) {
                *parity_ok = false;
                human("  FAIL: %s value differs bitwise on tier %s\n",
                      rc.kernel_class, kernels::simd::tierName(tier));
            }
            const double speedup = aps / scalar_aps;
            if (tier == Tier::Avx2)
                avx2_speedups[rc.kernel_class] = speedup;
            human("  %-22s %-8s %16.3e %13.2fx %9.0f%%\n",
                  rc.kernel_class, kernels::simd::tierName(tier), aps,
                  speedup, 100.0 * aps / ceiling);
            std::printf(
                "{\"bench\":\"perf_simulator\","
                "\"section\":\"reduction_roofline\","
                "\"kernel_class\":\"%s\",\"qubits\":%zu,\"lanes\":1,"
                "\"tier\":\"%s\",\"detected\":\"%s\","
                "\"amps_per_sec\":%.3e,\"reduce_speedup\":%.3f,"
                "\"ceiling_amps_per_sec\":%.3e,"
                "\"roofline_fraction\":%.3f}\n",
                rc.kernel_class, num_qubits,
                kernels::simd::tierName(tier), detected, aps, speedup,
                ceiling, aps / ceiling);
        }
    }
    (void)sink;

    // Cross-tier/threads sampled-counts bit-identity: the whole point
    // of the lane-deterministic reductions. Hard verdict.
    Circuit full = randomCircuit(num_qubits >= 8 ? 8 : num_qubits,
                                 60, 17);
    full.measureAll();
    Circuit subset(8, 3);
    subset.h(0).cx(0, 3).ry(0.8, 5).cx(3, 5).h(2);
    subset.measure(4, 0).measure(1, 1).measure(5, 2);
    bool identical = true;
    auto engineCounts = [](const Circuit &c, int tier,
                           std::size_t threads) {
        runtime::ExecutionEngine engine(runtime::EngineOptions{
            .threads = threads,
            .shardShots = 1024,
            .maxShards = 4,
            .simdTier = tier});
        runtime::Job job(c, 4096, "statevector", 23);
        return engine.run(job).rawCounts();
    };
    for (const Circuit &c : {full, subset}) {
        std::map<std::uint64_t, std::size_t> sim_oracle;
        {
            TierScope scope(static_cast<int>(Tier::Scalar));
            StatevectorSimulator sim(23);
            sim_oracle = sim.run(c, 4096).rawCounts();
        }
        // Same shard plan at 1 and 4 threads: the engine's counts
        // depend only on the job, never on lanes or tier.
        const auto engine_oracle =
            engineCounts(c, static_cast<int>(Tier::Scalar), 1);
        for (Tier tier : kernels::simd::availableTiers()) {
            {
                TierScope scope(static_cast<int>(tier));
                StatevectorSimulator sim(23);
                if (sim.run(c, 4096).rawCounts() != sim_oracle)
                    identical = false;
            }
            if (engineCounts(c, static_cast<int>(tier), 4) !=
                engine_oracle)
                identical = false;
        }
    }
    if (!identical) {
        *parity_ok = false;
        human("  FAIL: sampled counts differ across tiers/threads\n");
    }
    std::printf("{\"bench\":\"perf_simulator\","
                "\"section\":\"reduction_parity\",\"qubits\":%zu,"
                "\"detected\":\"%s\",\"bit_identical\":%s}\n",
                num_qubits, detected, identical ? "true" : "false");
    return avx2_speedups;
}

void
fusionSection(std::size_t num_qubits)
{
    // 1q-dense workload: long single-qubit runs between sparse CX.
    Circuit c(num_qubits, num_qubits, "fusion");
    Rng rng(29);
    for (std::size_t i = 0; i < 400; ++i) {
        const Qubit q = static_cast<Qubit>(rng.below(num_qubits));
        switch (rng.below(5)) {
          case 0:
            c.h(q);
            break;
          case 1:
            c.t(q);
            break;
          case 2:
            c.rz(rng.uniform() * M_PI, q);
            break;
          case 3:
            c.ry(rng.uniform() * M_PI, q);
            break;
          default:
            c.cx(q, static_cast<Qubit>((q + 1) % num_qubits));
        }
    }

    const kernels::ExecutablePlan fused =
        kernels::ExecutablePlan::compile(c, true);
    const kernels::ExecutablePlan unfused =
        kernels::ExecutablePlan::compile(c, false);

    auto evolve = [&](const kernels::ExecutablePlan &plan) {
        StateVector sv(num_qubits);
        const auto start = std::chrono::steady_clock::now();
        for (const kernels::PlanEntry &entry : plan.entries())
            sv.applyKernel(entry);
        return secondsSince(start);
    };
    evolve(fused); // warm-up
    const double fused_s = evolve(fused);
    const double unfused_s = evolve(unfused);

    human("  source ops: %zu, entries unfused: %zu, fused: %zu "
          "(%zu gates absorbed)\n",
          fused.stats().sourceOps, unfused.stats().entries,
          fused.stats().entries, fused.stats().fusedGates);
    human("  evolve unfused: %.4fs, fused: %.4fs (%.2fx)\n",
          unfused_s, fused_s, unfused_s / fused_s);
    std::printf("{\"bench\":\"perf_simulator\","
                "\"section\":\"fusion\",\"qubits\":%zu,"
                "\"source_ops\":%zu,\"entries_unfused\":%zu,"
                "\"entries_fused\":%zu,\"fused_gates\":%zu,"
                "\"unfused_seconds\":%.5f,\"fused_seconds\":%.5f,"
                "\"speedup\":%.3f}\n",
                num_qubits, fused.stats().sourceOps,
                unfused.stats().entries, fused.stats().entries,
                fused.stats().fusedGates, unfused_s, fused_s,
                unfused_s / fused_s);
}

void
fusionDepthSection(std::size_t num_qubits)
{
    // 2q-fusable workload: H-CX-H sandwiches and 1q runs around a
    // sparse CX backbone.
    Circuit c(num_qubits, num_qubits, "fusion_depth");
    Rng rng(41);
    for (std::size_t i = 0; i < 300; ++i) {
        const Qubit q = static_cast<Qubit>(rng.below(num_qubits));
        const Qubit r =
            static_cast<Qubit>((q + 1 + rng.below(num_qubits - 1)) %
                               num_qubits);
        switch (rng.below(4)) {
          case 0:
            c.h(q);
            break;
          case 1:
            c.t(q);
            break;
          case 2:
            c.h(r).cx(q, r).h(r); // fuses to one CZ phase mask
            break;
          default:
            c.cx(q, r);
        }
    }

    double level0_s = 0.0;
    for (const int level :
         {kernels::kFusionNone, kernels::kFusion1q,
          kernels::kFusion2q}) {
        const kernels::ExecutablePlan plan =
            kernels::ExecutablePlan::compile(c, level);
        auto evolve = [&]() {
            StateVector sv(num_qubits);
            const auto start = std::chrono::steady_clock::now();
            for (const kernels::PlanEntry &entry : plan.entries())
                sv.applyKernel(entry);
            return secondsSince(start);
        };
        evolve(); // warm-up
        const double seconds = evolve();
        if (level == kernels::kFusionNone)
            level0_s = seconds;
        human("  level %d: %4zu entries, evolve %.4fs (%.2fx), "
              "%zu 2q windows\n",
              level, plan.entries().size(), seconds,
              level0_s / seconds, plan.stats().fused2qWindows);
        std::printf("{\"bench\":\"perf_simulator\","
                    "\"section\":\"fusion_depth\",\"qubits\":%zu,"
                    "\"level\":%d,\"entries\":%zu,"
                    "\"fused_2q_windows\":%zu,\"seconds\":%.5f,"
                    "\"speedup_vs_level0\":%.3f}\n",
                    num_qubits, level, plan.entries().size(),
                    plan.stats().fused2qWindows, seconds,
                    level0_s / seconds);
    }
}

void
marginalSamplingSection(std::size_t num_qubits, std::size_t shots)
{
    // Same payload, measured two ways: the whole register (identity
    // marginal, elementwise probability kernel) vs a 4-qubit
    // ancilla-style subset (blocked parallel marginal scatter).
    const std::size_t subset_size =
        std::min<std::size_t>(4, num_qubits - 1);
    double full_sps = 0.0, subset_sps = 0.0;
    for (const bool subset : {false, true}) {
        Circuit c = randomCircuit(num_qubits, 100, 7);
        std::size_t num_measured = 0;
        if (subset) {
            // Evenly spaced distinct qubits for any --qubits value.
            for (std::size_t j = 0; j < subset_size; ++j)
                c.measure(
                    static_cast<Qubit>(j * num_qubits / subset_size),
                    static_cast<Clbit>(j));
            num_measured = subset_size;
        } else {
            c.measureAll();
            num_measured = num_qubits;
        }
        StatevectorSimulator sim(23);
        sim.run(c, 16); // warm-up
        StatevectorSimulator timed(23);
        const auto start = std::chrono::steady_clock::now();
        const Result r = timed.run(c, shots);
        const double seconds = secondsSince(start);
        const double sps = static_cast<double>(r.shots()) / seconds;
        (subset ? subset_sps : full_sps) = sps;
        human("  %-14s (%2zu qubits measured): %12.1f shots/sec\n",
              subset ? "subset" : "full register", num_measured, sps);
    }
    std::printf("{\"bench\":\"perf_simulator\","
                "\"section\":\"marginal_sampling\",\"qubits\":%zu,"
                "\"shots\":%zu,\"subset_qubits\":%zu,"
                "\"full_shots_per_sec\":%.1f,"
                "\"subset_shots_per_sec\":%.1f}\n",
                num_qubits, shots, subset_size, full_sps, subset_sps);
}

/** @return plan-vs-legacy speedup on the noisy trajectory workload. */
double
trajectorySection(std::size_t num_qubits, std::size_t shots)
{
    // The paper's hot path: an assertion-style noisy workload under
    // depolarizing gate errors and readout confusion.
    Circuit c = randomCircuit(num_qubits, 100, 11);
    c.measureAll();
    NoiseModel noise;
    noise.setGateError(OpKind::CX, 0.01);
    noise.setGateError(OpKind::H, 0.001);
    noise.setGateError(OpKind::RY, 0.001);
    for (Qubit q = 0; q < num_qubits; ++q)
        noise.setReadoutError(q, ReadoutError(0.015, 0.03));

    // The legacy interpreter is far slower (30x-class); time a thin
    // slice of the shot budget and compare shots/sec.
    const std::size_t legacy_shots =
        std::max<std::size_t>(10, shots / 200);
    TrajectorySimulator legacy(23);
    legacy.setNoiseModel(&noise);
    legacy.setUseLoweredPlan(false);
    const auto legacy_start = std::chrono::steady_clock::now();
    legacy.run(c, legacy_shots);
    const double legacy_s = secondsSince(legacy_start);
    const double legacy_sps =
        static_cast<double>(legacy_shots) / legacy_s;

    TrajectorySimulator lowered(23);
    lowered.setNoiseModel(&noise);
    const auto plan_start = std::chrono::steady_clock::now();
    lowered.run(c, shots);
    const double plan_s = secondsSince(plan_start);
    const double plan_sps = static_cast<double>(shots) / plan_s;

    const double speedup = plan_sps / legacy_sps;
    human("  legacy interpreter: %10.1f shots/sec (%zu shots)\n",
          legacy_sps, legacy_shots);
    human("  lowered plan:       %10.1f shots/sec (%zu shots)\n",
          plan_sps, shots);
    human("  plan vs legacy: %.2fx\n", speedup);
    std::printf("{\"bench\":\"perf_simulator\","
                "\"section\":\"trajectory\",\"qubits\":%zu,"
                "\"shots\":%zu,\"legacy_shots_per_sec\":%.1f,"
                "\"plan_shots_per_sec\":%.1f,\"speedup\":%.3f}\n",
                num_qubits, shots, legacy_sps, plan_sps, speedup);
    return speedup;
}

/** @return alias-table shots/sec; also reports the legacy scan. */
double
samplingSection(std::size_t num_qubits, std::size_t shots)
{
    Circuit c = randomCircuit(num_qubits, 100, 7);
    c.measureAll();

    // Sampled execution end-to-end (plan + alias table).
    StatevectorSimulator sim(23);
    const auto run_start = std::chrono::steady_clock::now();
    const Result r = sim.run(c, shots);
    const double run_s = secondsSince(run_start);
    const double shots_per_sec =
        static_cast<double>(r.shots()) / run_s;

    // Legacy per-shot path: one O(2^n) cumulative scan per shot over
    // the same final state.
    StatevectorSimulator prep(23);
    const StateVector state = prep.finalState(c);
    Rng rng(23);
    const auto scan_start = std::chrono::steady_clock::now();
    std::uint64_t sink = 0;
    for (std::size_t s = 0; s < shots; ++s)
        sink ^= state.sample(rng);
    const double scan_s = secondsSince(scan_start);
    const double scan_shots_per_sec =
        static_cast<double>(shots) / scan_s;

    human("  sampled run (alias): %12.1f shots/sec  (%zu qubits, %zu "
          "shots)\n",
          shots_per_sec, num_qubits, shots);
    human("  per-shot scan:       %12.1f shots/sec  (sink %llu)\n",
          scan_shots_per_sec,
          static_cast<unsigned long long>(sink & 1));
    human("  alias vs scan: %.2fx\n", shots_per_sec /
                                          scan_shots_per_sec);
    std::printf("{\"bench\":\"perf_simulator\","
                "\"section\":\"sampling_throughput\",\"qubits\":%zu,"
                "\"shots\":%zu,\"alias_shots_per_sec\":%.1f,"
                "\"scan_shots_per_sec\":%.1f,\"speedup\":%.3f}\n",
                num_qubits, shots, shots_per_sec, scan_shots_per_sec,
                shots_per_sec / scan_shots_per_sec);
    return shots_per_sec / scan_shots_per_sec;
}

} // namespace

int
main(int argc, char **argv)
{
    std::size_t num_qubits = 16;
    std::size_t shots = 2000;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0) {
            g_json_only = true;
        } else if (std::strcmp(argv[i], "--qubits") == 0 &&
                   i + 1 < argc) {
            num_qubits = std::strtoull(argv[++i], nullptr, 10);
        } else if (std::strcmp(argv[i], "--shots") == 0 &&
                   i + 1 < argc) {
            shots = std::strtoull(argv[++i], nullptr, 10);
        } else {
            std::fprintf(stderr,
                         "usage: perf_simulator [--json] "
                         "[--qubits N] [--shots N]\n");
            return 2;
        }
    }
    // The gate cases need three distinct operands.
    if (num_qubits < 3 || num_qubits > StateVector::kMaxQubits ||
        shots == 0) {
        std::fprintf(stderr,
                     "perf_simulator: --qubits must be in [3, %zu] "
                     "and --shots positive\n",
                     StateVector::kMaxQubits);
        return 2;
    }

    const std::size_t threads = runtime::ThreadPool::defaultThreads();
    runtime::ThreadPool pool(threads);

    if (!g_json_only)
        bench::banner("P1", "gate-kernel and sampling throughput");

    human("\n-- gate throughput --\n");
    gateThroughputSection(num_qubits, 1, &pool);
    if (threads > 1) {
        human("\n");
        gateThroughputSection(num_qubits, threads, &pool);
    }

    human("\n-- SIMD roofline (per tier vs copy bandwidth) --\n");
    const std::map<std::string, double> avx2_speedups =
        rooflineSection(num_qubits);

    human("\n-- reduction roofline (measurement pipeline) --\n");
    bool reduce_parity_ok = true;
    const std::map<std::string, double> reduce_speedups =
        reductionRooflineSection(num_qubits, &reduce_parity_ok);

    human("\n-- single-qubit fusion --\n");
    fusionSection(num_qubits);

    human("\n-- fusion depth sweep --\n");
    fusionDepthSection(num_qubits);

    human("\n-- sampling throughput --\n");
    const double speedup = samplingSection(num_qubits, shots);

    human("\n-- marginal sampling --\n");
    marginalSamplingSection(num_qubits, shots);

    human("\n-- noisy trajectory (plan vs legacy) --\n");
    const double trajectory_speedup =
        trajectorySection(num_qubits, shots);

    // The SIMD target (>= 1.5x on the dense-arithmetic classes) is
    // warn-only: CI runners vary in AVX throughput, so drift is
    // documented by check_perf_regression.py instead of gating here.
    if (!avx2_speedups.empty()) {
        const bool simd_ok =
            avx2_speedups.count("general_1q") &&
            avx2_speedups.at("general_1q") >= 1.5 &&
            avx2_speedups.count("general_2q") &&
            avx2_speedups.at("general_2q") >= 1.5;
        if (!simd_ok)
            human("  WARN: avx2 general_1q/general_2q below the 1.5x "
                  "SIMD target (warn-only)\n");
        std::printf("{\"bench\":\"perf_simulator\","
                    "\"section\":\"simd_verdict\",\"qubits\":%zu,"
                    "\"simd_ok\":%s}\n",
                    num_qubits, simd_ok ? "true" : "false");
    }

    // Reduction throughput target (>= 2x avx2 on the fused
    // probability pass): warn-only like the gate SIMD target, for the
    // same runner-variance reason. The bit-identity verdict above is
    // hard and folds into the exit code.
    if (!reduce_speedups.empty()) {
        const bool reduce_fast =
            reduce_speedups.count("compute_probabilities") &&
            reduce_speedups.at("compute_probabilities") >= 2.0;
        if (!reduce_fast)
            human("  WARN: avx2 compute_probabilities below the 2x "
                  "reduction target (warn-only)\n");
        std::printf("{\"bench\":\"perf_simulator\","
                    "\"section\":\"reduce_verdict\",\"qubits\":%zu,"
                    "\"reduce_fast\":%s,\"bit_identical\":%s}\n",
                    num_qubits, reduce_fast ? "true" : "false",
                    reduce_parity_ok ? "true" : "false");
    }

    const bool ok = speedup >= 2.0 && trajectory_speedup >= 2.0 &&
                    reduce_parity_ok;
    if (!g_json_only)
        bench::verdict(ok,
                       "alias-table sampling >= 2x the per-shot scan, "
                       "the lowered trajectory plan >= 2x the legacy "
                       "interpreter, and sampled counts bit-identical "
                       "across SIMD tiers and thread counts");
    return ok ? 0 : 1;
}
