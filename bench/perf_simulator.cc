/**
 * @file
 * P1: the kernel-level claims e2ebench cannot measure. e2ebench runs
 * whole jobs at the detected SIMD tier and the default fusion level,
 * so this bench keeps only the per-class, per-tier and non-default
 * views, each emitted as self-describing JSON records
 * (bench::Record):
 *  - gate_throughput: amplitudes/sec per kernel class (diagonal,
 *    permutation, controlled, general 1q/2q, generic k-qubit) at one
 *    lane and at all pool lanes;
 *  - roofline_ceiling / roofline: amps/sec of every vectorizable
 *    kernel class at every available SIMD tier, with simd_speedup =
 *    tier/scalar per class, against one measured copy-bandwidth
 *    ceiling on the same footprint;
 *  - reduction_roofline / reduction_parity: the measurement-pipeline
 *    kernels (the computeProbabilities fill and normSquaredOnMask
 *    per tier with reduce_speedup = tier/scalar; the marginal
 *    scatter, which has no per-tier code, at the scalar tier only),
 *    plus a cross-tier bit-identity check on sampled counts that
 *    gates the exit code (determinism is a hard verdict; throughput
 *    targets stay warn-only);
 *  - fusion_depth: entries and evolve speed at fusion levels 0/1/2,
 *    quantifying the single-qubit run and two-qubit window passes;
 *  - trajectory: noisy (depolarizing + readout) shots/sec of the
 *    trajectory backend's lowered plan (no e2ebench workload runs
 *    that backend);
 *  - simd_verdict / reduce_verdict: the warn-only SIMD throughput
 *    targets, derived from the roofline rows.
 *
 * Usage: perf_simulator [--json] [--qubits N] [--shots N]
 *   --json emits only the JSON lines (CI artifact mode).
 */

#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "math/gates.hh"
#include "qra.hh"
#include "sim/kernels/kernels.hh"
#include "sim/kernels/parallel.hh"
#include "sim/kernels/plan.hh"
#include "sim/kernels/simd/dispatch.hh"

using namespace qra;
using kernels::simd::Tier;
using kernels::simd::TierScope;

namespace {

bool g_json_only = false;

/** Timed repetitions per throughput measurement. */
constexpr std::size_t kReps = 40;

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
 * Amplitudes/sec of kReps calls to @p apply, each touching @p n
 * amplitudes, after one untimed warm-up call.
 */
template <typename Apply>
double
ampsPerSec(std::uint64_t n, Apply &&apply)
{
    apply();
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t r = 0; r < kReps; ++r)
        apply();
    return static_cast<double>(kReps) * static_cast<double>(n) /
           bench::secondsSince(start);
}

void
gateThroughputSection(std::size_t num_qubits, std::size_t lanes,
                      runtime::ThreadPool *pool)
{
    struct GateCase
    {
        const char *name;
        const char *kernel_class;
        std::function<void(StateVector &)> apply;
    };
    const Qubit a = 0;
    const Qubit b = static_cast<Qubit>(num_qubits - 1);
    const Qubit mid = static_cast<Qubit>(num_qubits / 2);
    auto lowered = [](Operation op) {
        const kernels::PlanEntry entry = kernels::lowerOperation(op);
        return [entry](StateVector &sv) { sv.applyKernel(entry); };
    };
    // Generic k-qubit path: a dense 8x8 unitary (kron of 1q gates).
    const Matrix u8 = gates::h().kron(gates::t()).kron(gates::sx());
    const std::vector<Qubit> u8_qubits = {a, mid, b};
    const std::vector<GateCase> cases = {
        {"h", "general_1q", lowered({.kind = OpKind::H, .qubits = {a}})},
        {"rz", "diagonal_1q",
         lowered({.kind = OpKind::RZ, .qubits = {a}, .params = {0.37}})},
        {"x", "permutation", lowered({.kind = OpKind::X, .qubits = {a}})},
        {"y", "antidiagonal_1q",
         lowered({.kind = OpKind::Y, .qubits = {a}})},
        {"cx", "controlled_x",
         lowered({.kind = OpKind::CX, .qubits = {a, b}})},
        {"cz", "phase_mask",
         lowered({.kind = OpKind::CZ, .qubits = {a, b}})},
        {"cy", "controlled_1q",
         lowered({.kind = OpKind::CY, .qubits = {a, b}})},
        {"swap", "permutation_2q",
         lowered({.kind = OpKind::Swap, .qubits = {a, b}})},
        {"ccx", "toffoli",
         lowered({.kind = OpKind::CCX, .qubits = {a, mid, b}})},
        {"u8", "generic_k",
         [&](StateVector &sv) { sv.applyMatrix(u8, u8_qubits); }},
    };

    human("  %-8s %-16s %16s   (%zu qubits, %zu lane%s)\n", "gate",
          "kernel class", "amps/sec", num_qubits, lanes,
          lanes == 1 ? "" : "s");
    for (const GateCase &gc : cases) {
        StateVector sv(num_qubits);
        kernels::ParallelScope scope(pool, lanes);
        const double amps_per_sec = ampsPerSec(
            std::uint64_t{1} << num_qubits, [&] { gc.apply(sv); });
        human("  %-8s %-16s %16.3e\n", gc.name, gc.kernel_class,
              amps_per_sec);
        bench::Record("perf_simulator", "gate_throughput")
            .id("gate", gc.name)
            .id("kernel_class", gc.kernel_class)
            .id("qubits", num_qubits)
            .id("lanes", lanes)
            .higher("amps_per_sec", amps_per_sec)
            .emit();
    }
}

/**
 * Bandwidth ceiling: a straight copy of the 2^n-amplitude footprint.
 * It reads and writes 16 B per amplitude, the same traffic as a
 * streaming pair kernel (a reduction only reads), so amps/sec over
 * this ceiling is the roofline fraction of both tables.
 */
double
copyCeiling(std::size_t num_qubits, const char *detected)
{
    const std::uint64_t n = std::uint64_t{1} << num_qubits;
    std::vector<Complex> src(n, Complex{0.5, -0.5});
    std::vector<Complex> dst(n);
    bool flip = false;
    const double ceiling = ampsPerSec(n, [&] {
        flip = !flip;
        std::memcpy(flip ? dst.data() : src.data(),
                    flip ? src.data() : dst.data(),
                    n * sizeof(Complex));
    });
    human("  copy-bandwidth ceiling: %16.3e amps/sec "
          "(%zu qubits, 1 lane)\n",
          ceiling, num_qubits);
    bench::Record("perf_simulator", "roofline_ceiling")
        .id("qubits", num_qubits)
        .id("detected", detected)
        .higher("ceiling_amps_per_sec", ceiling)
        .emit();
    return ceiling;
}

/**
 * Roofline: each vectorizable kernel class timed at every available
 * SIMD dispatch tier (forced via TierScope) on the same state.
 *
 * @return per-class avx2-vs-scalar speedups (empty map when the CPU
 *         or build has no AVX2 tier), for the verdict line.
 */
std::map<std::string, double>
rooflineSection(std::size_t num_qubits, double ceiling,
                const char *detected)
{
    const std::uint64_t n = std::uint64_t{1} << num_qubits;
    const Qubit mid = static_cast<Qubit>(num_qubits / 2);
    const Qubit hi = static_cast<Qubit>(num_qubits - 1);

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

    std::map<std::string, double> avx2_speedups;
    human("  %-16s %-8s %16s %12s %10s\n", "kernel class", "tier",
          "amps/sec", "simd_speedup", "roofline");
    for (const RooflineCase &rc : cases) {
        double scalar_aps = 0.0;
        for (Tier tier : kernels::simd::availableTiers()) {
            std::vector<Complex> amps(n, Complex{0.5, -0.5});
            TierScope scope(static_cast<int>(tier));
            const double aps =
                ampsPerSec(n, [&] { rc.apply(amps.data()); });
            if (tier == Tier::Scalar)
                scalar_aps = aps;
            const double speedup = aps / scalar_aps;
            if (tier == Tier::Avx2)
                avx2_speedups[rc.kernel_class] = speedup;
            human("  %-16s %-8s %16.3e %11.2fx %9.0f%%\n",
                  rc.kernel_class, kernels::simd::tierName(tier), aps,
                  speedup, 100.0 * aps / ceiling);
            bench::Record("perf_simulator", "roofline")
                .id("kernel_class", rc.kernel_class)
                .id("qubits", num_qubits)
                .id("lanes", 1)
                .id("tier", kernels::simd::tierName(tier))
                .id("detected", detected)
                .higher("amps_per_sec", aps)
                .higher("simd_speedup", speedup)
                .emit();
        }
    }
    return avx2_speedups;
}

/**
 * Reduction roofline: the measurement-pipeline reductions timed at
 * every available SIMD tier. Returns per-class avx2-vs-scalar
 * speedups and sets @p parity_ok to the cross-tier bit-identity
 * verdict: every reduction's value, and the sampled counts of a
 * measureAll and a subset-marginal circuit, must be *identical* (not
 * close) on every tier, serially and under the engine's threaded
 * shard path.
 */
std::map<std::string, double>
reductionRooflineSection(std::size_t num_qubits, double ceiling,
                         const char *detected, bool *parity_ok)
{
    const std::uint64_t n = std::uint64_t{1} << num_qubits;
    const Qubit mid = static_cast<Qubit>(num_qubits / 2);

    const std::vector<Complex> amps(n, Complex{0.5, -0.5});
    std::vector<double> probs(n);
    const std::vector<Qubit> marginal_qs = {0, 2, mid,
                                            static_cast<Qubit>(
                                                num_qubits - 1)};

    struct ReduceCase
    {
        const char *kernel_class;
        std::function<double()> run;
        /** False when ReduceTable has no per-tier entry for the
            class: every tier would time the scalar code, so only the
            scalar row is measured. */
        bool tiered = true;
    };
    volatile double sink = 0.0; // keep the reductions observable
    const std::vector<ReduceCase> cases = {
        {"compute_probabilities",
         [&]() {
             kernels::computeProbabilities(amps.data(), n,
                                           probs.data());
             return probs[n - 1];
         }},
        {"norm_sq_mask",
         [&]() {
             return kernels::normSquaredOnMask(
                 amps.data(), n, std::uint64_t{1} << mid,
                 std::uint64_t{1} << mid);
         }},
        {"marginal_scatter",
         [&]() {
             return kernels::marginalProbabilities(amps.data(), n,
                                                   marginal_qs)[0];
         },
         /*tiered=*/false},
    };

    std::map<std::string, double> avx2_speedups;
    human("  %-22s %-8s %16s %14s %10s\n", "reduction class", "tier",
          "amps/sec", "reduce_speedup", "roofline");
    for (const ReduceCase &rc : cases) {
        double scalar_aps = 0.0;
        double scalar_value = 0.0;
        for (Tier tier : kernels::simd::availableTiers()) {
            if (!rc.tiered && tier != Tier::Scalar)
                continue;
            TierScope scope(static_cast<int>(tier));
            const double value = rc.run();
            const double aps = ampsPerSec(n, [&] { sink = rc.run(); });
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
            bench::Record("perf_simulator", "reduction_roofline")
                .id("kernel_class", rc.kernel_class)
                .id("qubits", num_qubits)
                .id("lanes", 1)
                .id("tier", kernels::simd::tierName(tier))
                .id("detected", detected)
                .higher("amps_per_sec", aps)
                .higher("reduce_speedup", speedup)
                .emit();
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
    bench::Record("perf_simulator", "reduction_parity")
        .id("qubits", num_qubits)
        .id("detected", detected)
        .higher("bit_identical", identical ? 1 : 0)
        .min(1)
        .emit();
    return avx2_speedups;
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
            return bench::secondsSince(start);
        };
        evolve(); // warm-up
        const double seconds = evolve();
        if (level == kernels::kFusionNone)
            level0_s = seconds;
        human("  level %d: %4zu entries, evolve %.4fs (%.2fx), "
              "%zu 2q windows\n",
              level, plan.entries().size(), seconds,
              level0_s / seconds, plan.stats().fused2qWindows);
        bench::Record("perf_simulator", "fusion_depth")
            .id("qubits", num_qubits)
            .id("level", level)
            .lower("entries", plan.entries().size())
            .higher("fused_2q_windows", plan.stats().fused2qWindows)
            .higher("speedup_vs_level0", level0_s / seconds)
            .emit();
    }
}

/** Noisy trajectory shots/sec through the lowered plan. */
void
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

    TrajectorySimulator sim(23);
    sim.setNoiseModel(&noise);
    const auto start = std::chrono::steady_clock::now();
    sim.run(c, shots);
    const double plan_sps =
        static_cast<double>(shots) / bench::secondsSince(start);

    human("  lowered plan: %10.1f shots/sec (%zu shots)\n", plan_sps,
          shots);
    bench::Record("perf_simulator", "trajectory")
        .id("qubits", num_qubits)
        .id("shots", shots)
        .higher("plan_shots_per_sec", plan_sps)
        .emit();
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
    const char *detected =
        kernels::simd::tierName(kernels::simd::detectedTier());

    if (!g_json_only)
        bench::banner("P1", "gate-kernel and reduction throughput");

    human("\n-- gate throughput --\n");
    gateThroughputSection(num_qubits, 1, &pool);
    if (threads > 1) {
        human("\n");
        gateThroughputSection(num_qubits, threads, &pool);
    }

    human("\n-- SIMD roofline (per tier vs copy bandwidth) --\n");
    const double ceiling = copyCeiling(num_qubits, detected);
    const std::map<std::string, double> avx2_speedups =
        rooflineSection(num_qubits, ceiling, detected);

    human("\n-- reduction roofline (measurement pipeline) --\n");
    bool reduce_parity_ok = true;
    const std::map<std::string, double> reduce_speedups =
        reductionRooflineSection(num_qubits, ceiling, detected,
                                 &reduce_parity_ok);

    human("\n-- fusion depth sweep --\n");
    fusionDepthSection(num_qubits);

    human("\n-- noisy trajectory --\n");
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
        bench::Record("perf_simulator", "simd_verdict")
            .id("qubits", num_qubits)
            .higher("simd_ok", simd_ok ? 1 : 0)
            .min(1)
            .emit();
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
        bench::Record("perf_simulator", "reduce_verdict")
            .id("qubits", num_qubits)
            .higher("reduce_fast", reduce_fast ? 1 : 0)
            .min(1)
            .emit();
    }

    if (!g_json_only)
        bench::verdict(reduce_parity_ok,
                       "sampled counts bit-identical across SIMD tiers "
                       "and thread counts");
    return reduce_parity_ok ? 0 : 1;
}
