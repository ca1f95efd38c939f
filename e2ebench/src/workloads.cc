#include "workloads.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <random>
#include <sstream>

namespace e2e {

using namespace qra;

namespace {

std::string
header(std::size_t qubits)
{
    return "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[" +
           std::to_string(qubits) + "];\ncreg c[" +
           std::to_string(qubits) + "];\n";
}

std::string
measureAll(std::size_t qubits)
{
    std::string text;
    for (std::size_t q = 0; q < qubits; ++q)
        text += "measure q[" + std::to_string(q) + "] -> c[" +
                std::to_string(q) + "];\n";
    return text;
}

std::string
q(std::size_t index)
{
    return "q[" + std::to_string(index) + "]";
}

// The paper's circuits as a user would write them: hand checks are
// qra:assert-* directives at the point where the property holds.

/** Table 1: an idle qubit asserted classical |0>. */
std::string
table1(std::size_t checks)
{
    std::string text = header(1);
    for (std::size_t i = 0; i < checks; ++i)
        text += "// qra:assert-classical q[0] == 0\n";
    return text + measureAll(1);
}

/** Table 2: a Bell pair asserted entangled. */
std::string
table2(std::size_t checks)
{
    std::string text = header(2) + "h q[0];\ncx q[0],q[1];\n";
    for (std::size_t i = 0; i < checks; ++i)
        text += "// qra:assert-entangled q[0], q[1]\n";
    return text + measureAll(2);
}

/** Section 4.3: |+> asserted in uniform superposition. */
std::string
sec43(std::size_t checks)
{
    std::string text = header(1) + "h q[0];\n";
    for (std::size_t i = 0; i < checks; ++i)
        text += "// qra:assert-superposition q[0]\n";
    return text + measureAll(1);
}

/** Figure 4: GHZ(3); @p sequential also checks the Bell prefix. */
std::string
ghz3(bool sequential)
{
    std::string text = header(3) + "h q[0];\ncx q[0],q[1];\n";
    if (sequential)
        text += "// qra:assert-entangled q[0], q[1]\n";
    text += "cx q[1],q[2];\n// qra:assert-entangled q[0], q[1], q[2]\n";
    return text + measureAll(3);
}

/** GHZ(4) checked after its GHZ(3) prefix and when complete. */
std::string
ghz4Sequential()
{
    return header(4) +
           "h q[0];\ncx q[0],q[1];\ncx q[1],q[2];\n"
           "// qra:assert-entangled q[0], q[1], q[2]\n"
           "cx q[2],q[3];\n"
           "// qra:assert-entangled q[0], q[1], q[2], q[3]\n" +
           measureAll(4);
}

/** GHZ(4) without directives (checks come from --auto-assert). */
std::string
ghz4Plain()
{
    return header(4) + "h q[0];\ncx q[0],q[1];\ncx q[1],q[2];\n"
                       "cx q[2],q[3];\n" +
           measureAll(4);
}

/** W(3) without directives, from the circuit library. */
std::string
w3Plain()
{
    Circuit w = library::wState(3);
    w.addClbits(3);
    w.measureAll();
    return toQasm(w);
}

bool
notAllEqual(std::uint64_t bits, std::size_t width)
{
    const std::uint64_t ones = (std::uint64_t{1} << width) - 1;
    return bits != 0 && bits != ones;
}

std::vector<JobKind>
paperKinds()
{
    return {
        {"table1", table1(1), false,
         [](std::uint64_t b) { return b != 0; }},
        {"table2_bell", table2(1), false,
         [](std::uint64_t b) { return notAllEqual(b, 2); }},
        {"sec43_plus", sec43(1), false, nullptr},
        {"fig4_ghz3", ghz3(false), false,
         [](std::uint64_t b) { return notAllEqual(b, 3); }},
        {"ghz4_auto", ghz4Plain(), true,
         [](std::uint64_t b) { return notAllEqual(b, 4); }},
        {"w3_auto", w3Plain(), true,
         [](std::uint64_t b) { return std::popcount(b) != 1; }},
    };
}

std::vector<JobKind>
reuseKinds()
{
    return {
        {"table1_x2", table1(2), false,
         [](std::uint64_t b) { return b != 0; }},
        {"table2_bell_x2", table2(2), false,
         [](std::uint64_t b) { return notAllEqual(b, 2); }},
        {"sec43_plus_x2", sec43(2), false, nullptr},
        {"fig4_ghz3_seq", ghz3(true), false,
         [](std::uint64_t b) { return notAllEqual(b, 3); }},
        {"ghz4_seq", ghz4Sequential(), false,
         [](std::uint64_t b) { return notAllEqual(b, 4); }},
    };
}

/**
 * Repeating orders of the paper kinds. The kinds' costs form separate
 * bands; with equal weights the median of the mix would sit on the gap
 * between two bands and jump between them with noise. Weighted like
 * this it lies mid-band in Table 2's Bell circuit (kind 1), with as
 * many jobs below that band as above it: in paper_ibmqx4 Table 1 and
 * section 4.3 below, GHZ(3), GHZ(4) and W(3) above; in
 * paper_reuse_traj Table 1 and section 4.3 below, GHZ(3) and GHZ(4)
 * above.
 */
const std::vector<std::size_t> kPaperCycle = {0, 1, 2, 3, 0, 1, 4, 5};
const std::vector<std::size_t> kReuseCycle = {0, 1, 2, 1, 3, 4};

/** Fixed-text kinds in a repeating order; the seed only moves sampling. */
std::vector<JobInput>
cycleKinds(const std::vector<JobKind> &kinds,
           const std::vector<std::size_t> &cycle, std::uint64_t seed,
           std::size_t count)
{
    std::vector<JobInput> jobs(count);
    for (std::size_t i = 0; i < count; ++i) {
        jobs[i].kind = cycle[i % cycle.size()];
        jobs[i].qasm = kinds[jobs[i].kind].qasm;
        jobs[i].seed = splitSeed(seed, i);
    }
    return jobs;
}

/** A uniform pick in [0, n) that does not depend on the stdlib. */
std::size_t
pick(std::mt19937_64 &rng, std::size_t n)
{
    return static_cast<std::size_t>(rng() % n);
}

/**
 * A never-seen Clifford circuit over @p n payload qubits (12..18)
 * with ~300 gates, in blocks whose state the analyzer can name at
 * the final measurements, so --auto-assert always finds checks that
 * hold: two GHZ blocks scrambled by diagonal gates and SWAPs (which
 * keep them GHZ-class), two |+>/|-> qubits, and a basis-state block
 * scrambled by X/CX/SWAP. Blocks never interact.
 */
std::string
freshClifford(std::size_t n, std::mt19937_64 &rng)
{
    struct Block
    {
        std::size_t first;
        std::size_t size;
        enum { Ghz, Plus, Basis } type;
        std::size_t gates;
    };
    const std::vector<Block> blocks = {
        {0, 4, Block::Ghz, 80},   {4, 3, Block::Ghz, 60},
        {7, 1, Block::Plus, 10},  {8, 1, Block::Plus, 10},
        {9, n - 9, Block::Basis, 140},
    };

    std::ostringstream os;
    os << header(n);
    for (const Block &b : blocks) {
        if (b.type == Block::Ghz) {
            os << "h " << q(b.first) << ";\n";
            for (std::size_t k = 1; k < b.size; ++k)
                os << "cx " << q(b.first + k - 1) << ","
                   << q(b.first + k) << ";\n";
        } else if (b.type == Block::Plus) {
            os << "h " << q(b.first) << ";\n";
        }
    }

    std::vector<std::size_t> left;
    std::size_t total = 0;
    for (const Block &b : blocks) {
        left.push_back(b.gates);
        total += b.gates;
    }
    for (; total > 0; --total) {
        // Interleave blocks in proportion to their remaining budget.
        std::size_t r = pick(rng, total);
        std::size_t bi = 0;
        while (r >= left[bi])
            r -= left[bi++];
        --left[bi];
        const Block &b = blocks[bi];
        const std::size_t a = b.first + pick(rng, b.size);
        std::size_t c = b.first + pick(rng, b.size);
        if (b.size > 1 && c == a)
            c = b.first + (a - b.first + 1) % b.size;
        const char *one_q[] = {"z", "s", "sdg", "x"};
        switch (b.type) {
        case Block::Ghz:
            // Diagonal gates and SWAPs keep a|0..0> + b|1..1>.
            switch (pick(rng, 5)) {
            case 0:
                os << "cz " << q(a) << "," << q(c) << ";\n";
                break;
            case 1:
                os << "swap " << q(a) << "," << q(c) << ";\n";
                break;
            default:
                os << one_q[pick(rng, 3)] << " " << q(a) << ";\n";
            }
            break;
        case Block::Plus:
            // X and Z keep the qubit in |+> or |->.
            os << (pick(rng, 2) ? "x " : "z ") << q(a) << ";\n";
            break;
        case Block::Basis:
            // Permutations (and phases) keep a computational state.
            switch (pick(rng, 4)) {
            case 0:
            case 1:
                os << "cx " << q(a) << "," << q(c) << ";\n";
                break;
            case 2:
                os << "swap " << q(a) << "," << q(c) << ";\n";
                break;
            default:
                os << one_q[pick(rng, 4)] << " " << q(a) << ";\n";
            }
            break;
        }
    }
    os << measureAll(n);
    return os.str();
}

constexpr int kAnsatzLayers = 16;

/**
 * One sv_sweep ansatz over @p n payload qubits: a GHZ(3) block, a
 * |+> qubit and a |1> qubit, each asserted right after it is made,
 * then kAnsatzLayers layers of fresh ry/rz angles on every qubit with
 * a CX ladder.
 */
std::string
ansatz(std::size_t n, std::mt19937_64 &rng)
{
    std::ostringstream os;
    os << header(n);
    os << "h q[0];\ncx q[0],q[1];\ncx q[1],q[2];\n"
          "// qra:assert-entangled q[0], q[1], q[2]\n"
          "h q[3];\n// qra:assert-superposition q[3]\n"
          "x q[4];\n// qra:assert-classical q[4] == 1\n";
    // Angles come from rng() bits directly so the text does not
    // depend on the standard library's distributions.
    auto angle = [&rng]() {
        return static_cast<double>(rng() >> 11) * 0x1.0p-53 * 2 * M_PI;
    };
    char buf[64];
    for (int layer = 0; layer < kAnsatzLayers; ++layer) {
        for (std::size_t k = 0; k < n; ++k) {
            const double theta = angle();
            const double phi = angle();
            std::snprintf(buf, sizeof buf, "ry(%.17g) ", theta);
            os << buf << q(k) << ";\n";
            std::snprintf(buf, sizeof buf, "rz(%.17g) ", phi);
            os << buf << q(k) << ";\n";
        }
        for (std::size_t k = 0; k + 1 < n; ++k)
            os << "cx " << q(k) << "," << q(k + 1) << ";\n";
    }
    os << measureAll(n);
    return os.str();
}

constexpr std::uint64_t kWarmupStream = 0x9e3779b97f4a7c15ULL;

} // namespace

CouplingMap
Devices::makeGrid(std::size_t rows, std::size_t cols)
{
    CouplingMap map(rows * cols);
    for (std::size_t r = 0; r < rows; ++r)
        for (std::size_t c = 0; c < cols; ++c) {
            const Qubit here = static_cast<Qubit>(r * cols + c);
            if (c + 1 < cols) {
                map.addEdge(here, here + 1);
                map.addEdge(here + 1, here);
            }
            if (r + 1 < rows) {
                map.addEdge(here, static_cast<Qubit>(here + cols));
                map.addEdge(static_cast<Qubit>(here + cols), here);
            }
        }
    return map;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "paper_ibmqx4", "paper_reuse_traj", "compile_fresh", "sv_sweep"};
    return names;
}

double
nominalJobsPerSecond(const std::string &name)
{
    if (name == "paper_ibmqx4")
        return 180.0;
    if (name == "paper_reuse_traj")
        return 45.0;
    if (name == "compile_fresh")
        return 300.0;
    if (name == "sv_sweep")
        return 45.0;
    throw ValueError("unknown workload '" + name + "'");
}

Workload
makeWorkload(const std::string &name, std::uint64_t seed,
             std::size_t job_count, const Devices &devices)
{
    Workload w;
    w.name = name;
    const std::uint64_t warm_seed = splitSeed(seed, kWarmupStream);
    if (name == "paper_ibmqx4" || name == "paper_reuse_traj") {
        const bool reuse = name == "paper_reuse_traj";
        w.kinds = reuse ? reuseKinds() : paperKinds();
        w.shots = reuse ? 256 : 8192;
        w.noise = &devices.ibmqx4.noiseModel();
        w.coupling = &devices.ibmqx4.couplingMap();
        w.instrument.reuseAncillas = reuse;
        w.check =
            reuse ? CheckKind::PaperShape : CheckKind::ExactDistribution;
        const std::vector<std::size_t> &cycle =
            reuse ? kReuseCycle : kPaperCycle;
        w.jobs = cycleKinds(w.kinds, cycle, seed, job_count);
        w.warmup = cycleKinds(w.kinds, cycle, warm_seed, cycle.size());
        return w;
    }
    if (name == "compile_fresh") {
        w.kinds = {{"clifford_blocks", "", true, nullptr}};
        w.shots = 16;
        w.coupling = &devices.grid;
        w.autoAssert.maxChecks = 4;
        w.check = CheckKind::NoAssertionFires;
        auto generate = [](std::uint64_t base, std::size_t count) {
            std::vector<JobInput> jobs(count);
            for (std::size_t i = 0; i < count; ++i) {
                std::mt19937_64 rng(splitSeed(base, 2 * i));
                jobs[i].qasm = freshClifford(12 + i % 7, rng);
                jobs[i].seed = splitSeed(base, 2 * i + 1);
            }
            return jobs;
        };
        w.jobs = generate(seed, job_count);
        w.warmup = generate(warm_seed, 3);
        return w;
    }
    if (name == "sv_sweep") {
        w.kinds = {{"ansatz", "", false, nullptr}};
        w.shots = 1024;
        w.check = CheckKind::NoAssertionFires;
        // Every fourth job resubmits the previous circuit with a new
        // sampling seed (a PlanCache read); the rest are fresh angles
        // (a PlanCache write). One width for all, 13 payload qubits
        // (16 with the three check ancillas, a 1 MiB state that fits a
        // core's L2), so fresh jobs form one latency band.
        auto generate = [](std::uint64_t base, std::size_t count) {
            std::vector<JobInput> jobs(count);
            for (std::size_t i = 0; i < count; ++i) {
                if (i % 4 == 3) {
                    jobs[i].qasm = jobs[i - 1].qasm;
                } else {
                    std::mt19937_64 rng(splitSeed(base, 2 * i));
                    jobs[i].qasm = ansatz(13, rng);
                }
                jobs[i].seed = splitSeed(base, 2 * i + 1);
            }
            return jobs;
        };
        w.jobs = generate(seed, job_count);
        w.warmup = generate(warm_seed, 3);
        return w;
    }
    throw ValueError("unknown workload '" + name + "'");
}

runtime::JobSpec
makeSpec(const Workload &workload, const JobInput &job,
         const AnnotatedProgram &program)
{
    runtime::JobSpec spec;
    spec.circuit = program.payload;
    spec.assertions = program.specs;
    spec.shots = workload.shots;
    spec.seed = job.seed;
    spec.noise = workload.noise;
    spec.coupling = workload.coupling;
    spec.instrumentOptions = workload.instrument;
    if (workload.kinds[job.kind].autoAssert) {
        spec.injection = compile::InjectionStrategy::AutoGenerate;
        spec.autoAssert = workload.autoAssert;
    }
    return spec;
}

namespace {

/**
 * Chi-square goodness of fit of @p observed against @p reference,
 * with every outcome expected fewer than 20 times pooled into one bin
 * (merged into the smallest kept bin when the pool itself is small),
 * so the chi-square tail approximation holds far into the tail.
 */
double
pooledChiSquarePValue(const stats::Counts &observed,
                      const stats::Distribution &reference)
{
    constexpr double kMinExpected = 20.0;
    const double n = static_cast<double>(stats::totalShots(observed));
    constexpr std::uint64_t kRest = ~std::uint64_t{0};
    std::map<std::uint64_t, std::uint64_t> bin_of;
    stats::Distribution expected;
    for (const auto &[key, p] : reference) {
        const std::uint64_t bin = p * n >= kMinExpected ? key : kRest;
        bin_of[key] = bin;
        expected[bin] += p;
    }
    if (expected.count(kRest) && expected[kRest] * n < kMinExpected &&
        expected.size() > 1) {
        std::uint64_t smallest = kRest;
        for (const auto &[bin, p] : expected)
            if (bin != kRest &&
                (smallest == kRest || p < expected[smallest]))
                smallest = bin;
        for (auto &[key, bin] : bin_of)
            if (bin == kRest)
                bin = smallest;
        expected[smallest] += expected[kRest];
        expected.erase(kRest);
    }
    stats::Counts pooled;
    for (const auto &[key, count] : observed) {
        const auto it = bin_of.find(key);
        // An outcome the reference does not have is impossible.
        pooled[it == bin_of.end() ? kRest - 1 : it->second] += count;
    }
    return stats::chiSquareTest(pooled, expected).pValue;
}

} // namespace

OutputChecker::OutputChecker(const Workload &workload,
                             runtime::BackendRegistry &registry)
    : workload_(workload), pools_(workload.kinds.size())
{
    if (workload.check != CheckKind::ExactDistribution)
        return;
    // The reference is computed off the runtime path: an independent
    // compile of each circuit and one direct density-backend run.
    const runtime::BackendPtr density = registry.create("density");
    for (std::size_t k = 0; k < workload.kinds.size(); ++k) {
        const JobInput probe{workload.kinds[k].qasm, k, 0};
        const runtime::JobSpec spec = makeSpec(
            workload, probe, parseAnnotatedQasm(probe.qasm));
        const compile::CompileContext ctx = compile::prepare(
            spec.circuit, runtime::prepareSpec(spec));
        const Result exact = density->run(ctx.circuit, 1, 1, spec.noise);
        reference_.push_back(*exact.exactDistribution());
    }
}

std::string
OutputChecker::check(const JobInput &job, const Result &result,
                     const std::shared_ptr<const InstrumentedCircuit> &inst,
                     const AssertionReport &report)
{
    if (result.cancelled())
        return "cancelled";
    if (result.shots() != workload_.shots)
        return "shots " + std::to_string(result.shots()) + " != " +
               std::to_string(workload_.shots);
    if (!inst)
        return "no instrumented circuit";
    const JobKind &kind = workload_.kinds[job.kind];

    switch (workload_.check) {
    case CheckKind::ExactDistribution: {
        const stats::Distribution &ref = reference_[job.kind];
        const auto &exact = result.exactDistribution();
        if (!exact)
            return "no exact distribution (backend was not density)";
        for (const auto &[key, p] : ref) {
            const auto it = exact->find(key);
            const double got = it == exact->end() ? 0.0 : it->second;
            if (std::abs(got - p) > 1e-9)
                return "exact distribution differs from the reference";
        }
        // alpha = 1e-9 per job: far below the 1e-6 false-alarm budget
        // even if the pooled chi-square tail is off by 100x.
        const double p_value =
            pooledChiSquarePValue(result.rawCounts(), ref);
        if (p_value < 1e-9)
            return "counts do not fit the exact distribution (p=" +
                   std::to_string(p_value) + ")";
        return "";
    }
    case CheckKind::PaperShape: {
        // Per job only gross failures (a 256-shot job's filtered and
        // raw rates are too close to compare); the paper's shape is
        // checked on the pooled counts in finish().
        Pool &pool = pools_[job.kind];
        if (pool.jobs == 0) {
            pool.merged = Result(result.numClbits());
            pool.instrumented = inst;
        }
        pool.merged.merge(result);
        ++pool.jobs;
        if (report.anyErrorRate > 0.9)
            return "assertion error rate " +
                   std::to_string(report.anyErrorRate) + " > 0.9";
        if (kind.payloadIsError) {
            const stats::ErrorRateReport rates =
                errorRates(*inst, result, kind.payloadIsError);
            if (rates.rawErrorRate > 0.9)
                return "raw error rate " +
                       std::to_string(rates.rawErrorRate) + " > 0.9";
        }
        return "";
    }
    case CheckKind::NoAssertionFires: {
        if (inst->checks().empty())
            return "no assertion checks were woven in";
        if (report.anyErrorRate != 0.0)
            return "an assertion fired on a noiseless run (rate " +
                   std::to_string(report.anyErrorRate) + ")";
        return "";
    }
    }
    return "unknown check kind";
}

std::map<std::size_t, std::string>
OutputChecker::finish(std::vector<std::string> &notes) const
{
    std::map<std::size_t, std::string> failed;
    if (workload_.check != CheckKind::PaperShape)
        return failed;
    for (std::size_t k = 0; k < pools_.size(); ++k) {
        const Pool &pool = pools_[k];
        if (pool.jobs == 0)
            continue;
        const JobKind &kind = workload_.kinds[k];
        std::string note;
        bool ok = true;
        if (kind.payloadIsError) {
            const stats::ErrorRateReport rates = errorRates(
                *pool.instrumented, pool.merged, kind.payloadIsError);
            // Table benches' shape: filtering helps, raw is plausible.
            ok = rates.hasFiltered &&
                 rates.filteredErrorRate < rates.rawErrorRate &&
                 rates.rawErrorRate >= 0.005 && rates.rawErrorRate <= 0.75;
            note = "raw error " + std::to_string(rates.rawErrorRate) +
                   ", filtered " + std::to_string(rates.filteredErrorRate);
        } else {
            // Section 4.3: the check flags noise on |+> (paper 15.6%).
            const double rate =
                analyze(*pool.instrumented, pool.merged).anyErrorRate;
            ok = rate >= 0.01 && rate <= 0.5;
            note = "assertion error rate " + std::to_string(rate);
        }
        notes.push_back(kind.name + " pooled over " +
                        std::to_string(pool.merged.shots()) +
                        " shots: " + note);
        if (!ok)
            failed[k] = kind.name + ": " + note;
    }
    return failed;
}

} // namespace e2e
