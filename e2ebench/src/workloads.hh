/**
 * @file
 * The benchmark's workloads: seeded job lists of annotated QASM text,
 * the JobSpec template each job is submitted with, and the output
 * check every completed job must pass.
 *
 * A workload's job list is a pure function of (workload, seed, job
 * count): the seed changes rotation angles, gate choices and sampling
 * seeds, never the mix of circuit shapes, so every seed does the same
 * amount of work.
 */

#ifndef QRA_E2EBENCH_WORKLOADS_HH
#define QRA_E2EBENCH_WORKLOADS_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "qra.hh"

namespace e2e {

/** One submission: QASM text in, plus how to run it. */
struct JobInput
{
    std::string qasm;
    /** Index into Workload::kinds. */
    std::size_t kind = 0;
    std::uint64_t seed = 0;
};

/** What a circuit family is and how its output is checked. */
struct JobKind
{
    std::string name;
    /** The kind's fixed QASM text; empty for generated families. */
    std::string qasm;
    /** Derive checks with the static analyzer (--auto-assert). */
    bool autoAssert = false;
    /**
     * Payload error predicate for the raw-vs-filtered shape check,
     * or null when the payload alone cannot reveal an error.
     */
    std::function<bool(std::uint64_t)> payloadIsError;
};

/** How a workload's outputs are validated. */
enum class CheckKind
{
    /** Counts vs the density backend's exact distribution. */
    ExactDistribution,
    /** The paper's shape: filtered error < raw, raw in a band. */
    PaperShape,
    /** Noiseless with checks that hold: no shot may flag. */
    NoAssertionFires,
};

/** Devices the workloads run against; stable addresses for JobSpec. */
struct Devices
{
    qra::DeviceModel ibmqx4 = qra::DeviceModel::ibmqx4();
    /** 5x5 nearest-neighbour grid, both directions native. */
    qra::CouplingMap grid = makeGrid(5, 5);

    static qra::CouplingMap makeGrid(std::size_t rows, std::size_t cols);
};

struct Workload
{
    std::string name;
    std::size_t shots = 0;
    const qra::NoiseModel *noise = nullptr;
    const qra::CouplingMap *coupling = nullptr;
    qra::InstrumentOptions instrument;
    qra::compile::AutoAssertOptions autoAssert;
    CheckKind check = CheckKind::NoAssertionFires;
    std::vector<JobKind> kinds;
    /** Timed jobs, in submission order. */
    std::vector<JobInput> jobs;
    /** Untimed jobs run during setup (disjoint seed stream). */
    std::vector<JobInput> warmup;
};

/** Names accepted by makeWorkload, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/**
 * Jobs per second of timed work on the reference host; a run's job
 * count is fixed from it and --seconds before anything runs.
 */
double nominalJobsPerSecond(const std::string &name);

/**
 * Build workload @p name with @p job_count timed jobs from @p seed.
 * @throws qra::ValueError for an unknown name.
 */
Workload makeWorkload(const std::string &name, std::uint64_t seed,
                      std::size_t job_count, const Devices &devices);

/** The JobSpec a user would submit for @p program as job @p job. */
qra::runtime::JobSpec makeSpec(const Workload &workload,
                               const JobInput &job,
                               const qra::AnnotatedProgram &program);

/**
 * Per-job output checks plus, for PaperShape, a pooled per-kind
 * shape check at the end of the run.
 */
class OutputChecker
{
  public:
    /**
     * Precompute references (exact distributions for
     * ExactDistribution workloads) for every kind of @p workload.
     */
    OutputChecker(const Workload &workload,
                  qra::runtime::BackendRegistry &registry);

    /**
     * Check one completed job and its decoded @p report; returns an
     * empty string when it passes, else why it failed.
     */
    std::string
    check(const JobInput &job, const qra::Result &result,
          const std::shared_ptr<const qra::InstrumentedCircuit> &inst,
          const qra::AssertionReport &report);

    /**
     * Pooled checks over every job checked so far. Returns the kinds
     * that failed (each with its reason); every job of such a kind
     * counts as failed. Appends one line per pooled kind to @p notes.
     */
    std::map<std::size_t, std::string>
    finish(std::vector<std::string> &notes) const;

  private:
    struct Pool
    {
        qra::Result merged;
        std::shared_ptr<const qra::InstrumentedCircuit> instrumented;
        std::size_t jobs = 0;
    };

    const Workload &workload_;
    /** Exact reference distribution per kind (ExactDistribution). */
    std::vector<qra::stats::Distribution> reference_;
    std::vector<Pool> pools_;
};

} // namespace e2e

#endif // QRA_E2EBENCH_WORKLOADS_HH
