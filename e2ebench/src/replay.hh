/**
 * @file
 * Layered replay for the traced run: one job re-executed by calling
 * each layer's public function in turn — parseAnnotatedQasm,
 * analysis::analyzeCircuit, the prepare pipeline, plan lowering, the
 * registry backend's run over the engine's shard plan, Result::merge
 * and analyze — each wrapped in an obs::TimedSpan, which both
 * records the trace event and returns the time the benchmark sums.
 *
 * The replay keeps the caches a long-lived JobQueue keeps (prepared
 * circuits by QASM text, a PlanCache of lowered plans and sampled
 * distributions), so a layer the queue skips on a cache hit costs
 * only its lookup here too. Its merged counts must equal the queue's
 * for the same job bit for bit; the benchmark checks that.
 */

#ifndef QRA_E2EBENCH_REPLAY_HH
#define QRA_E2EBENCH_REPLAY_HH

#include <map>
#include <memory>
#include <string>
#include <unordered_map>

#include "workloads.hh"

namespace e2e {

/** Per-layer seconds and exact counts, summed over replayed jobs. */
struct LayerTotals
{
    double parse = 0.0;
    double analysis = 0.0;
    double prepare = 0.0;
    double lower = 0.0;
    /** Backend run seconds, keyed by layer name (sim.density.run...). */
    std::map<std::string, double> run;
    double merge = 0.0;
    double decode = 0.0;

    std::size_t shards = 0;
    std::size_t lanes = 0;
    std::size_t insertedSwaps = 0;
    std::size_t insertedGates = 0;
    std::size_t checks = 0;

    /** Seconds over every layer. */
    double sum() const;
};

/** The trace/metric layer name of @p backend's run. */
std::string runLayerName(const std::string &backend);

class Replayer
{
  public:
    /** @param engine Supplies the shard plan, registry and options. */
    explicit Replayer(const qra::runtime::ExecutionEngine &engine);

    /** Replay @p job, adding into @p totals; returns merged counts. */
    qra::Result replay(const Workload &workload, const JobInput &job,
                       LayerTotals &totals);

  private:
    struct Prepared
    {
        std::shared_ptr<const qra::Circuit> circuit;
        std::shared_ptr<const qra::InstrumentedCircuit> instrumented;
        std::size_t insertedSwaps = 0;
        std::size_t insertedGates = 0;
    };

    const qra::runtime::ExecutionEngine &engine_;
    qra::runtime::ThreadPool pool_;
    qra::kernels::PlanCache artifacts_;
    std::unordered_map<std::string, Prepared> prepared_;
};

} // namespace e2e

#endif // QRA_E2EBENCH_REPLAY_HH
