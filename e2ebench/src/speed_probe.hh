/**
 * @file
 * Host-speed probe: a fixed piece of work, independent of the qra
 * library, whose CPU time tracks how fast this machine's core runs at
 * the moment.
 *
 * On a shared virtual machine a core's speed changes with what the
 * host runs next to it (a busy sibling hyperthread, frequency limits):
 * on the reference host a fixed compute loop took 21 ms of CPU time in
 * quiet seconds and up to 46 ms in busy ones, for minutes at a time. CPU
 * time already leaves out steal; dividing it by the probe's current
 * slowdown leaves out the rest. Since the probe never calls the
 * library, a change to the library moves job times and not the probe.
 */

#ifndef QRA_E2EBENCH_SPEED_PROBE_HH
#define QRA_E2EBENCH_SPEED_PROBE_HH

#include <complex>
#include <cstdint>
#include <vector>

namespace e2e {

/** CPU time of the whole process (every thread), in seconds. */
double processCpuSeconds();

/**
 * Pin the calling thread, and every thread it starts afterwards, to
 * the CPU it runs on now, so the probe and the jobs it calibrates share
 * one core. Returns that CPU, or -1 when pinning is not possible.
 */
int pinToCurrentCpu();

class SpeedProbe
{
  public:
    /** The probe's CPU time on the reference host when it is quiet. */
    static constexpr double kReferenceSeconds = 400e-6;

    SpeedProbe();

    /**
     * Run the probe once; returns its CPU time over kReferenceSeconds
     * (1 on a quiet reference host, 1.5 on a core running at 2/3 of
     * that speed).
     */
    double sample();

  private:
    /** States the probe's gate-update passes run over. */
    std::vector<std::complex<double>> large_;
    std::vector<std::complex<double>> small_;
    /** A pointer chase through one cycle over every slot. */
    std::vector<std::uint32_t> next_;
    std::uint32_t cursor_ = 0;
};

/**
 * Per-sample slowdown from probes taken one per sample: the median of
 * the probes within @p radius of each (fewer at the ends), so a probe
 * hit by a momentary burst does not rescale its neighbours.
 */
std::vector<double> smoothSlowdowns(const std::vector<double> &probes,
                                    std::size_t radius);

} // namespace e2e

#endif // QRA_E2EBENCH_SPEED_PROBE_HH
