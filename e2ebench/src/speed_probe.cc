#include "speed_probe.hh"

#include <algorithm>
#include <numeric>

#include <sched.h>
#include <time.h>

namespace e2e {

double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
}

int
pinToCurrentCpu()
{
    const int cpu = sched_getcpu();
    if (cpu < 0)
        return -1;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    return sched_setaffinity(0, sizeof set, &set) == 0 ? cpu : -1;
}

namespace {

/** Amplitudes of the L2-sized state (256 KiB) and the L1-sized one. */
constexpr std::size_t kLargeAmps = std::size_t{1} << 14;
constexpr std::size_t kSmallAmps = std::size_t{1} << 10;
constexpr int kLargeSweeps = 4;
constexpr int kSmallRounds = 12;
/** Slots of the pointer-chase permutation (64 KiB) and steps per run. */
constexpr std::size_t kChaseSlots = std::size_t{1} << 14;
constexpr std::size_t kChaseSteps = 40000;

/**
 * A unitary rotation on every amplitude pair at stride 2^(first +
 * step * k) for k < @p sweeps, as a simulator's gate updates do; norms
 * stay bounded however often it runs.
 */
void
rotate(std::vector<std::complex<double>> &amps, int first, int step,
       int sweeps)
{
    const std::complex<double> c(0.8, 0.0);
    const std::complex<double> s(0.0, 0.6);
    for (int sweep = 0; sweep < sweeps; ++sweep) {
        const std::size_t stride = std::size_t{1} << (first + step * sweep);
        for (std::size_t i = 0; i < amps.size(); ++i) {
            if (i & stride)
                continue;
            const std::complex<double> a = amps[i];
            const std::complex<double> b = amps[i | stride];
            amps[i] = c * a + s * b;
            amps[i | stride] = s * a + c * b;
        }
    }
}

} // namespace

SpeedProbe::SpeedProbe()
    : large_(kLargeAmps), small_(kSmallAmps), next_(kChaseSlots)
{
    for (std::size_t i = 0; i < kLargeAmps; ++i)
        large_[i] = {1.0 / static_cast<double>(i + 1), 0.5};
    for (std::size_t i = 0; i < kSmallAmps; ++i)
        small_[i] = {0.5, 1.0 / static_cast<double>(i + 1)};
    // One cycle through every slot, in an xorshift-scrambled order.
    std::vector<std::uint32_t> order(kChaseSlots);
    std::iota(order.begin(), order.end(), 0u);
    std::uint64_t state = 0x2545f4914f6cdd1dULL;
    for (std::size_t i = kChaseSlots - 1; i > 0; --i) {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        std::swap(order[i], order[state % (i + 1)]);
    }
    for (std::size_t i = 0; i < kChaseSlots; ++i)
        next_[order[i]] = order[(i + 1) % kChaseSlots];
}

double
SpeedProbe::sample()
{
    const double start = processCpuSeconds();
    rotate(large_, 3, 3, kLargeSweeps);
    for (int round = 0; round < kSmallRounds; ++round)
        rotate(small_, 1, 2, 5);
    // Data-dependent loads and branches, as parsing and compiling do.
    std::uint32_t at = cursor_;
    std::uint32_t odd = 0;
    for (std::size_t step = 0; step < kChaseSteps; ++step) {
        at = next_[at];
        if (at & 1)
            ++odd;
        else
            at ^= odd & 7;
    }
    cursor_ = at;
    return (processCpuSeconds() - start) / kReferenceSeconds;
}

std::vector<double>
smoothSlowdowns(const std::vector<double> &probes, std::size_t radius)
{
    std::vector<double> out(probes.size());
    std::vector<double> window;
    for (std::size_t i = 0; i < probes.size(); ++i) {
        const std::size_t lo = i > radius ? i - radius : 0;
        const std::size_t hi = std::min(probes.size(), i + radius + 1);
        window.assign(probes.begin() + static_cast<std::ptrdiff_t>(lo),
                      probes.begin() + static_cast<std::ptrdiff_t>(hi));
        std::nth_element(window.begin(),
                         window.begin() +
                             static_cast<std::ptrdiff_t>(window.size() / 2),
                         window.end());
        out[i] = window[window.size() / 2];
    }
    return out;
}

} // namespace e2e
