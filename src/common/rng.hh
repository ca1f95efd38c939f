/**
 * @file
 * Seeded random number generation for simulators and samplers.
 *
 * Two engines are provided: a fast xoshiro256++ implementation used on
 * hot sampling paths, and a std::mt19937_64 adapter for callers that
 * want the standard engine. Both satisfy UniformRandomBitGenerator so
 * they compose with <random> distributions.
 */

#ifndef QRA_COMMON_RNG_HH
#define QRA_COMMON_RNG_HH

#include <cstdint>
#include <limits>
#include <random>
#include <vector>

namespace qra {

/**
 * xoshiro256++ pseudo-random generator (Blackman & Vigna).
 *
 * Small, fast, and statistically strong; the default engine for
 * measurement sampling and Monte-Carlo trajectory branching.
 */
class Xoshiro256
{
  public:
    using result_type = std::uint64_t;

    /** Construct from a 64-bit seed, expanded via splitmix64. */
    explicit Xoshiro256(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Reseed the generator, replacing the entire internal state. */
    void seed(std::uint64_t seed);

    /** Produce the next 64 random bits. */
    result_type operator()();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform integer in [0, bound). @pre bound > 0. */
    std::uint64_t below(std::uint64_t bound);

    static constexpr result_type min() { return 0; }
    static constexpr result_type
    max()
    {
        return std::numeric_limits<result_type>::max();
    }

  private:
    std::uint64_t state_[4];
};

/** Default library-wide RNG type. */
using Rng = Xoshiro256;

/**
 * Derive an independent seed for a numbered RNG stream.
 *
 * Mixes @p base and @p stream through splitmix64 so that streams
 * split from the same base seed are statistically independent. Used
 * by the execution engine to give every shot-shard its own RNG
 * stream: the derived seeds depend only on (job seed, shard index),
 * never on the thread that happens to run the shard, which keeps
 * sharded execution deterministic at any thread count.
 */
std::uint64_t splitSeed(std::uint64_t base, std::uint64_t stream);

/**
 * Draw an index from a discrete probability distribution.
 *
 * @param probs Probabilities; they should sum to ~1 but small
 *              numerical drift is tolerated (the tail absorbs it).
 * @param rng Random generator supplying the uniform variate.
 * @return Sampled index in [0, probs.size()).
 */
std::size_t sampleDiscrete(const std::vector<double> &probs, Rng &rng);

/**
 * Running sums of @p probs, accumulated in sampleDiscrete's order, for
 * sampleCumulative.
 *
 * @throws Error when a weight is negative or NaN: the sums would
 *         not be monotone, and a binary search over them would leave
 *         sampleDiscrete's stream.
 */
std::vector<double> cumulativeWeights(const std::vector<double> &probs);

/**
 * Draw an index from cumulativeWeights(probs): a binary search that
 * returns sampleDiscrete(probs, rng)'s index for every draw, drift
 * fallback to the last index included, in O(log n) instead of O(n).
 *
 * @throws Error when @p prefix is empty.
 */
std::size_t sampleCumulative(const std::vector<double> &prefix, Rng &rng);

} // namespace qra

#endif // QRA_COMMON_RNG_HH
