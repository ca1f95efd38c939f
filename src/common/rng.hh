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
 * Draws an index from a fixed weight vector in expected O(1): the same
 * index sampleDiscrete's scan returns for every draw, drift fallback to
 * the last index included. It is the library's one repeated-draw
 * sampler: the density cache and sampled state-vector execution both
 * draw through it.
 *
 * It holds the running sums of the weights, accumulated in
 * sampleDiscrete's order, and a guide of 2^m buckets, 2^m = max(256,
 * the next power of two >= size()). guide()[b] is the first index
 * whose sum exceeds b * 2^-m, clamped to the last index. A draw takes
 * u = rng.uniform(), starts at guide()[u * 2^m] and scans forward while
 * the sum is <= u. Both products are exact for a power-of-two bucket
 * count, so the start never passes the first sum above u, and the scan
 * stops on it (or on the last index, when drift leaves every sum <= u).
 * With at least one bucket per index a draw scans about two steps; a
 * 2^16-key state-vector entry is 768 KiB (sums and guide).
 */
class CumulativeSampler
{
  public:
    /** An empty sampler: nothing to draw. */
    CumulativeSampler() = default;

    /**
     * Takes the weights by value and accumulates them in place, so a
     * moved-in vector becomes the sums without a second buffer.
     * @throws ValueError when a weight is negative or NaN (the sums
     *         would not be monotone, and a draw would leave
     *         sampleDiscrete's stream), or when non-empty weights sum
     *         to 0 (all-zero or fully underflowed) or to a non-finite
     *         value (an infinite weight or an overflowed sum): no draw
     *         over such sums means anything.
     */
    explicit CumulativeSampler(std::vector<double> weights);

    std::size_t size() const { return sums_.size(); }

    /** Running sums of the weights, in sampleDiscrete's order. */
    const std::vector<double> &sums() const { return sums_; }

    /** Start index per bucket (see class comment); empty when size() is 0. */
    const std::vector<std::uint32_t> &guide() const { return guide_; }

    /**
     * One draw: sampleDiscrete(weights, rng)'s index.
     * @throws Error when the sampler is empty.
     */
    std::size_t operator()(Rng &rng) const;

    /**
     * Draw @p shots indices and count them per index: the counts of
     * @p shots successive operator() draws, in one call.
     * @throws Error when the sampler is empty and @p shots > 0.
     */
    std::vector<std::size_t> counts(std::size_t shots, Rng &rng) const;

  private:
    std::size_t draw(double u) const;

    std::vector<double> sums_;
    std::vector<std::uint32_t> guide_;
    /** guide_.size() as a double: u * scale_ is the bucket of u. */
    double scale_ = 0.0;
};

} // namespace qra

#endif // QRA_COMMON_RNG_HH
