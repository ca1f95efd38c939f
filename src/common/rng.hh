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
#include <utility>
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
 * Draw from Binomial(@p n, @p p): the number of successes in @p n
 * independent trials of success probability @p p.
 *
 * The library's own sampler, so a seed gives the same draws with every
 * standard library (whose binomial distributions draw differently).
 * p > 1/2 draws n - Binomial(n, 1 - p). Below n * p = 10 it inverts
 * the cdf from 0, about n * p + 1 steps on one uniform; from 10 on it
 * is Hoermann's BTRD (transformed rejection with decomposition, 1993),
 * a few uniforms per draw at any n. p == 0 returns exactly 0 and
 * p == 1 exactly n, drawing nothing.
 * @throws ValueError when @p p is outside [0, 1] or NaN.
 */
std::uint64_t sampleBinomial(std::uint64_t n, double p, Rng &rng);

/**
 * Draws indices from a fixed weight vector with sampleDiscrete's law:
 * a draw is index i when u = rng.uniform() lies in [sums[i-1], sums[i])
 * (sums[-1] = 0), and the last index takes the drift, u >= every sum
 * before it. It is the library's one repeated-draw sampler: the density
 * cache and sampled state-vector execution both draw through it.
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
 *
 * counts() has two regimes, by shots per key. Below
 * kSplitShotsPerKey it makes one guided draw per shot, the same stream
 * as successive operator() calls. From there on it splits: a range of
 * indices with s shots gives its left half Binomial(s, mass of the left
 * half / mass of the range) of them and its right half the rest, and
 * only halves with shots are entered, so s shots over k keys cost at
 * most k - 1 binomial draws rather than s guided ones. The masses are
 * the per-shot law's, differences of min(sum, 1) with the last index
 * ending at 1, so both regimes draw from one distribution; a
 * zero-weight index never gets a shot in either.
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
     * Shots per key from which counts() splits instead of drawing per
     * shot: 8192 shots over 4-32 keys split, 256 over 16 and 1024 over
     * 2^16 do not. Where the split starts to pay inside a job, whose
     * other work leaves the binomial code and libm cold (README,
     * "Counting shots").
     */
    static constexpr std::size_t kSplitShotsPerKey = 32;

    /** (index, count) pairs: indices ascending, every count > 0. */
    using Counts = std::vector<std::pair<std::size_t, std::size_t>>;

    /**
     * Draw @p shots indices and count them per index, listing only the
     * indices drawn. Below kSplitShotsPerKey * size() shots these are
     * the counts of @p shots successive operator() draws, and the
     * stream ends where theirs does; from there on they are split by
     * binomial draws (see class comment), the same law from a shorter
     * stream.
     * @throws Error when the sampler is empty and @p shots > 0.
     */
    Counts counts(std::size_t shots, Rng &rng) const;

  private:
    std::size_t draw(double u) const;
    /** Where index @p k's share of [0, 1) starts; edge(size()) is 1. */
    double edge(std::size_t k) const;
    /** Splits @p shots over [lo, hi) by binomial draws onto @p out. */
    void split(std::size_t lo, std::size_t hi, std::size_t shots,
               Rng &rng, Counts &out) const;

    std::vector<double> sums_;
    std::vector<std::uint32_t> guide_;
    /** guide_.size() as a double: u * scale_ is the bucket of u. */
    double scale_ = 0.0;
};

} // namespace qra

#endif // QRA_COMMON_RNG_HH
