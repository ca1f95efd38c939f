#include "common/rng.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <utility>

#include "common/error.hh"

namespace qra {

namespace {

/** splitmix64: seed expander recommended by the xoshiro authors. */
std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Xoshiro256::Xoshiro256(std::uint64_t seed_value)
{
    seed(seed_value);
}

void
Xoshiro256::seed(std::uint64_t seed_value)
{
    std::uint64_t sm = seed_value;
    for (auto &word : state_)
        word = splitmix64(sm);
}

Xoshiro256::result_type
Xoshiro256::operator()()
{
    const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;

    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);

    return result;
}

double
Xoshiro256::uniform()
{
    // 53 high bits give a uniform double in [0, 1).
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

std::uint64_t
Xoshiro256::below(std::uint64_t bound)
{
    QRA_ASSERT(bound > 0, "sampling bound must be positive");
    // Rejection-free Lemire reduction is overkill here; modulo bias is
    // negligible for bound << 2^64 which holds for all library uses.
    return (*this)() % bound;
}

std::uint64_t
splitSeed(std::uint64_t base, std::uint64_t stream)
{
    // Two splitmix64 rounds over a mix of base and stream. A plain
    // base + stream would make streams of adjacent jobs collide
    // (job 7 stream 1 == job 8 stream 0); the golden-ratio multiply
    // decorrelates the two inputs before mixing.
    std::uint64_t x = base ^ (stream * 0x9e3779b97f4a7c15ULL +
                              0x6a09e667f3bcc909ULL);
    splitmix64(x);
    return splitmix64(x);
}

std::size_t
sampleDiscrete(const std::vector<double> &probs, Rng &rng)
{
    QRA_ASSERT(!probs.empty(), "cannot sample from empty distribution");
    const double u = rng.uniform();
    double acc = 0.0;
    for (std::size_t i = 0; i < probs.size(); ++i) {
        acc += probs[i];
        if (u < acc)
            return i;
    }
    // Numerical drift: the cumulative sum fell slightly short of 1.
    return probs.size() - 1;
}

CumulativeSampler::CumulativeSampler(std::vector<double> weights)
    : sums_(std::move(weights))
{
    QRA_ASSERT(sums_.size() < std::numeric_limits<std::uint32_t>::max(),
               "too many sampling weights for the guide's indices");
    double acc = 0.0;
    for (double &w : sums_) {
        if (!(w >= 0.0))
            throw ValueError("sampling weights must be non-negative");
        acc += w;
        w = acc;
    }
    if (sums_.empty())
        return;
    if (!std::isfinite(acc))
        throw ValueError("sampling weights do not sum to a finite value");
    if (acc == 0.0)
        throw ValueError("sampling weights sum to zero");

    const std::size_t buckets =
        std::max<std::size_t>(256, std::bit_ceil(sums_.size()));
    scale_ = static_cast<double>(buckets);
    guide_.resize(buckets);
    // One merge of the bucket edges b * 2^-m into the sums; each edge
    // is exact, and the last index is the drift fallback.
    const std::size_t last = sums_.size() - 1;
    std::size_t i = 0;
    for (std::size_t b = 0; b < buckets; ++b) {
        const double edge = static_cast<double>(b) / scale_;
        while (i < last && sums_[i] <= edge)
            ++i;
        guide_[b] = static_cast<std::uint32_t>(i);
    }
}

inline std::size_t
CumulativeSampler::draw(double u) const
{
    // The first sum above u is the first index sampleDiscrete's scan
    // stops at (u < acc); none above u is its drift fallback.
    const std::size_t last = sums_.size() - 1;
    std::size_t i = guide_[static_cast<std::size_t>(u * scale_)];
    while (i < last && sums_[i] <= u)
        ++i;
    return i;
}

std::size_t
CumulativeSampler::operator()(Rng &rng) const
{
    QRA_ASSERT(!sums_.empty(), "cannot sample from empty distribution");
    return draw(rng.uniform());
}

std::vector<std::size_t>
CumulativeSampler::counts(std::size_t shots, Rng &rng) const
{
    std::vector<std::size_t> out(sums_.size());
    if (shots == 0)
        return out;
    QRA_ASSERT(!sums_.empty(), "cannot sample from empty distribution");
    for (std::size_t s = 0; s < shots; ++s)
        ++out[draw(rng.uniform())];
    return out;
}

} // namespace qra
