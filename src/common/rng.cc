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

namespace {

/**
 * BTRD's Stirling tail fc(k) = log k! - [log sqrt(2 pi) + (k + 1/2)
 * log(k + 1) - (k + 1)]: tabled below 10, its series from there.
 */
double
stirlingTail(double k)
{
    static constexpr double table[10] = {
        0.08106146679532733,  0.04134069595540946,
        0.027677925684997717, 0.020790672103765395,
        0.016644691189820815, 0.013876128823072875,
        0.011896709945893313, 0.010411265261971892,
        0.009255462182707674, 0.008330563433357696};
    if (k < 10.0)
        return table[static_cast<int>(k)];
    const double k1 = k + 1.0;
    const double k1sq = k1 * k1;
    return (1.0 / 12.0 - (1.0 / 360.0 - 1.0 / 1260.0 / k1sq) / k1sq) / k1;
}

/**
 * Binomial(n, p) by inversion from 0, for p <= 1/2 and n * p < 10:
 * P(0) = (1 - p)^n >= e^-15 there, and P(x) = P(x - 1) * ((n + 1) / x
 * - 1) * p / (1 - p). A uniform that rounding carries past x = n is
 * drawn again.
 */
std::uint64_t
binomialInversion(std::uint64_t n, double p, Rng &rng)
{
    const double dn = static_cast<double>(n);
    const double s = p / (1.0 - p);
    const double a = (dn + 1.0) * s;
    const double p0 = std::exp(dn * std::log1p(-p));
    for (;;) {
        double u = rng.uniform();
        double px = p0;
        std::uint64_t x = 0;
        while (u >= px && x < n) {
            u -= px;
            ++x;
            px *= a / static_cast<double>(x) - s;
        }
        if (u < px)
            return x;
    }
}

/**
 * Binomial(n, p) by BTRD (Hoermann 1993, steps numbered as there), for
 * p <= 1/2 and n * p >= 10. Candidates come from a transformed uniform
 * pair; most are accepted inside a box without evaluating the pmf, the
 * rest by recursion (near the mode), a squeeze, or the log-pmf ratio.
 * Every candidate is compared to [0, n] as a double before it becomes
 * an integer: the rejection path produces values far outside it.
 */
std::uint64_t
binomialBtrd(std::uint64_t n, double p, Rng &rng)
{
    const double dn = static_cast<double>(n);
    const double q = 1.0 - p;
    const double m = std::floor((dn + 1.0) * p);
    const double r = p / q;
    const double nr = (dn + 1.0) * r;
    const double npq = dn * p * q;
    const double sqrt_npq = std::sqrt(npq);
    const double b = 1.15 + 2.53 * sqrt_npq;
    const double a = -0.0873 + 0.0248 * b + 0.01 * p;
    const double c = dn * p + 0.5;
    const double alpha = (2.83 + 5.1 / b) * sqrt_npq;
    const double v_r = 0.92 - 4.2 / b;
    const double u_rv_r = 0.86 * v_r;

    for (;;) {
        // 1: inside the box, accept without the pmf.
        double v = rng.uniform();
        double u;
        if (v <= u_rv_r) {
            u = v / v_r - 0.43;
            const double k =
                std::floor((2.0 * a / (0.5 - std::abs(u)) + b) * u + c);
            if (k >= 0.0 && k <= dn)
                return static_cast<std::uint64_t>(k);
            continue;
        }
        // 2: a uniform pair outside the box.
        if (v >= v_r) {
            u = rng.uniform() - 0.5;
        } else {
            u = v / v_r - 0.93;
            u = std::copysign(0.5, u) - u;
            v = rng.uniform() * v_r;
        }
        // 3.0: the candidate and its scaled ordinate.
        const double us = 0.5 - std::abs(u);
        const double k = std::floor((2.0 * a / us + b) * u + c);
        if (!(k >= 0.0 && k <= dn))
            continue;
        v = v * alpha / (a / (us * us) + b);
        const double km = std::abs(k - m);
        if (km <= 15.0) {
            // 3.1: f(k) / f(m) as a product of pmf ratios.
            double f = 1.0;
            if (m < k) {
                for (double i = m + 1.0; i <= k; i += 1.0)
                    f *= nr / i - r;
            } else if (m > k) {
                for (double i = k + 1.0; i <= m; i += 1.0)
                    v *= nr / i - r;
            }
            if (v <= f)
                return static_cast<std::uint64_t>(k);
            continue;
        }
        // 3.2: squeeze log f(k) / f(m) between two bounds.
        v = std::log(v);
        const double rho =
            (km / npq) * (((km / 3.0 + 0.625) * km + 1.0 / 6.0) / npq + 0.5);
        const double t = -km * km / (2.0 * npq);
        if (v < t - rho)
            return static_cast<std::uint64_t>(k);
        if (v > t + rho)
            continue;
        // 3.3: the exact log ratio, Stirling tails included.
        const double nm = dn - m + 1.0;
        const double h = (m + 0.5) * std::log((m + 1.0) / (r * nm)) +
                         stirlingTail(m) + stirlingTail(dn - m);
        const double nk = dn - k + 1.0;
        if (v <= h + (dn + 1.0) * std::log(nm / nk) +
                     (k + 0.5) * std::log(nk * r / (k + 1.0)) -
                     stirlingTail(k) - stirlingTail(dn - k))
            return static_cast<std::uint64_t>(k);
    }
}

} // namespace

std::uint64_t
sampleBinomial(std::uint64_t n, double p, Rng &rng)
{
    if (!(p >= 0.0 && p <= 1.0))
        throw ValueError("binomial probability must lie in [0, 1]");
    if (n == 0 || p == 0.0)
        return 0;
    if (p == 1.0)
        return n;
    // 1 - p is exact for p >= 1/2.
    if (p > 0.5)
        return n - sampleBinomial(n, 1.0 - p, rng);
    if (static_cast<double>(n) * p < 10.0)
        return binomialInversion(n, p, rng);
    return binomialBtrd(n, p, rng);
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

inline double
CumulativeSampler::edge(std::size_t k) const
{
    // A draw is index i < last for u in [edge(i), edge(i + 1)): u < 1,
    // so a sum past 1 ends its index's share at 1.
    if (k == 0)
        return 0.0;
    if (k == sums_.size())
        return 1.0;
    return std::min(sums_[k - 1], 1.0);
}

void
CumulativeSampler::split(std::size_t lo, std::size_t hi,
                         std::size_t shots, Rng &rng, Counts &out) const
{
    // Left halves recurse and right halves loop, so leaves come out in
    // index order and the depth is <= log2 size(). A range with shots
    // has positive mass, and a zero-mass half's probability is exactly
    // 0 (left) or 1 (right), so it gets none.
    while (hi - lo > 1) {
        const std::size_t mid = lo + (hi - lo) / 2;
        const double base = edge(lo);
        const std::size_t left = sampleBinomial(
            shots, (edge(mid) - base) / (edge(hi) - base), rng);
        if (left > 0)
            split(lo, mid, left, rng, out);
        shots -= left;
        if (shots == 0)
            return;
        lo = mid;
    }
    out.emplace_back(lo, shots);
}

CumulativeSampler::Counts
CumulativeSampler::counts(std::size_t shots, Rng &rng) const
{
    Counts out;
    if (shots == 0)
        return out;
    QRA_ASSERT(!sums_.empty(), "cannot sample from empty distribution");
    if (shots >= kSplitShotsPerKey * sums_.size()) {
        split(0, sums_.size(), shots, rng, out);
        return out;
    }
    if (sums_.size() <= shots) {
        // Per shot into one tally per index.
        std::vector<std::size_t> tally(sums_.size());
        for (std::size_t s = 0; s < shots; ++s)
            ++tally[draw(rng.uniform())];
        for (std::size_t i = 0; i < tally.size(); ++i)
            if (tally[i] > 0)
                out.emplace_back(i, tally[i]);
        return out;
    }
    // Per shot over more indices than shots (sv_sweep draws 1024 over
    // 2^16): sorting the draws beats zeroing and scanning a tally.
    std::vector<std::uint32_t> drawn(shots);
    for (std::uint32_t &i : drawn)
        i = static_cast<std::uint32_t>(draw(rng.uniform()));
    std::sort(drawn.begin(), drawn.end());
    for (const std::uint32_t i : drawn) {
        if (out.empty() || out.back().first != i)
            out.emplace_back(i, 0);
        ++out.back().second;
    }
    return out;
}

} // namespace qra
