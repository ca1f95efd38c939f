#include "sim/kernels/simd/dispatch.hh"

#include <cstdlib>
#include <string>

#include "common/logging.hh"

namespace qra {
namespace kernels {
namespace simd {

namespace {

int
clampToDetected(int tier)
{
    const int detected = static_cast<int>(detectedTier());
    if (tier < 0)
        return 0;
    return tier > detected ? detected : tier;
}

/**
 * CPU probe, independent of build flags. The portable tier needs no
 * CPU features, so any CPU "supports" at least Portable — whether it
 * is usable is compiledTier()'s call (detectedTier clamps).
 */
Tier
probeCpuTier()
{
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
    if (__builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512dq"))
        return Tier::Avx512;
    if (__builtin_cpu_supports("avx2"))
        return Tier::Avx2;
#endif
    return Tier::Portable;
}

/** QRA_SIMD environment selection, or -1 when absent/invalid. */
int
envTier()
{
    const char *env = std::getenv("QRA_SIMD");
    if (env == nullptr || *env == '\0')
        return -1;
    Tier tier;
    if (!parseTier(env, &tier)) {
        logWarn(std::string("ignoring invalid QRA_SIMD value '") + env +
                "' (want scalar|portable|avx2|avx512)");
        return -1;
    }
    return static_cast<int>(tier);
}

/** Startup default: env selection clamped to the detected tier. */
Tier
computeDefaultTier()
{
    const int env = envTier();
    if (env < 0)
        return detectedTier();
    return static_cast<Tier>(clampToDetected(env));
}

thread_local int tThreadTier = -1;

} // namespace

const char *
tierName(Tier tier)
{
    switch (tier) {
    case Tier::Scalar:
        return "scalar";
    case Tier::Portable:
        return "portable";
    case Tier::Avx2:
        return "avx2";
    case Tier::Avx512:
        return "avx512";
    }
    return "?";
}

bool
parseTier(std::string_view name, Tier *out)
{
    if (name == "scalar") {
        *out = Tier::Scalar;
        return true;
    }
    if (name == "portable") {
        *out = Tier::Portable;
        return true;
    }
    if (name == "avx2") {
        *out = Tier::Avx2;
        return true;
    }
    if (name == "avx512") {
        *out = Tier::Avx512;
        return true;
    }
    return false;
}

Tier
compiledTier()
{
#if defined(QRA_SIMD_AVX512)
    return Tier::Avx512;
#elif defined(QRA_SIMD_AVX2)
    return Tier::Avx2;
#elif defined(QRA_SIMD_PORTABLE)
    return Tier::Portable;
#else
    return Tier::Scalar;
#endif
}

Tier
detectedTier()
{
    static const Tier detected = [] {
        const Tier cpu = probeCpuTier();
        return cpu < compiledTier() ? cpu : compiledTier();
    }();
    return detected;
}

Tier
currentTier()
{
    if (tThreadTier >= 0)
        return static_cast<Tier>(clampToDetected(tThreadTier));
    static const Tier fallback = computeDefaultTier();
    return fallback;
}

TierScope::TierScope(int tier) : saved_(tThreadTier)
{
    if (tier >= 0)
        tThreadTier = tier;
}

TierScope::~TierScope()
{
    tThreadTier = saved_;
}

std::vector<Tier>
availableTiers()
{
    std::vector<Tier> tiers{Tier::Scalar};
    const Tier top = detectedTier();
    (void)top;
#ifdef QRA_SIMD_PORTABLE
    if (top >= Tier::Portable)
        tiers.push_back(Tier::Portable);
#endif
#ifdef QRA_SIMD_AVX2
    if (top >= Tier::Avx2)
        tiers.push_back(Tier::Avx2);
#endif
#ifdef QRA_SIMD_AVX512
    if (top >= Tier::Avx512)
        tiers.push_back(Tier::Avx512);
#endif
    return tiers;
}

Ladder
activeLadder()
{
    Ladder ladder;
    const Tier tier = currentTier();
    (void)tier;
#ifdef QRA_SIMD_AVX512
    if (tier >= Tier::Avx512) {
        ladder.tables[ladder.count] = &kAvx512Table;
        ladder.tiers[ladder.count] = Tier::Avx512;
        ++ladder.count;
    }
#endif
#ifdef QRA_SIMD_AVX2
    if (tier >= Tier::Avx2) {
        ladder.tables[ladder.count] = &kAvx2Table;
        ladder.tiers[ladder.count] = Tier::Avx2;
        ++ladder.count;
    }
#endif
#ifdef QRA_SIMD_PORTABLE
    if (tier >= Tier::Portable) {
        ladder.tables[ladder.count] = &kPortableTable;
        ladder.tiers[ladder.count] = Tier::Portable;
        ++ladder.count;
    }
#endif
    return ladder;
}

ReduceLadder
activeReduceLadder()
{
    ReduceLadder ladder;
    const Tier tier = currentTier();
    (void)tier;
#ifdef QRA_SIMD_AVX512
    if (tier >= Tier::Avx512) {
        ladder.tables[ladder.count] = &kAvx512Reduce;
        ladder.tiers[ladder.count] = Tier::Avx512;
        ++ladder.count;
    }
#endif
#ifdef QRA_SIMD_AVX2
    if (tier >= Tier::Avx2) {
        ladder.tables[ladder.count] = &kAvx2Reduce;
        ladder.tiers[ladder.count] = Tier::Avx2;
        ++ladder.count;
    }
#endif
#ifdef QRA_SIMD_PORTABLE
    if (tier >= Tier::Portable) {
        ladder.tables[ladder.count] = &kPortableReduce;
        ladder.tiers[ladder.count] = Tier::Portable;
        ++ladder.count;
    }
#endif
    return ladder;
}

} // namespace simd
} // namespace kernels
} // namespace qra
