/**
 * @file
 * The one traversal decision for pair-structured amplitude loops.
 *
 * Every 1q/2q pair kernel walks a *compact* index space whose entries
 * expand to 2 (pair kernels) or 4 (two-qubit kernels) amplitudes.
 * When the expansion stride is small the walk is effectively
 * sequential and parallelFor's linear split is ideal. When the stride
 * exceeds the cache budget (a high target qubit on a large state),
 * one compact chunk touches windows far apart in memory, so
 * forEachCompact walks the compact space in fixed power-of-two tiles
 * sized so that *all* of a tile's amplitude windows fit inside the
 * budget at once, and hands whole tiles to the lane scheduler.
 * Iteration order within a tile is unchanged and writes are disjoint,
 * so both walks are bit-identical: the choice is purely a
 * locality/scheduling decision, made per call by blockedTile().
 *
 * The tile budget has one override and one default: a thread-local
 * CacheBlockScope (the engine installs one per shard from
 * EngineOptions::cacheBlockBytes), else 1 MiB (about half a typical
 * L2).
 */

#ifndef QRA_SIM_KERNELS_TRAVERSAL_HH
#define QRA_SIM_KERNELS_TRAVERSAL_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "sim/kernels/parallel.hh"

namespace qra {
namespace kernels {

/**
 * Tile footprint budget in bytes (power of two): the innermost
 * CacheBlockScope on this thread, else the 1 MiB default.
 */
std::size_t cacheBlockBytes();

/**
 * RAII thread-local tile-footprint override, mirroring TierScope:
 * the engine installs one per shard runner from
 * EngineOptions::cacheBlockBytes, so one plan's budget never leaks
 * into jobs sharing the pool. @p bytes 0 inherits the surrounding
 * selection; non-zero values round down to a power of two with a
 * 4 KiB floor.
 */
class CacheBlockScope
{
  public:
    explicit CacheBlockScope(std::size_t bytes);
    ~CacheBlockScope();

    CacheBlockScope(const CacheBlockScope &) = delete;
    CacheBlockScope &operator=(const CacheBlockScope &) = delete;

  private:
    std::size_t saved_;
};

/**
 * The traversal decision for a walk of @p count compact indices,
 * each expanding to @p resident_per_index amplitudes, whose widest
 * operand bit is @p max_bit (a single-bit mask): the tile size in
 * compact indices when the pair stride alone exceeds
 * cacheBlockBytes() and the range spans more than one tile, else 0
 * (the linear walk).
 */
std::uint64_t blockedTile(std::uint64_t count,
                          std::size_t resident_per_index,
                          std::uint64_t max_bit);

namespace detail {
/** Count one tiled walk in sim.kernels.traversal.blocked. */
void countBlockedWalk();
} // namespace detail

/**
 * Run @p body(begin, end) over the compact range [0, count), walking
 * it linearly (parallelFor's grain split) or in cache-budget tiles,
 * each tile a scheduling unit, as blockedTile() decides. Bodies must
 * touch disjoint elements per compact index; both walks are then
 * bit-identical.
 */
template <typename Body>
void
forEachCompact(std::uint64_t count, std::size_t resident_per_index,
               std::uint64_t max_bit, Body &&body)
{
    const std::uint64_t tile =
        blockedTile(count, resident_per_index, max_bit);
    if (tile == 0) {
        parallelFor(count, std::forward<Body>(body));
        return;
    }
    detail::countBlockedWalk();
    const std::uint64_t tiles = (count + tile - 1) / tile;
    parallelFor(tiles, /*grain=*/1,
                [&](std::uint64_t t0, std::uint64_t t1) {
                    for (std::uint64_t t = t0; t < t1; ++t)
                        body(t * tile,
                             std::min(count, (t + 1) * tile));
                });
}

} // namespace kernels
} // namespace qra

#endif // QRA_SIM_KERNELS_TRAVERSAL_HH
