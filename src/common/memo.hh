/**
 * @file
 * Memo: a bounded, never-blocking "build once per key, share the
 * result" map. The runtime's two caches — the JobQueue's prepared
 * circuits and the PlanCache's four artifact kinds — are each one
 * Memo.
 *
 * Each key maps to an insertion id and a shared value, null while the
 * value is being built. The first caller of an absent key inserts a
 * placeholder, builds outside the lock, and publishes the value only
 * if its own id is still stored (a clear() or an eviction in between
 * drops it). A build that throws erases the caller's own placeholder,
 * so the key is never poisoned: the next get() builds again.
 *
 * Concurrency: a caller that finds a key still being built does NOT
 * wait; it builds a private copy and returns that. Waiting could
 * deadlock: the caller may be a pool task that the builder's own
 * parallelFor help-loop nested on top of the builder's stack, so the
 * frame that must publish the value would sit underneath its waiter.
 * Builds are deterministic, so the copy equals the shared value.
 *
 * Bound: at most kMaxEntries keys, evicted first in, first out. A
 * value still held by a caller stays alive through its shared_ptr;
 * eviction drops only the memo's reference, and releases it outside
 * the lock.
 *
 * The memo keeps no statistics: get() reports whether it hit and how
 * many entries it evicted, and each caller counts what it wants to.
 */

#ifndef QRA_COMMON_MEMO_HH
#define QRA_COMMON_MEMO_HH

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

namespace qra {

template <typename T>
class Memo
{
  public:
    /**
     * Entries retained before FIFO eviction: a long-lived queue that
     * sweeps many circuits or noise points (one entry each) must not
     * grow without limit.
     */
    static constexpr std::size_t kMaxEntries = 256;

    /** What one get() found. */
    struct Lookup
    {
        std::shared_ptr<const T> value;
        /** A published value was returned (nothing was built). */
        bool hit = false;
        /** Entries this call evicted (0 or 1). */
        std::size_t evicted = 0;
    };

    /**
     * The value for @p key, calling @p build (which must return a
     * non-null pointer) when no published value exists. A throwing
     * build leaves no entry and propagates to this caller only.
     */
    template <typename Build>
    Lookup get(std::uint64_t key, Build &&build)
    {
        Lookup out;
        std::uint64_t own_id = 0; // stays 0 for a racer
        std::shared_ptr<const T> victim;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            const auto it = entries_.find(key);
            if (it != entries_.end()) {
                if (it->second.value) {
                    out.value = it->second.value;
                    out.hit = true;
                    return out;
                }
            } else {
                own_id = ++nextId_;
                entries_.emplace(key, Entry{own_id, nullptr});
                order_.emplace_back(key, own_id);
                // Every live entry has one order record, so this loop
                // ends. A record whose id no longer matches is stale
                // (failed build, cleared or re-inserted key): skip it,
                // never evict the live successor.
                while (entries_.size() > kMaxEntries) {
                    const auto [old_key, old_id] = order_.front();
                    order_.pop_front();
                    const auto old = entries_.find(old_key);
                    if (old == entries_.end() || old->second.id != old_id)
                        continue;
                    victim = std::move(old->second.value);
                    entries_.erase(old);
                    ++out.evicted;
                }
            }
        }
        victim.reset();
        // Ids start at 1, so a racer (own_id 0) matches no entry below:
        // it neither erases nor publishes.
        try {
            out.value = build();
        } catch (...) {
            std::lock_guard<std::mutex> lock(mutex_);
            const auto it = entries_.find(key);
            if (it != entries_.end() && it->second.id == own_id)
                entries_.erase(it);
            throw;
        }
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = entries_.find(key);
        if (it != entries_.end() && it->second.id == own_id)
            it->second.value = out.value;
        return out;
    }

    /** Drop every entry; builds in flight publish nothing. */
    void clear()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        entries_.clear();
        order_.clear();
    }

  private:
    struct Entry
    {
        /** Unique insertion id: only its inserter publishes or erases. */
        std::uint64_t id;
        std::shared_ptr<const T> value;
    };

    std::mutex mutex_;
    std::unordered_map<std::uint64_t, Entry> entries_;
    /** (key, id) in insertion order, for FIFO eviction. */
    std::deque<std::pair<std::uint64_t, std::uint64_t>> order_;
    std::uint64_t nextId_ = 0;
};

} // namespace qra

#endif // QRA_COMMON_MEMO_HH
