/**
 * @file
 * CancelToken: cooperative cancellation + deadlines for runtime jobs.
 *
 * A token is a value-type handle onto shared atomic state: every copy
 * observes (and may trigger) the same cancellation, so a caller keeps
 * one copy, hands another to the Job, and calls cancel() whenever it
 * wants the runtime to wind the job down. The engine polls the token
 * at shard starts and wave boundaries — cancellation is cooperative
 * and shard-granular, never preemptive: shards already running finish,
 * shards not yet started are skipped (unless the job has a checkpoint
 * sink, whose in-flight wave always completes), later waves never
 * launch, and the delivered Result is the merge of exactly the shards
 * that completed. It is stamped cancelled() whenever the poll at the
 * final wave boundary finds the token fired — also when the cancel
 * arrived too late to skip anything, so shots() <= shotsRequested(),
 * with equality when every shard had started.
 *
 * Deadlines ride the same state: the engine arms the token with a
 * monotonic-clock expiry at dispatch (Job::deadlineMs), and poll()
 * latches the token to CancelReason::Deadline the first time the
 * clock passes it — after which the clock is never read again and
 * every copy observes the same cancelled state.
 */

#ifndef QRA_RUNTIME_CANCEL_HH
#define QRA_RUNTIME_CANCEL_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>

namespace qra {
namespace runtime {

/** Why a job was cancelled. */
enum class CancelReason : int
{
    None = 0,
    /** An explicit CancelToken::cancel() call. */
    User = 1,
    /** The job's deadline passed (Job::deadlineMs). */
    Deadline = 2,
};

/** Stable lowercase name: "none", "user", "deadline". */
const char *cancelReasonName(CancelReason reason);

/**
 * Shared-state cancellation handle (see file comment). Methods are
 * const because copies alias one state — like shared_ptr, the handle
 * is immutable while the state it points at is not. All state
 * accesses are atomic; tokens may be polled and cancelled from any
 * thread concurrently.
 */
class CancelToken
{
  public:
    using Clock = std::chrono::steady_clock;

    /** A fresh, unarmed, uncancelled token. */
    CancelToken() : state_(std::make_shared<State>()) {}

    /**
     * Latch the token cancelled. Idempotent; the first reason wins
     * (a user cancel racing a deadline keeps whichever latched
     * first).
     */
    void cancel(CancelReason reason = CancelReason::User) const;

    /** True once cancel() latched (flag read only, no clock read). */
    bool cancelled() const
    {
        return state_->reason.load(std::memory_order_acquire) !=
               static_cast<int>(CancelReason::None);
    }

    /** The latched reason (None while not cancelled). */
    CancelReason reason() const
    {
        return static_cast<CancelReason>(
            state_->reason.load(std::memory_order_acquire));
    }

    /**
     * Arm (or re-arm) the deadline; poll() latches the token to
     * CancelReason::Deadline once the monotonic clock passes it.
     */
    void armDeadline(Clock::time_point deadline) const;

    /** True when armDeadline was called. */
    bool deadlineArmed() const
    {
        return state_->hasDeadline.load(std::memory_order_acquire);
    }

    /**
     * The poll the engine runs at shard starts and wave boundaries:
     * cancelled(), plus the deadline check (latching Deadline on
     * expiry). One relaxed load when unarmed and not cancelled.
     */
    bool poll() const;

  private:
    struct State
    {
        std::atomic<int> reason{static_cast<int>(CancelReason::None)};
        std::atomic<bool> hasDeadline{false};
        /** Expiry as steady-clock ns-since-epoch (atomic: no torn
            reads of a time_point). */
        std::atomic<std::int64_t> deadlineNs{0};
    };

    std::shared_ptr<State> state_;
};

} // namespace runtime
} // namespace qra

#endif // QRA_RUNTIME_CANCEL_HH
