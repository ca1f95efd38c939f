#include "obs/trace.hh"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "common/logging.hh"

namespace qra {
namespace obs {

namespace {

std::uint64_t
nextTracerId()
{
    static std::atomic<std::uint64_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
}

std::uint32_t
nextThreadNumber()
{
    static std::atomic<std::uint32_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
}

/** Stable small integer for the calling thread (Chrome "tid"). */
std::uint32_t
threadNumber()
{
    thread_local std::uint32_t number = nextThreadNumber();
    return number;
}

/** The calling thread's cached (tracer id -> ring) mapping. */
struct TlsRingRef
{
    std::uint64_t tracerId = 0;
    void *ring = nullptr;
};
thread_local TlsRingRef tls_ring;

void
copyTruncated(char *dst, std::size_t cap, std::string_view src)
{
    const std::size_t n = std::min(src.size(), cap - 1);
    std::memcpy(dst, src.data(), n);
    dst[n] = '\0';
}

void
fillEvent(TraceEvent &ev, const char *cat, std::string_view name,
          TraceArgs args)
{
    copyTruncated(ev.name, TraceEvent::kNameLen, name);
    copyTruncated(ev.cat, TraceEvent::kCatLen, cat);
    ev.numArgs = 0;
    for (const TraceArg &a : args) {
        if (ev.numArgs >= 2)
            break;
        copyTruncated(ev.argKey[ev.numArgs], TraceEvent::kKeyLen,
                      a.first);
        ev.argVal[ev.numArgs] = a.second;
        ++ev.numArgs;
    }
}

void
appendArgsJson(std::ostream &os, const TraceEvent &ev)
{
    os << "\"args\":{";
    for (std::uint8_t a = 0; a < ev.numArgs; ++a) {
        if (a > 0)
            os << ",";
        os << "\"" << ev.argKey[a] << "\":" << ev.argVal[a];
    }
    os << "}";
}

} // namespace

Tracer::Tracer()
    : epoch_(Clock::now()), tracerId_(nextTracerId())
{
}

Tracer &
Tracer::global()
{
    static Tracer tracer;
    return tracer;
}

void
Tracer::setRingCapacity(std::size_t capacity)
{
    if (capacity < kMinRingCapacity)
        logWarn("Tracer::setRingCapacity(" +
                std::to_string(capacity) + ") is below the floor of " +
                std::to_string(kMinRingCapacity) +
                " events; clamping up");
    std::lock_guard<std::mutex> lock(mutex_);
    ringCapacity_ = std::max(capacity, kMinRingCapacity);
}

void
Tracer::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &ring : rings_) {
        std::lock_guard<std::mutex> ring_lock(ring->mutex);
        ring->next = 0;
        ring->size = 0;
        ring->dropped = 0;
    }
}

Tracer::Ring &
Tracer::localRing()
{
    if (tls_ring.tracerId == tracerId_)
        return *static_cast<Ring *>(tls_ring.ring);
    return localRingSlow();
}

Tracer::Ring &
Tracer::localRingSlow()
{
    std::lock_guard<std::mutex> lock(mutex_);
    Ring *&slot = ringByThread_[std::this_thread::get_id()];
    if (slot == nullptr) {
        rings_.push_back(
            std::make_unique<Ring>(ringCapacity_, threadNumber()));
        slot = rings_.back().get();
    }
    tls_ring.tracerId = tracerId_;
    tls_ring.ring = slot;
    return *slot;
}

void
Tracer::record(TraceEvent event)
{
    Ring &ring = localRing();
    std::lock_guard<std::mutex> lock(ring.mutex);
    event.tid = ring.tid;
    ring.events[ring.next] = event;
    ring.next = (ring.next + 1) % ring.events.size();
    if (ring.size < ring.events.size())
        ++ring.size;
    else
        ++ring.dropped;
}

void
Tracer::recordComplete(const char *cat, std::string_view name,
                       Clock::time_point begin, Clock::time_point end,
                       TraceArgs args)
{
    TraceEvent ev;
    fillEvent(ev, cat, name, args);
    ev.ph = 'X';
    ev.tsNs = toNs(begin);
    ev.durNs = end >= begin ? toNs(end) - ev.tsNs : 0;
    record(ev);
}

void
Tracer::recordAsyncBegin(const char *cat, std::string_view name,
                         std::uint64_t id, TraceArgs args)
{
    TraceEvent ev;
    fillEvent(ev, cat, name, args);
    ev.ph = 'b';
    ev.id = id;
    ev.tsNs = nowNs();
    record(ev);
}

void
Tracer::recordAsyncEnd(const char *cat, std::string_view name,
                       std::uint64_t id, TraceArgs args)
{
    TraceEvent ev;
    fillEvent(ev, cat, name, args);
    ev.ph = 'e';
    ev.id = id;
    ev.tsNs = nowNs();
    record(ev);
}

std::vector<TraceEvent>
Tracer::collect() const
{
    std::vector<TraceEvent> events;
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &ring : rings_) {
        std::lock_guard<std::mutex> ring_lock(ring->mutex);
        // Oldest surviving event first: when the ring wrapped, the
        // oldest entry is at `next` (about to be overwritten).
        const std::size_t start =
            ring->size < ring->events.size() ? 0 : ring->next;
        for (std::size_t i = 0; i < ring->size; ++i)
            events.push_back(
                ring->events[(start + i) % ring->events.size()]);
    }
    std::stable_sort(events.begin(), events.end(),
                     [](const TraceEvent &a, const TraceEvent &b) {
                         if (a.tsNs != b.tsNs)
                             return a.tsNs < b.tsNs;
                         if (a.tid != b.tid)
                             return a.tid < b.tid;
                         // Enclosing span before enclosed at equal ts.
                         return a.durNs > b.durNs;
                     });
    return events;
}

std::uint64_t
Tracer::dropped() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::uint64_t total = 0;
    for (const auto &ring : rings_) {
        std::lock_guard<std::mutex> ring_lock(ring->mutex);
        total += ring->dropped;
    }
    return total;
}

void
Tracer::writeChromeJson(std::ostream &os) const
{
    const std::vector<TraceEvent> events = collect();
    // Chrome trace format wants microsecond timestamps; keep three
    // decimals so nanosecond ordering survives the conversion.
    os << "{\"traceEvents\":[\n";
    for (std::size_t i = 0; i < events.size(); ++i) {
        const TraceEvent &ev = events[i];
        os << "{\"name\":\"" << ev.name << "\",\"cat\":\"" << ev.cat
           << "\",\"ph\":\"" << ev.ph << "\",\"pid\":1,\"tid\":"
           << ev.tid << ",\"ts\":" << ev.tsNs / 1000 << "."
           << (ev.tsNs % 1000) / 100 << (ev.tsNs % 100) / 10
           << ev.tsNs % 10;
        if (ev.ph == 'X')
            os << ",\"dur\":" << ev.durNs / 1000 << "."
               << (ev.durNs % 1000) / 100 << (ev.durNs % 100) / 10
               << ev.durNs % 10;
        if (ev.ph == 'b' || ev.ph == 'e')
            os << ",\"id\":" << ev.id;
        os << ",";
        appendArgsJson(os, ev);
        os << "}" << (i + 1 < events.size() ? "," : "") << "\n";
    }
    os << "]}\n";
}

std::string
Tracer::chromeJson() const
{
    std::ostringstream os;
    writeChromeJson(os);
    return os.str();
}

void
Tracer::writeJsonLines(std::ostream &os) const
{
    const std::vector<TraceEvent> events = collect();
    for (const TraceEvent &ev : events) {
        os << "{\"type\":\"" << ev.ph << "\",\"name\":\"" << ev.name
           << "\",\"cat\":\"" << ev.cat << "\",\"tid\":" << ev.tid
           << ",\"ts_ns\":" << ev.tsNs;
        if (ev.ph == 'X')
            os << ",\"dur_ns\":" << ev.durNs;
        if (ev.ph == 'b' || ev.ph == 'e')
            os << ",\"id\":" << ev.id;
        os << ",";
        appendArgsJson(os, ev);
        os << "}\n";
    }
}

Span::Span(const char *cat, std::string_view name, TraceArgs args)
{
    if (!tracingEnabled())
        return;
    active_ = true;
    fillEvent(event_, cat, name, args);
    event_.ph = 'X';
    begin_ = Tracer::Clock::now();
}

void
Span::arg(const char *key, std::uint64_t value)
{
    if (!active_)
        return;
    for (std::uint8_t a = 0; a < event_.numArgs; ++a) {
        if (std::strncmp(event_.argKey[a], key,
                         TraceEvent::kKeyLen) == 0) {
            event_.argVal[a] = value;
            return;
        }
    }
    if (event_.numArgs >= 2)
        return;
    copyTruncated(event_.argKey[event_.numArgs], TraceEvent::kKeyLen,
                  key);
    event_.argVal[event_.numArgs] = value;
    ++event_.numArgs;
}

Span::~Span()
{
    if (!active_)
        return;
    Tracer &tracer = Tracer::global();
    const Tracer::Clock::time_point end = Tracer::Clock::now();
    event_.tsNs = tracer.toNs(begin_);
    event_.durNs = tracer.toNs(end) - event_.tsNs;
    tracer.record(event_);
}

TimedSpan::TimedSpan(const char *cat, std::string_view name,
                     TraceArgs args)
{
    fillEvent(event_, cat, name, args);
    event_.ph = 'X';
    begin_ = Tracer::Clock::now();
}

void
TimedSpan::arg(const char *key, std::uint64_t value)
{
    for (std::uint8_t a = 0; a < event_.numArgs; ++a) {
        if (std::strncmp(event_.argKey[a], key,
                         TraceEvent::kKeyLen) == 0) {
            event_.argVal[a] = value;
            return;
        }
    }
    if (event_.numArgs >= 2)
        return;
    copyTruncated(event_.argKey[event_.numArgs], TraceEvent::kKeyLen,
                  key);
    event_.argVal[event_.numArgs] = value;
    ++event_.numArgs;
}

double
TimedSpan::stop()
{
    if (seconds_ >= 0.0)
        return seconds_;
    const Tracer::Clock::time_point end = Tracer::Clock::now();
    seconds_ = std::chrono::duration<double>(end - begin_).count();
    if (tracingEnabled()) {
        Tracer &tracer = Tracer::global();
        event_.tsNs = tracer.toNs(begin_);
        event_.durNs = tracer.toNs(end) - event_.tsNs;
        tracer.record(event_);
    }
    return seconds_;
}

TimedSpan::~TimedSpan()
{
    stop();
}

} // namespace obs
} // namespace qra
