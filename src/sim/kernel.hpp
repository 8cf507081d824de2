/**
 * @file
 * Discrete-event simulation kernel.
 *
 * This is ringsim's substitute for the CSIM library the paper used: a
 * deterministic event-driven kernel with integer-picosecond time.
 * Components either derive from Event and reschedule themselves (cheap,
 * no allocation per firing — used by the per-cycle ring and bus models)
 * or post one-shot lambdas for occasional actions.
 *
 * Determinism: events that fire at the same tick are processed in the
 * order they were scheduled (a monotone sequence number breaks ties),
 * so a given configuration and seed always reproduces the same run.
 *
 * The pending set is a two-tier structure tuned for the dominant
 * schedule pattern (per-cycle reschedules a few ring/bus/processor
 * periods ahead):
 *
 *  - a timing wheel of power-of-two tick buckets covering a near
 *    horizon past now(); insertion is an O(1) append, and a bucket is
 *    sorted once when the clock reaches it;
 *  - a binary heap for the rare far-future events beyond the horizon.
 *
 * One-shot callables are stored in pooled nodes with inline storage
 * (falling back to one heap allocation only for oversized captures),
 * so the steady-state hot path performs no allocation at all.
 */

#ifndef RINGSIM_SIM_KERNEL_HPP
#define RINGSIM_SIM_KERNEL_HPP

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <queue>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/units.hpp"

namespace ringsim::sim {

class Kernel;

/**
 * A reusable schedulable event. Derive and implement process().
 * An Event may be scheduled on at most one kernel at a time.
 */
class Event
{
  public:
    virtual ~Event();

    Event(const Event &) = delete;
    Event &operator=(const Event &) = delete;

    /** Invoked by the kernel when the event fires. */
    virtual void process() = 0;

    /** True while the event sits in a kernel's queue. */
    bool scheduled() const { return scheduled_; }

    /** Tick at which the event will fire (valid while scheduled). */
    Tick when() const { return when_; }

  protected:
    Event() = default;

  private:
    friend class Kernel;

    bool scheduled_ = false;
    Tick when_ = 0;
    std::uint64_t generation_ = 0;
};

/** Counters the kernel keeps about its own operation. */
struct KernelStats
{
    /** Events processed since construction. */
    Count processed = 0;

    /** One-shot callbacks among @ref processed. */
    Count oneShots = 0;

    /** Entries that took the near-horizon wheel path. */
    Count nearScheduled = 0;

    /** Entries that took the far-future heap path. */
    Count farScheduled = 0;

    /** High-water mark of simultaneously pending events. */
    Count maxPending = 0;

    /** Wall-clock seconds spent inside run(). */
    double runSeconds = 0;
};

/**
 * The event queue and simulated clock.
 */
class Kernel
{
  public:
    /** Sentinel returned when no event (or no run limit) exists. */
    static constexpr Tick kNoEvent = ~Tick(0);

    Kernel();
    ~Kernel();

    Kernel(const Kernel &) = delete;
    Kernel &operator=(const Kernel &) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** Fire time of the earliest pending event, or kNoEvent. */
    Tick nextEventTime();

    /**
     * Fire time of the earliest pending event other than @p event, or
     * kNoEvent. Used by self-rescheduling components (the ring ticker)
     * to see how far away the rest of the system is. If @p event is
     * scheduled it is briefly removed and re-added at its original
     * tick; this refreshes its tie-break order among same-tick events,
     * so callers must invoke this only from contexts where no other
     * event was scheduled since @p event was (e.g. from within the
     * event's own process()).
     */
    Tick nextEventTimeExcluding(Event &event);

    /**
     * The @c until bound of the run() currently executing, or kNoEvent
     * outside run() / when run() was called without a bound.
     */
    Tick runLimit() const { return runUntil_; }

    /**
     * Schedule a reusable event at absolute time @p when (>= now).
     * The event must not already be scheduled.
     */
    void schedule(Event &event, Tick when);

    /** Post a one-shot callable at absolute time @p when (>= now). */
    template <typename F>
    void post(Tick when, F fn) {
        static_assert(std::is_invocable_v<F &>,
                      "one-shot callables take no arguments");
        OneShot &shot = acquireShot();
        if constexpr (sizeof(F) <= kShotInlineBytes &&
                      alignof(F) <= alignof(std::max_align_t)) {
            ::new (static_cast<void *>(shot.storage)) F(std::move(fn));
            shot.invoke = [](OneShot &s, Kernel &k) {
                F *f = std::launder(
                    reinterpret_cast<F *>(s.storage));
                (*f)();
                f->~F();
                k.releaseShot(s);
            };
            shot.destroy = [](OneShot &s) {
                std::launder(reinterpret_cast<F *>(s.storage))->~F();
            };
        } else {
            // Oversized capture: one heap allocation, pointer inline.
            F *heap = new F(std::move(fn));
            ::new (static_cast<void *>(shot.storage)) (F *)(heap);
            shot.invoke = [](OneShot &s, Kernel &k) {
                F *f = *std::launder(
                    reinterpret_cast<F **>(s.storage));
                (*f)();
                delete f;
                k.releaseShot(s);
            };
            shot.destroy = [](OneShot &s) {
                delete *std::launder(
                    reinterpret_cast<F **>(s.storage));
            };
        }
        postShot(when, shot);
    }

    /** Post a one-shot callable @p delta ticks from now. */
    template <typename F>
    void postIn(Tick delta, F fn) {
        post(now_ + delta, std::move(fn));
    }

    /** Remove a scheduled event from the queue. */
    void deschedule(Event &event);

    /**
     * Run until the queue drains, @p until is reached, or stop() is
     * called. Events scheduled exactly at @p until still fire.
     *
     * @return the number of events processed.
     */
    Count run(Tick until = ~Tick(0));

    /** Process exactly one event. @return false if the queue is empty. */
    bool runOne();

    /**
     * If @p event's pending firing is the globally next entry the run
     * loop would fire — earliest (when, seq), within the current
     * run() bound, with no stop() requested — consume it: remove it
     * from the queue, advance now() to its tick, and count it as
     * processed, WITHOUT invoking process(). Returns true on
     * consumption; the caller (the event's own process(), such as the
     * ring's batched ticker) then performs the firing's work itself.
     *
     * This is the saturated-path counterpart of Ticker::fastForward:
     * a self-rescheduling component that just ran can keep running
     * back-to-back firings in one kernel dispatch, with an event
     * stream byte-identical to the one-dispatch-per-firing execution
     * (the entry consumed is exactly the one the run loop's peek
     * would have chosen; seq assignment is unchanged because the
     * reschedule already happened). Only legal from within run().
     */
    bool consumeIfNext(Event &event) {
        if (phantom_ == &event && live_ == 1 && consumeOk_ &&
            event.when_ <= runUntil_) {
            // The phantom is the only pending entry: trivially next,
            // and it never touched the wheel — consume is a few
            // writes. (scheduled_ holds by the phantom invariant.)
            phantom_ = nullptr;
            event.scheduled_ = false;
            --live_;
            now_ = event.when_;
            ++stats_.processed;
            return true;
        }
        return consumeIfNextSlow(event);
    }

    /**
     * Schedule @p event exactly like schedule(), but — when the firing
     * lands in the near wheel — keep it as a *phantom*: every
     * observable effect (scheduled(), when(), pending(), sequence
     * assignment, statistics) is as if the entry were enqueued, yet
     * the wheel itself is untouched. The entry is materialized into
     * the wheel on demand the moment anything inspects the queue, so
     * no other kernel API can tell the difference. The payoff: a
     * consumeIfNext() of the same event while it is still the only
     * pending one collapses the schedule/consume round-trip to a few
     * flag writes — the batched ring ticker's per-cycle kernel cost.
     * At most one phantom exists; scheduling a second materializes
     * the first. Far-horizon times fall back to a plain schedule().
     *
     * Inline: together with the consumeIfNext() fast path this is the
     * entire per-cycle kernel cost of a batched ticker, so both
     * common paths live in the header.
     */
    void phantomSchedule(Event &event, Tick when) {
        if (event.scheduled_ || when < now_ || phantom_ ||
            bucketIndex(when) >= bucketIndex(now_) + kWheelBuckets) {
            phantomScheduleSlow(event, when);
            return;
        }
        event.scheduled_ = true;
        event.when_ = when;
        ++event.generation_;
        phantomSeq_ = nextSeq_++;
        phantom_ = &event;
        ++live_;
        // Branch form: on the steady cycle loop live_ never exceeds
        // the recorded peak, so this predicts untaken and skips the
        // store a std::max would make unconditionally.
        if (live_ > stats_.maxPending)
            stats_.maxPending = live_;
        ++stats_.nearScheduled;
    }

    /** Ask run() to return after the current event completes. */
    void stop()
    {
        stopping_ = true;
        consumeOk_ = false;
    }

    /** True if no events are pending. */
    bool empty() const { return live_ == 0; }

    /** Events currently pending. */
    Count pending() const { return live_; }

    /** Total events processed since construction. */
    Count processed() const { return stats_.processed; }

    /** Operation counters (throughput, queue depth, tier usage). */
    const KernelStats &stats() const { return stats_; }

  private:
    /** Near-horizon wheel geometry: 512 buckets of 2048 ticks each
     *  (~1 µs horizon) — several ring, bus and processor periods. */
    static constexpr unsigned kBucketBits = 11;
    static constexpr std::size_t kWheelBuckets = 512;
    static constexpr std::size_t kWheelMask = kWheelBuckets - 1;

    /** Inline payload bytes of a pooled one-shot node. */
    static constexpr std::size_t kShotInlineBytes = 48;

    struct OneShot
    {
        OneShot *next = nullptr;
        /** Move the payload out, destroy it, recycle the node, run. */
        void (*invoke)(OneShot &, Kernel &) = nullptr;
        /** Destroy the payload without running it (kernel teardown). */
        void (*destroy)(OneShot &) = nullptr;
        alignas(std::max_align_t) unsigned char storage[kShotInlineBytes];
    };

    /** A pending firing: either a reusable Event or a one-shot. */
    struct Entry
    {
        Tick when;
        std::uint64_t seq;
        Event *event;          // null for one-shots
        std::uint64_t generation;
        OneShot *shot;         // null for reusable events

        bool operator>(const Entry &other) const {
            if (when != other.when)
                return when > other.when;
            return seq > other.seq;
        }
    };

    struct Bucket
    {
        std::vector<Entry> entries;
        std::size_t head = 0;   // consumed prefix while active
        bool sorted = false;
    };

    /** Where peekNext() found the next firing. */
    struct NextRef
    {
        const Entry *entry = nullptr;
        Bucket *bucket = nullptr;   // null → far heap top
    };

    static std::uint64_t bucketIndex(Tick when) {
        return when >> kBucketBits;
    }

    /** True if the entry was invalidated by deschedule()/reschedule. */
    static bool stale(const Entry &e) {
        return e.event &&
               (!e.event->scheduled_ ||
                e.event->generation_ != e.generation);
    }

    void enqueue(Entry entry);
    /** Wheel insertion alone (no live_/stats accounting). */
    void insertNear(Entry entry);
    /** Move the pending phantom (if any) into the wheel. */
    void materializePhantom();
    /** phantomSchedule() off the common path (panics, existing
     *  phantom, far horizon). */
    void phantomScheduleSlow(Event &event, Tick when);
    /** consumeIfNext() off the common path (wheel entries present). */
    bool consumeIfNextSlow(Event &event);
    void postShot(Tick when, OneShot &shot);

    /** Next live near-tier entry (purging stale ones), or null. */
    NextRef peekNear();

    /** Next live entry across both tiers, or {null,null}. */
    NextRef peekNext();

    /** Remove @p next from its tier, advance now(), count it. */
    Entry popEntry(const NextRef &next);

    /** Remove @p next from its tier and fire it. */
    void fire(const NextRef &next);

    OneShot &acquireShot();
    void releaseShot(OneShot &shot);

    std::array<Bucket, kWheelBuckets> wheel_;
    std::size_t nearSize_ = 0;      // physical wheel entries (incl. stale)
    std::uint64_t hintBucket_ = 0;  // no wheel entry below this index
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> far_;

    /** Self-scheduled event not yet inserted into the wheel (it is
     *  counted in live_ and stats; phantomSeq_ holds its tie-break
     *  sequence number for when it must be materialized). */
    Event *phantom_ = nullptr;
    std::uint64_t phantomSeq_ = 0;

    Tick now_ = 0;
    Tick runUntil_ = kNoEvent;
    std::uint64_t nextSeq_ = 0;
    Count live_ = 0;
    bool stopping_ = false;
    bool inRun_ = false;   // consumeIfNext is only legal inside run()
    /** == inRun_ && !stopping_, kept current where either changes:
     *  one load on the per-cycle self-consume path. */
    bool consumeOk_ = false;
    KernelStats stats_;

    OneShot *freeShots_ = nullptr;
    std::vector<std::unique_ptr<OneShot[]>> shotBlocks_;
};

/**
 * Calls a handler every @p period ticks, starting at @p start.
 * The cycle-level ring and bus models are built on this.
 */
class Ticker : public Event
{
  public:
    /**
     * @param kernel kernel to run on.
     * @param period distance between firings, in ticks (> 0).
     * @param handler called once per firing with the current cycle
     *        index (0, 1, 2, ...).
     */
    Ticker(Kernel &kernel, Tick period,
           std::function<void(Count cycle)> handler);

    /**
     * For subclasses that override process() to call their target
     * directly instead of through the std::function (one indirect
     * call per cycle matters at ring rates); handler_ stays empty.
     * An override must reschedule before running its cycle, as
     * Ticker::process does, so the cycle may stop() or fastForward()
     * the ticker; it may run back-to-back cycles in one dispatch via
     * Kernel::phantomSchedule and Kernel::consumeIfNext (the ring's
     * TickEvent does).
     */
    Ticker(Kernel &kernel, Tick period);

    /** Begin ticking; first firing at absolute time @p start. */
    void start(Tick start_at);

    /** Stop ticking (idempotent). */
    void stop();

    /**
     * Skip the next @p skip firings in O(1): the pending firing moves
     * @p skip periods later and the cycle index advances past the
     * skipped cycles, without the handler running for any of them.
     * The ticker must be running. A no-op when @p skip is zero.
     *
     * This is the quiescence primitive: a cycle-level model whose
     * skipped cycles are provably free of side effects (an empty ring
     * with no pending work) jumps over them instead of paying one
     * kernel dispatch per cycle.
     */
    void fastForward(Count skip);

    /** Ticks between firings. */
    Tick period() const { return period_; }

    /** Index of the next cycle to fire. */
    Count cycle() const { return cycle_; }

    void process() override;

  protected:
    // Protected, not private: devirtualizing subclasses (see the
    // handler-less constructor) reimplement the process() loop and
    // need the same state it uses.
    Kernel &kernel_;
    Tick period_;
    Count cycle_ = 0;
    std::function<void(Count)> handler_;
};

} // namespace ringsim::sim

#endif // RINGSIM_SIM_KERNEL_HPP
