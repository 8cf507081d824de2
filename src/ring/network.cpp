#include "network.hpp"

#include <bit>

#include "cache/invariant_monitor.hpp"
#include "fault/fault.hpp"
#include "util/logging.hpp"

namespace ringsim::ring {

void
RingClient::onVisits(SlotRing &ring, const SlotVisit *begin,
                     const SlotVisit *end)
{
    for (const SlotVisit *v = begin; v != end; ++v) {
        SlotHandle handle = ring.visitHandle(*v);
        onSlot(handle);
    }
}

RingMessage
SlotHandle::remove()
{
    if (!occupied())
        panic("remove() on an empty slot");
    unsigned s = slot_;
    if (ring_.monitor_) {
        // One-traversal completion: a message inserted at absolute
        // rotation R moves one stage per rotation, so by removal it
        // has traveled rotations - R stages. Self-removal (a probe
        // returning to its source) is exactly one full loop; anything
        // longer means a destination let its message pass.
        Count traveled = ring_.rotations_ - ring_.insertedAtRot_[s];
        if (traveled > ring_.config_.totalStages()) {
            cache::Violation v;
            v.kind = cache::Violation::Kind::TraversalOverrun;
            v.block = ring_.msgs_[s].addr;
            v.node = node_;
            v.other = ring_.insertedBy_[s];
            v.txn = ring_.msgs_[s].payload;
            v.slot = static_cast<int>(s);
            v.detail = strprintf(
                "slot %u: message from node %u removed at node %u "
                "after %llu stages (one traversal is %u)",
                s, ring_.insertedBy_[s], node_,
                static_cast<unsigned long long>(traveled),
                ring_.config_.totalStages());
            ring_.monitor_->report(std::move(v));
        } else {
            ring_.monitor_->noteCheck();
        }
    }
    unsigned t = SlotRing::typeIndex(ring_.types_[s]);
    std::uint64_t bit = std::uint64_t(1) << (s & 63);
    ring_.occ_[t * ring_.words_ + (s >> 6)] &= ~bit;
    ring_.occAny_[s >> 6] &= ~bit;
    ring_.corrupt_[s >> 6] &= ~bit;
    ring_.accrueOccupancy();
    --ring_.occCnt_[t];
    --ring_.occTotal_;
    freedHere_ = true;
    ++ring_.removed_[t];
    return ring_.msgs_[s];
}

void
SlotHandle::insert(const RingMessage &msg)
{
    if (!canInsert(msg.addr))
        panic("insert() into an unavailable slot (node %u)", node_);
    unsigned s = slot_;
    unsigned t = SlotRing::typeIndex(ring_.types_[s]);
    std::uint64_t bit = std::uint64_t(1) << (s & 63);
    ring_.occ_[t * ring_.words_ + (s >> 6)] |= bit;
    ring_.occAny_[s >> 6] |= bit;
    ring_.corrupt_[s >> 6] &= ~bit;
    ring_.accrueOccupancy();
    ++ring_.occCnt_[t];
    ++ring_.occTotal_;
    ring_.msgs_[s] = msg;
    ring_.insertedAtRot_[s] = ring_.rotations_;
    ring_.insertedBy_[s] = node_;
    ++ring_.inserted_[t];
}

void
SlotRing::TickEvent::process()
{
    // Batched self-ticking with the handler call devirtualized to
    // ring_.tick(). Reschedule before the tick so it may stop() or
    // fastForward() us; the phantom variant defers the wheel
    // insertion, which the self-consume below usually makes
    // unnecessary altogether. If the firing just scheduled is the
    // globally next one the run loop would pick anyway, take it here
    // and loop, skipping a full dispatch round-trip; a stop, a
    // fast-forward or foreign work due first all leave the event
    // stream unchanged (the golden equivalence tests pin it).
    for (;;) {
        Count this_cycle = cycle_++;
        kernel_.phantomSchedule(*this, kernel_.now() + period_);
        ring_.tick(this_cycle);
        if (!kernel_.consumeIfNext(*this))
            return;
    }
}

SlotRing::SlotRing(sim::Kernel &kernel, const RingConfig &config)
    : kernel_(kernel), config_(config),
      ticker_(*this, kernel, config.clockPeriod)
{
    config_.validate();

    unsigned stages = config_.totalStages();
    unsigned frames = config_.framesOnRing();
    const FrameLayout &frame = config_.frame;

    headerSlot_.assign(stages, -1);
    types_.clear();
    for (unsigned f = 0; f < frames; ++f) {
        unsigned frame_base = f * frame.frameStages();
        for (unsigned s = 0; s < slotsPerFrame; ++s) {
            unsigned idx = static_cast<unsigned>(types_.size());
            types_.push_back(FrameLayout::slotTypeAt(s));
            headerSlot_[frame_base + frame.slotOffset(s)] =
                static_cast<int>(idx);
        }
    }
    nslots_ = static_cast<unsigned>(types_.size());
    stages_ = config_.totalStages();
    words_ = (nslots_ + 63) / 64;
    occ_.assign(std::size_t(3) * words_, 0);
    occAny_.assign(words_, 0);
    corrupt_.assign(words_, 0);
    msgs_.assign(nslots_, RingMessage{});
    insertedAtRot_.assign(nslots_, 0);
    insertedBy_.assign(nslots_, invalidNode);
    blockShift_ = frame.blockShift();

    nodePos_.assign(config_.nodes, 0);
    for (NodeId n = 0; n < config_.nodes; ++n)
        nodePos_[n] = config_.nodePosition(n);

    // Precompute the visitation schedule: for each rotation offset r,
    // the (node, slot) pairs whose header lands on a node, in the same
    // ascending-node order the reference scan dispatches. Each node
    // anchors one stage, so the table holds at most nodes entries per
    // rotation and exactly nodes * slots entries overall.
    visitHead_.assign(stages + 1, 0);
    visits_.clear();
    for (unsigned r = 0; r < stages; ++r) {
        visitHead_[r] = static_cast<std::uint32_t>(visits_.size());
        for (NodeId n = 0; n < config_.nodes; ++n) {
            unsigned off = (nodePos_[n] + stages - r) % stages;
            int slot_idx = headerSlot_[off];
            if (slot_idx < 0)
                continue;
            visits_.push_back(
                SlotVisit{n, static_cast<std::uint32_t>(slot_idx)});
        }
    }
    visitHead_[stages] = static_cast<std::uint32_t>(visits_.size());

    // Per-rotation gather tables. The ascending-node schedule of one
    // rotation touches slot indices in a two-segment pattern: a
    // strictly ascending run of high indices (nodes whose stage sits
    // below the rotation offset — their header offset wrapped), then a
    // strictly ascending run of low indices, every high index above
    // every low one. It holds by construction (node positions ascend
    // with node index, header slot indices with stage offset), so
    // iterating occupancy bits ascending within hi then lo reproduces
    // node order and the gather can be word-granular. A geometry that
    // broke the shape would silently reorder dispatch, so it panics.
    rotMaskHi_.assign(std::size_t(stages) * words_, 0);
    rotMaskLo_.assign(std::size_t(stages) * words_, 0);
    visitNode_.assign(std::size_t(stages) * nslots_, invalidNode);
    for (unsigned r = 0; r < stages; ++r) {
        std::uint32_t head = visitHead_[r];
        std::uint32_t tail = visitHead_[r + 1];
        NodeId *vn = visitNode_.data() + std::size_t(r) * nslots_;
        std::uint64_t *hi = rotMaskHi_.data() + std::size_t(r) * words_;
        std::uint64_t *lo = rotMaskLo_.data() + std::size_t(r) * words_;
        std::uint32_t split = head + 1;
        while (split < tail &&
               visits_[split].slot > visits_[split - 1].slot)
            ++split;
        for (std::uint32_t i = head; i < tail; ++i) {
            unsigned slot = visits_[i].slot;
            if (i >= split && ((i > split && slot <= visits_[i - 1].slot) ||
                               slot >= visits_[head].slot))
                panic("SlotRing: rotation %u breaks the two-segment "
                      "visit order (nodes %u, minStagesPerNode %u, "
                      "linkBits %u, blockBytes %zu)",
                      r, config_.nodes, config_.minStagesPerNode,
                      frame.linkBits, frame.blockBytes);
            vn[slot] = visits_[i].node;
            (i < split ? hi : lo)[slot >> 6] |= std::uint64_t(1)
                                                << (slot & 63);
        }
    }

    // Scratch for one rotation's gathered visits. Sized once — a
    // rotation visits at most one slot per node — and filled through
    // raw pointers, so the gather loop carries no size/capacity
    // bookkeeping.
    batch_.assign(config_.nodes, SlotVisit{});
    pending_.assign(config_.nodes, 0);
    updateFastDispatch();
}

void
SlotRing::updateFastDispatch()
{
    fastDispatch_ = pendingCount_ == 0 && injector_ == nullptr &&
                    !config_.referenceTickPath;
}

void
SlotRing::notifyPending(NodeId n)
{
    if (n >= pending_.size())
        panic("notifyPending: node %u out of range", n);
    if (!pending_[n]) {
        pending_[n] = 1;
        ++pendingCount_;
        fastDispatch_ = false;
    }
}

void
SlotRing::clearPending(NodeId n)
{
    if (n >= pending_.size())
        panic("clearPending: node %u out of range", n);
    if (pending_[n]) {
        pending_[n] = 0;
        --pendingCount_;
        if (pendingCount_ == 0)
            updateFastDispatch();
    }
}

void
SlotRing::start(Tick start_at)
{
    if (!client_)
        panic("SlotRing started with no client");
    ticker_.start(start_at);
}

void
SlotRing::stop()
{
    ticker_.stop();
}

void
SlotRing::injectFaults(Count cycle)
{
    // Ascending slot order over occupied slots, exactly as the AoS
    // scan did — the injector's seeded schedule is a function of
    // (cycle, slot), so enumeration order is part of the contract.
    for (unsigned w = 0; w < words_; ++w) {
        std::uint64_t m = occAny_[w];
        while (m) {
            unsigned s =
                w * 64 + static_cast<unsigned>(std::countr_zero(m));
            m &= m - 1;
            if (injector_->dropAt(cycle, s)) {
                // Latch upset: the message vanishes; only the sender's
                // retry timeout can recover it. Not counted as removed.
                unsigned t = typeIndex(types_[s]);
                std::uint64_t bit = std::uint64_t(1) << (s & 63);
                occ_[t * words_ + w] &= ~bit;
                occAny_[w] &= ~bit;
                corrupt_[w] &= ~bit;
                accrueOccupancy();
                --occCnt_[t];
                --occTotal_;
            } else if (!bitTest(corrupt_, s) &&
                       injector_->corruptAt(cycle, s)) {
                bitSet(corrupt_, s);
            }
        }
    }
}

const SlotVisit *
SlotRing::gatherOccupied(unsigned r)
{
    // Word-granular gather: occupancy bits ascending within hi then
    // lo reproduce ascending node order (the shape the constructor
    // checked). batch_ holds config_.nodes entries — the most one
    // rotation can visit — so plain stores suffice.
    const std::uint64_t *hi = rotMaskHi_.data() + std::size_t(r) * words_;
    const std::uint64_t *lo = rotMaskLo_.data() + std::size_t(r) * words_;
    const NodeId *vn = visitNode_.data() + std::size_t(r) * nslots_;
    SlotVisit *out = batch_.data();
    for (unsigned w = 0; w < words_; ++w) {
        std::uint64_t m = occAny_[w] & hi[w];
        while (m) {
            unsigned s =
                w * 64 + static_cast<unsigned>(std::countr_zero(m));
            m &= m - 1;
            *out++ = SlotVisit{vn[s], s};
        }
    }
    for (unsigned w = 0; w < words_; ++w) {
        std::uint64_t m = occAny_[w] & lo[w];
        while (m) {
            unsigned s =
                w * 64 + static_cast<unsigned>(std::countr_zero(m));
            m &= m - 1;
            *out++ = SlotVisit{vn[s], s};
        }
    }
    return out;
}

inline void
SlotRing::tick(Count cycle)
{
    // Slot occupancy accrues into the utilization integral lazily —
    // a closed form between occupancy changes (see accrueOccupancy) —
    // so advancing time is all this cycle pays. Time passes during a
    // stall, so the integral accrues there too.
    ++cycles_;

    if (fastDispatch_) {
        // The bitmap dispatch cycle, inline in tick() so it fuses
        // with the batched process() loop: nothing pending, no
        // injector, scheduled path (see updateFastDispatch) — so only
        // occupied slots are visited, and the cycle's work reduces to
        // the incrementally maintained occupancy counters plus one
        // batched dispatch.
        unsigned occ = occTotal_;
        if (occ == 0) {
            advanceRotation();
            maybeFastForward();
            return;
        }
        const SlotVisit *begin = batch_.data();
        const SlotVisit *end;
        // Saturated shortcut: a completely full ring means the
        // precomputed span already is the batch, without touching a
        // mask word.
        if (occ == nslots_) {
            begin = visits_.data() + visitHead_[rot_];
            end = visits_.data() + visitHead_[rot_ + 1];
        } else {
            end = gatherOccupied(rot_);
        }
        if (begin != end)
            client_->onVisits(*this, begin, end);
        advanceRotation();
        return;
    }

    if (injector_) {
        if (stallRemaining_ == 0)
            stallRemaining_ = injector_->stallFor(cycle);
        if (stallRemaining_ > 0) {
            // The pipeline holds: nothing moves, nobody is visited.
            --stallRemaining_;
            return;
        }
        injectFaults(cycle);
    }

    if (config_.referenceTickPath)
        referenceTick();
    else
        batchedTick();
    advanceRotation();
}

void
SlotRing::referenceTick()
{
    unsigned stages = stages_;

    // The pattern has advanced rot_ stages, so the pattern offset now
    // at physical position p is (p - rot_) mod stages. A node sees a
    // slot when that offset is the slot's header stage. Without
    // stalls, rot_ == cycle % stages.
    for (NodeId n = 0; n < config_.nodes; ++n) {
        unsigned pos = nodePos_[n];
        unsigned off = (pos + stages - rot_) % stages;
        int slot_idx = headerSlot_[off];
        if (slot_idx < 0)
            continue;
        SlotHandle handle(*this, static_cast<unsigned>(slot_idx), n);
        client_->onSlot(handle);
    }
}

void
SlotRing::batchedTick()
{
    // Off the bitmap dispatch, some node is pending or an injector is
    // attached. Gather the rotation's live visits — occupied slots and
    // every slot at a pending node — then hand them to the client in
    // one call. Gathering before dispatch is equivalent to a lazy walk
    // because a handler may only mutate the visited slot and the
    // visited node's own pending flags (the onVisits contract), and no
    // slot or node appears twice in one rotation. A quiescent ring
    // reaches here only under an injector, which must see every cycle,
    // so it never fast-forwards.
    if (occTotal_ == 0 && pendingCount_ == 0)
        return;
    SlotVisit *out = batch_.data();
    const SlotVisit *v = visits_.data() + visitHead_[rot_];
    const SlotVisit *vend = visits_.data() + visitHead_[rot_ + 1];
    for (; v != vend; ++v) {
        if (!bitTest(occAny_, v->slot) && !pending_[v->node])
            continue;
        *out++ = *v;
    }
    if (out != batch_.data())
        client_->onVisits(*this, batch_.data(), out);
}

void
SlotRing::maybeFastForward()
{
    // Land the next real tick on the last grid point strictly before
    // the earliest foreign event (or on the last one not beyond the
    // run bound when the queue is otherwise empty). Ticker::process
    // assigned the pending firing's sequence number before this
    // handler ran and the quiescent path schedules nothing, so sliding
    // that firing forward keeps every (when, seq) ordering against the
    // rest of the system exactly as the cycle-by-cycle path would —
    // the event streams, and therefore the statistics, are identical.
    Tick horizon = kernel_.nextEventTimeExcluding(ticker_);
    Tick bound;
    if (horizon != sim::Kernel::kNoEvent) {
        bound = horizon;
    } else {
        Tick limit = kernel_.runLimit();
        if (limit == sim::Kernel::kNoEvent)
            return;
        // Events scheduled exactly at the bound still fire.
        bound = limit + 1;
    }
    Tick pend = ticker_.when();
    if (bound <= pend)
        return;
    Count skip =
        static_cast<Count>((bound - 1 - pend) / config_.clockPeriod);
    if (skip == 0)
        return;
    ticker_.fastForward(skip);
    // Account for the skipped cycles as the idle ticks they replace.
    // The occupancy integrals gain nothing: every count is zero.
    cycles_ += skip;
    rotations_ += skip;
    rot_ = static_cast<unsigned>((rot_ + skip) % config_.totalStages());
}

Count
SlotRing::inserted(SlotType t) const
{
    return inserted_[typeIndex(t)];
}

Count
SlotRing::removed(SlotType t) const
{
    return removed_[typeIndex(t)];
}

double
SlotRing::occupancy(SlotType t) const
{
    if (cycles_ == 0)
        return 0.0;
    unsigned slots_of_type = config_.slotsOfType(t);
    return static_cast<double>(accruedIntegral(typeIndex(t))) /
           (static_cast<double>(cycles_) * slots_of_type);
}

double
SlotRing::totalOccupancy() const
{
    if (cycles_ == 0)
        return 0.0;
    std::uint64_t integral = accruedIntegral(0) + accruedIntegral(1) +
                             accruedIntegral(2);
    return static_cast<double>(integral) /
           (static_cast<double>(cycles_) * config_.totalSlots());
}

void
SlotRing::resetStats()
{
    cycles_ = 0;
    occAccruedAt_ = 0;
    for (unsigned t = 0; t < 3; ++t) {
        occupancyIntegral_[t] = 0;
        inserted_[t] = 0;
        removed_[t] = 0;
    }
}

} // namespace ringsim::ring
