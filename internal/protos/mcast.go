package protos

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/addr"
	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/msg"
)

// errRelayHeld reports that a relayed multicast was parked while its group is
// wedged by a GBCAST flush; it is re-dispatched (and acknowledged) when the
// flush completes, so no acknowledgement is sent yet.
var errRelayHeld = errors.New("protos: relay held during flush")

// fRelay marks a group multicast submitted by a non-member sender; such
// multicasts are routed to the group's coordinator site, which fans them out
// using its authoritative view (so that clients never need to track group
// membership themselves).
const fRelay = "&relay"

// Multicast sends an application message to a destination list using the
// selected primitive (Section 3.2 "bc_mcast"). The destination list may
// contain one group address and any number of process addresses. CBCAST and
// ABCAST are asynchronous: the call returns as soon as the message has been
// handed to the network. GBCAST is synchronous: it returns once the
// globally-ordered delivery has been committed at the group.
//
// Multicast takes ownership of payload: the packets it builds hold the
// message itself, not a copy, so the caller must not touch it after the call
// (the toolkit's Cast and Reply hand over a copy of their own). Every local
// delivery gets its own copy, so no handler can change what is sent or kept
// for re-dissemination.
func (d *Daemon) Multicast(sender addr.Address, proto Protocol, dests addr.List, entry addr.EntryID, payload *msg.Message) (core.MsgID, error) {
	id, _, err := d.MulticastRequest(sender, proto, dests, entry, payload)
	return id, err
}

// MulticastRequest is Multicast, additionally returning the stable GBCAST
// request id minted for the send (zero for CBCAST/ABCAST, which have no
// request id). The id is returned even when the call fails: that is
// precisely the case in which the caller needs it, to ask RequestOutcome
// what became of the timed-out request. Like Multicast, it takes ownership
// of payload.
func (d *Daemon) MulticastRequest(sender addr.Address, proto Protocol, dests addr.List, entry addr.EntryID, payload *msg.Message) (core.MsgID, int64, error) {
	if len(dests) == 0 {
		return core.MsgID{}, 0, ErrEmptyDest
	}
	if payload == nil {
		payload = msg.New()
	}
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return core.MsgID{}, 0, ErrClosed
	}
	lp, ok := d.procs[sender.Base()]
	if !ok {
		d.mu.Unlock()
		return core.MsgID{}, 0, ErrUnknownProc
	}
	if !lp.alive {
		d.mu.Unlock()
		return core.MsgID{}, 0, ErrDeadProcess
	}
	lp.nextSeq++
	id := core.MsgID{Sender: sender.Base(), Seq: lp.nextSeq}
	d.mu.Unlock()

	var group addr.Address
	var procDests addr.List
	for _, a := range dests.Dedup() {
		if a.IsGroup() {
			if !group.IsNil() {
				return core.MsgID{}, 0, fmt.Errorf("%w: at most one group destination", ErrBadProtocol)
			}
			group = a.Base()
		} else {
			procDests = append(procDests, a.Base())
		}
	}

	if group.IsNil() {
		if proto == GBCAST || proto == ABCAST {
			return core.MsgID{}, 0, fmt.Errorf("%w: %v requires a group destination", ErrBadProtocol, proto)
		}
		return id, 0, d.sendPointToPoint(sender, id, procDests, entry, payload)
	}

	if proto == GBCAST {
		if len(procDests) > 0 {
			return core.MsgID{}, 0, fmt.Errorf("%w: GBCAST cannot carry extra process destinations", ErrBadProtocol)
		}
		rid, err := d.sendUserGbcast(sender, group, entry, payload)
		return id, rid, err
	}

	if err := d.sendGroupMulticast(sender, lp, proto, group, id, entry, payload); err != nil {
		return core.MsgID{}, 0, err
	}
	if len(procDests) > 0 {
		if err := d.sendPointToPoint(sender, id, procDests, entry, payload); err != nil {
			return core.MsgID{}, 0, err
		}
	}
	return id, 0, nil
}

// sendUserGbcast routes a user-level GBCAST through the group coordinator.
// It returns the stable request id minted for the call — even on error, so
// the caller can later query the request's outcome.
func (d *Daemon) sendUserGbcast(sender, gid addr.Address, entry addr.EntryID, payload *msg.Message) (int64, error) {
	req := msg.New()
	req.PutInt(fKind, gbUser)
	req.PutAddress(fGroup, gid)
	req.PutAddress(fSender, sender.Base())
	req.PutInt(fEntry, int64(entry))
	req.PutMessage(fPayload, payload)
	_, err := d.coordinatorCall(gid, req)
	return req.GetInt(fReqID, 0), err
}

// sendPointToPoint delivers a message directly to a list of processes; the
// reply mechanism of the group RPC facility uses this path (a reply is "one
// asynchronous CBCAST" in Table 1 terms).
func (d *Daemon) sendPointToPoint(sender addr.Address, id core.MsgID, dests addr.List, entry addr.EntryID, payload *msg.Message) error {
	if len(dests) == 0 {
		return nil
	}
	pkt := msg.New()
	pkt.Grow(7)
	pkt.PutInt(fProto, int64(CBCAST))
	putMsgID(pkt, id)
	pkt.PutAddress(fSender, sender.Base())
	pkt.PutInt(fEntry, int64(entry))
	pkt.PutAddressList(fDests, dests)
	pkt.PutMessage(fPayload, payload)

	d.mu.Lock()
	d.counters.PointToPoints++
	d.mu.Unlock()

	remoteSites := make(map[addr.SiteID]bool)
	for _, a := range dests {
		if a.Site == d.site {
			continue
		}
		remoteSites[a.Site] = true
	}
	// Local destinations are delivered immediately.
	d.deliverPointToPoint(pkt)
	if len(remoteSites) == 0 {
		return nil
	}
	// Marshal once; every remote site receives the same bytes.
	raw, err := encodePacket(ptData, pkt)
	if err != nil {
		return err
	}
	for s := range remoteSites {
		if err := d.sendRaw(s, raw); err != nil {
			return err
		}
	}
	return nil
}

// deliverPointToPoint hands a direct message to its local destinations.
func (d *Daemon) deliverPointToPoint(pkt *msg.Message) {
	dests := pkt.GetAddressList(fDests)
	entry := addr.EntryID(pkt.GetInt(fEntry, 0))
	sender := pkt.GetAddress(fSender)
	payload := pkt.GetMessage(fPayload)
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, a := range dests {
		if a.Site != d.site {
			continue
		}
		lp, ok := d.procs[a.Base()]
		if !ok || !lp.alive {
			continue
		}
		m := d.buildDelivery(payload, sender, addr.Nil, 0, CBCAST)
		d.counters.Delivered++
		e := entry
		d.enqueue(lp, func() { lp.deliver(e, m) })
	}
}

// sendGroupMulticast runs the sender side of CBCAST or ABCAST for a group
// destination.
func (d *Daemon) sendGroupMulticast(sender addr.Address, lp *localProc, proto Protocol, gid addr.Address, id core.MsgID, entry addr.EntryID, payload *msg.Message) error {
	for {
		d.mu.Lock()
		gs, hosted := d.groups[gid]
		if hosted && gs.wedged {
			// A GBCAST flush is in progress: sends wait so the message is
			// unambiguously ordered after the GBCAST point.
			d.mu.Unlock()
			time.Sleep(time.Millisecond)
			continue
		}
		if !hosted {
			d.mu.Unlock()
			return d.relayExternalMulticast(sender, lp, proto, gid, id, entry, payload)
		}
		if gs.nonPrimary {
			// A minority partition is read-only: no multicast may originate
			// here until the merge protocol rejoins the primary.
			d.mu.Unlock()
			return ErrNonPrimary
		}
		ms, isMember := gs.members[sender.Base()]
		if !isMember {
			d.mu.Unlock()
			return d.relayExternalMulticast(sender, lp, proto, gid, id, entry, payload)
		}
		switch proto {
		case CBCAST:
			d.sendMemberCbcastLocked(gs, ms, sender, gid, id, entry, payload)
			d.mu.Unlock()
			return nil
		case ABCAST:
			pkt := d.buildDataPacket(ABCAST, gid, gs.view.ID, id, sender, gs.view.RankOf(sender), entry, payload)
			st := d.initiateAbcastLocked(gs, id, pkt, lp, 0)
			d.mu.Unlock()
			d.transmitAbcast(st, pkt)
			return nil
		default:
			d.mu.Unlock()
			return ErrBadProtocol
		}
	}
}

// buildDataPacket assembles the ptData wire packet body for a group
// multicast. The packet type travels in the fixed-offset envelope, not the
// body, so the body built here is destination-independent: encodePacket
// marshals it exactly once per multicast regardless of fan-out width.
func (d *Daemon) buildDataPacket(proto Protocol, gid addr.Address, viewID core.ViewID, id core.MsgID, sender addr.Address, rank int, entry addr.EntryID, payload *msg.Message) *msg.Message {
	pkt := msg.New()
	// Nine fields here, plus the vector timestamp a member CBCAST adds.
	pkt.Grow(10)
	pkt.PutInt(fProto, int64(proto))
	pkt.PutAddress(fGroup, gid)
	pkt.PutInt(fViewID, int64(viewID))
	putMsgID(pkt, id)
	pkt.PutAddress(fSender, sender.Base())
	pkt.PutInt(fRank, int64(rank))
	pkt.PutInt(fEntry, int64(entry))
	pkt.PutMessage(fPayload, payload)
	return pkt
}

// sendMemberCbcastLocked performs a CBCAST send by a group member: the
// message is stamped with the member's vector timestamp, delivered locally
// at once (the sender never waits), and shipped to every other member site.
// Caller holds d.mu; the packet transmission happens asynchronously.
func (d *Daemon) sendMemberCbcastLocked(gs *groupState, ms *memberState, sender, gid addr.Address, id core.MsgID, entry addr.EntryID, payload *msg.Message) {
	vt := ms.causal.PrepareSend()
	rank := gs.view.RankOf(sender)
	pkt := d.buildDataPacket(CBCAST, gid, gs.view.ID, id, sender, rank, entry, payload)
	putVT(pkt, vt)
	d.counters.CBCASTs++
	d.recordRecentLocked(gs, id, pkt, 0)

	// Deliver to the sender itself immediately.
	d.deliverDataLocked(ms, pkt)
	// Other members at this site order it through their own causal queues.
	for a, other := range gs.members {
		if a == sender.Base() {
			continue
		}
		in := core.CausalIncoming{ID: id, SenderRank: rank, VT: vt, Payload: pkt}
		for _, out := range other.causal.Receive(in) {
			if opkt, ok := out.Payload.(*msg.Message); ok {
				d.deliverDataLocked(other, opkt)
			}
		}
	}
	// Ship one copy to every other member site, asynchronously. The packet
	// is marshalled exactly once; all destinations share the encoding.
	sites := gs.view.SitesOf()
	go func() {
		raw, err := encodePacket(ptData, pkt)
		if err != nil {
			return
		}
		d.fanoutRaw(sites, raw)
	}()
}

// relayExternalMulticast handles a group multicast whose sender is not a
// member of the group (or whose site hosts no members): the message is
// forwarded to the group's coordinator site, which fans it out using its
// authoritative view and acknowledges the relay. A refusal — the coordinator
// copy is wedged in a non-primary partition, or the addressed site no longer
// hosts the group — travels back as the sentinel error instead of being
// silently dropped; a stale cached view is refreshed and the relay retried
// once. FIFO order per sender is preserved by a per-sender sequence number
// assigned here.
func (d *Daemon) relayExternalMulticast(sender addr.Address, lp *localProc, proto Protocol, gid addr.Address, id core.MsgID, entry addr.EntryID, payload *msg.Message) error {
	// View resolution happens before any FIFO sequence is consumed: it is
	// the step most likely to fail (remote lookup of an unknown or
	// unreachable group), and a sequence number consumed by a failed relay
	// would leave a permanent hole that stalls every later relayed CBCAST
	// from this sender in the receivers' causal queues.
	view, ok := d.CurrentView(gid)
	if !ok {
		v, err := d.refreshView(gid)
		if err != nil {
			return err
		}
		view = v
	}
	if proto == CBCAST {
		// Serialize this sender's relays across the acknowledged exchange:
		// a refused relay's sequence number can only be rolled back while no
		// later number has been handed out.
		lp.relayMu.Lock()
		defer lp.relayMu.Unlock()
	}
	for attempt := 0; ; attempt++ {
		d.mu.Lock()
		coord := d.actingCoordinator(view)
		d.mu.Unlock()
		if coord.IsNil() {
			return ErrGroupVanished
		}

		pkt := d.buildDataPacket(proto, gid, view.ID, id, sender, -1, entry, payload)
		pkt.PutInt(fRelay, 1)

		var err error
		if proto != CBCAST {
			// ABCAST ordering is established by the priority agreement, so it
			// never consumes a FIFO number (a gap would stall the receivers'
			// expected sequence). ABCAST relays are counted by the coordinator
			// that initiates the two-phase protocol.
			err = d.relayCall(coord.Site, pkt)
		} else {
			d.mu.Lock()
			lp.extSeq[gid]++
			extSeq := lp.extSeq[gid]
			d.counters.CBCASTs++
			d.mu.Unlock()
			pkt.PutInt(fExtSeq, int64(extSeq))
			err = d.relayCBCASTCall(coord.Site, pkt, lp, gid, extSeq)
			if err != nil && !errors.Is(err, ErrTimeout) && !errors.Is(err, errSiteFailed) {
				// An explicit refusal (or a send failure): no receiver
				// consumed the sequence, so roll the counter back. On a
				// timeout or a detector abort the relay is still queued in
				// the reliable transport and may yet be delivered, so its
				// number must stand — the call remains tracked in
				// d.lostRelays and a late refusal is reconciled there
				// (rollback, or a null filler once later numbers exist; see
				// relayrepair.go).
				d.mu.Lock()
				lp.extSeq[gid]--
				d.counters.CBCASTs--
				d.mu.Unlock()
			}
		}
		if err == nil {
			return nil
		}
		if errors.Is(err, ErrUnknownGroup) && attempt == 0 {
			// The cached view is stale: the addressed site no longer hosts
			// the group. Refresh from the sites that do and retry once.
			if v, rerr := d.refreshView(gid); rerr == nil {
				view = v
				continue
			}
		}
		return err
	}
}

// relayCall ships a relayed multicast to the coordinator site and waits for
// its acknowledgement. A remote relay parked by a flush wedge counts as
// accepted — it is re-dispatched when the flush completes and acknowledged
// then. A local relay instead waits the wedge out (mirroring the member
// send path): if the caller were told "accepted" while the packet sat in
// heldPkts and the flush then wedged the copy non-primary, the refusal
// would have nobody to report to and the consumed FIFO sequence would
// stall every later relay from this sender.
func (d *Daemon) relayCall(site addr.SiteID, pkt *msg.Message) error {
	if site == d.site {
		for {
			err := d.relayMulticast(d.site, pkt, false)
			if !errors.Is(err, errRelayHeld) {
				return err
			}
			time.Sleep(time.Millisecond)
		}
	}
	_, err := d.call(site, ptData, pkt)
	return err
}

// relayMulticast runs at the coordinator site: it fans an external sender's
// multicast out to the group using the current view. A refusal is returned
// to the caller (and, for a relay that arrived over the wire, acknowledged
// back to the sending daemon by handleData) instead of silently dropping the
// message: ErrUnknownGroup when this site does not host the group — the
// sender's cached view was stale — and ErrNonPrimary when this copy is
// stranded read-only in a minority partition and must not fan anything out
// under its stale (possibly split-brain) view. While the group is wedged by
// a flush the relay returns errRelayHeld; with park set the packet is also
// parked in heldPkts for re-dispatch after the flush (the remote-relay
// path, whose acknowledgement is deferred with it), without park the caller
// retries (the local path, which must see the post-flush outcome itself).
func (d *Daemon) relayMulticast(from addr.SiteID, pkt *msg.Message, park bool) error {
	gid := pkt.GetAddress(fGroup)
	proto := Protocol(pkt.GetInt(fProto, 0))

	d.mu.Lock()
	gs, ok := d.groups[gid.Base()]
	if !ok {
		d.mu.Unlock()
		return ErrUnknownGroup
	}
	if gs.wedged {
		if park {
			gs.heldPkts = append(gs.heldPkts, heldPacket{from, ptData, pkt})
		}
		d.mu.Unlock()
		return errRelayHeld
	}
	if gs.nonPrimary {
		d.mu.Unlock()
		return ErrNonPrimary
	}
	fanout := pkt.Clone()
	fanout.Delete(fRelay)
	fanout.Delete(fCall)
	id := getMsgID(pkt)

	switch proto {
	case CBCAST:
		d.processCbcastLocked(gs, fanout)
		sites := gs.view.SitesOf()
		d.mu.Unlock()
		if raw, err := encodePacket(ptData, fanout); err == nil {
			d.fanoutRaw(sites, raw)
		}
	case ABCAST:
		st := d.initiateAbcastLocked(gs, id, fanout, nil, 0)
		d.mu.Unlock()
		d.transmitAbcast(st, fanout)
	default:
		d.mu.Unlock()
		return ErrBadProtocol
	}
	return nil
}

// ---------------------------------------------------------------------------
// ABCAST initiator side

// initiateAbcastLocked sets up the initiator-side state for one ABCAST and
// performs the local phase-1 proposals. Caller holds d.mu and must call
// transmitAbcast afterwards. attempt is 0 for a fresh ABCAST and counts up
// when a GBCAST flush fences the message and restarts it.
func (d *Daemon) initiateAbcastLocked(gs *groupState, id core.MsgID, pkt *msg.Message, senderLP *localProc, attempt int64) *abSendState {
	maxPrio := uint64(0)
	for _, ms := range gs.members {
		if p := ms.total.Propose(id, pkt); p > maxPrio {
			maxPrio = p
		}
	}
	st := &abSendState{
		id:      id,
		group:   gs.view.Group,
		waiting: make(map[addr.SiteID]bool),
		maxPrio: maxPrio,
		packet:  pkt,
		attempt: attempt,
	}
	st.targets = append(st.targets, d.site)
	for _, s := range gs.view.SitesOf() {
		if s == d.site || d.suspected[s] {
			continue
		}
		st.waiting[s] = true
		st.targets = append(st.targets, s)
	}
	d.pendingAb[id] = st
	if senderLP != nil {
		senderLP.outstanding++
		st.sender = senderLP.addr
	}
	if attempt == 0 {
		// A fence restart re-runs the protocol for a message already counted
		// when it was first initiated.
		d.counters.ABCASTs++
	}
	return st
}

// transmitAbcast ships phase 1 to the remote member sites and completes the
// protocol immediately if there is nobody to wait for. A watchdog completes
// the protocol even if some site never answers (it will have been declared
// failed by then, or the timeout acts as a backstop).
func (d *Daemon) transmitAbcast(st *abSendState, pkt *msg.Message) {
	d.mu.Lock()
	remote := make([]addr.SiteID, 0, len(st.waiting))
	for s := range st.waiting {
		remote = append(remote, s)
	}
	ready := len(st.waiting) == 0 && !st.done
	if ready {
		st.done = true
	}
	d.mu.Unlock()

	if len(remote) > 0 {
		// Phase 1 is marshalled once and shared by every remote member site.
		if raw, err := encodePacket(ptData, pkt); err == nil {
			for _, s := range remote {
				_ = d.sendRaw(s, raw)
			}
		}
	}
	if ready {
		d.completeAbcast(st)
		return
	}
	time.AfterFunc(d.cfg.CallTimeout, func() {
		d.mu.Lock()
		if _, still := d.pendingAb[st.id]; !still || st.done {
			d.mu.Unlock()
			return
		}
		st.done = true
		d.mu.Unlock()
		d.completeAbcast(st)
	})
}

// handleAbPropose processes a phase-1 response at the initiator. Proposals
// carry the attempt number of the phase-1 packet they answer; a response to
// a previous attempt (sent before a GBCAST flush fenced and restarted the
// ABCAST) is ignored, so the final priority is always the maximum over one
// coherent proposal round.
func (d *Daemon) handleAbPropose(from addr.SiteID, p *msg.Message) {
	id := getMsgID(p)
	prio := uint64(p.GetInt(fPriority, 0))
	d.mu.Lock()
	st, ok := d.pendingAb[id]
	if !ok || p.GetInt(fAttempt, 0) != st.attempt {
		d.mu.Unlock()
		return
	}
	if prio > st.maxPrio {
		st.maxPrio = prio
	}
	delete(st.waiting, from)
	finish := len(st.waiting) == 0 && !st.done
	if finish {
		st.done = true
	}
	d.mu.Unlock()
	if finish {
		d.completeAbcast(st)
	}
}

// releaseAbSenderLocked credits the sending process's outstanding-ABCAST
// count when a protocol round ends (completed, retired by a flush, or
// dropped with its group): the Flush API blocks on this count, so every
// path that ends a round must release it exactly once. Caller holds d.mu.
func (d *Daemon) releaseAbSenderLocked(st *abSendState) {
	if st.sender.IsNil() {
		return
	}
	if lp, ok := d.procs[st.sender.Base()]; ok && lp.outstanding > 0 {
		lp.outstanding--
	}
}

// completeAbcast sends phase 2 (the final priority) to every destination
// site and applies it locally. While the local group copy is wedged by a
// GBCAST flush the completion is deferred: the flush owns the fate of every
// in-flight ABCAST (it either drives the commit itself or fences the message
// behind the new view), and a commit fanned out mid-flush would be held at
// every wedged site and then discarded, losing the message. The deferred
// retry finds the state retired (flush committed it), replaced (flush fenced
// and restarted it), or still its own, in which case it proceeds normally.
func (d *Daemon) completeAbcast(st *abSendState) {
	d.mu.Lock()
	if d.pendingAb[st.id] != st {
		// Retired by a flush's drive branch, or restarted by its fence
		// branch; either way this protocol round is over.
		d.mu.Unlock()
		return
	}
	if gs, ok := d.groups[st.group]; ok && gs.wedged && !d.closed {
		d.mu.Unlock()
		time.AfterFunc(2*time.Millisecond, func() { d.completeAbcast(st) })
		return
	}
	delete(d.pendingAb, st.id)
	final := st.maxPrio
	d.releaseAbSenderLocked(st)
	targets := append([]addr.SiteID(nil), st.targets...)
	gid := st.group
	d.mu.Unlock()

	commit := msg.New()
	commit.PutAddress(fGroup, gid)
	putMsgID(commit, st.id)
	commit.PutInt(fPriority, int64(final))
	// Phase 2 is marshalled once for all destination sites.
	if raw, err := encodePacket(ptAbCommit, commit); err == nil {
		d.fanoutRaw(targets, raw)
	}
	d.handleAbCommit(d.site, commit)
}

// handleAbCommit applies an ABCAST final priority at a destination site.
func (d *Daemon) handleAbCommit(from addr.SiteID, p *msg.Message) {
	gid := p.GetAddress(fGroup)
	id := getMsgID(p)
	final := uint64(p.GetInt(fPriority, 0))

	d.mu.Lock()
	gs, ok := d.groups[gid.Base()]
	if !ok {
		d.mu.Unlock()
		return
	}
	if gs.wedged {
		gs.heldPkts = append(gs.heldPkts, heldPacket{from, ptAbCommit, p})
		d.mu.Unlock()
		return
	}
	d.recordAbDoneLocked(id, final)
	for _, ms := range gs.members {
		d.deliverTotalLocked(gs, ms, ms.total.Commit(id, final))
	}
	d.mu.Unlock()
}

// deliverTotalLocked hands messages drained from a member's total-order
// queue to the member. A message a GBCAST flush already re-disseminated to
// the member is suppressed (the drain only advances the queue state), and a
// message sent before the member joined is skipped — its state-transfer cut
// covers it. Caller holds d.mu.
func (d *Daemon) deliverTotalLocked(gs *groupState, ms *memberState, dels []core.TotalDelivery) {
	for _, del := range dels {
		if ms.redelivered[del.ID] {
			delete(ms.redelivered, del.ID)
			continue
		}
		pkt, ok := del.Payload.(*msg.Message)
		if !ok || pkt == nil {
			continue
		}
		if pv := core.ViewID(pkt.GetInt(fViewID, 0)); pv != 0 && pv < ms.joinedView {
			continue
		}
		d.recordRecentLocked(gs, del.ID, pkt, del.Priority)
		d.deliverDataLocked(ms, pkt)
	}
}

// ---------------------------------------------------------------------------
// Straggler re-solicitation

// recordAbDoneLocked remembers the final priority of an applied ABCAST
// commit (bounded memory), so this site can answer a re-solicitation for it
// even after the initiator is gone. Caller holds d.mu.
func (d *Daemon) recordAbDoneLocked(id core.MsgID, final uint64) {
	d.abDone.add(id, final, abDoneLimit)
}

// handleAbResolicit answers a member site stuck behind an uncommitted
// straggler at the head of its total-order queue: if this site has applied
// the commit (or completed the protocol as its initiator), it re-sends the
// commit record. While the protocol is genuinely still in progress the
// request is ignored — the commit will arrive on its own — and an unknown id
// is left for the next GBCAST flush to resolve.
func (d *Daemon) handleAbResolicit(from addr.SiteID, p *msg.Message) {
	gid := p.GetAddress(fGroup)
	id := getMsgID(p)
	d.mu.Lock()
	final, done := d.abDone.get(id)
	d.mu.Unlock()
	if !done {
		return
	}
	commit := msg.New()
	commit.PutAddress(fGroup, gid.Base())
	putMsgID(commit, id)
	commit.PutInt(fPriority, int64(final))
	_ = d.sendPacket(from, ptAbCommit, commit)
}

// runResolicitScan periodically checks every local member's total-order
// queue for a straggler: an uncommitted message that has blocked the head of
// the queue (and therefore every later committed delivery) for longer than
// ResolicitAfter. For each straggler it re-solicits the commit record —
// from the initiator's site first, rotating to the other member sites if the
// initiator does not answer — so a slow or lost proposal round no longer
// stalls the member until the next flush.
func (d *Daemon) runResolicitScan() {
	defer d.wg.Done()
	interval := d.cfg.ResolicitAfter / 4
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	if interval > 250*time.Millisecond {
		interval = 250 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-d.stopScan:
			return
		case <-t.C:
			d.resolicitStragglers()
			d.kickRelayRepair()
			d.kickMergeRetry()
		}
	}
}

// resolicitStragglers performs one scan round of runResolicitScan.
func (d *Daemon) resolicitStragglers() {
	type ask struct {
		to  addr.SiteID
		gid addr.Address
		id  core.MsgID
	}
	var asks []ask
	var selfFix []*msg.Message
	now := time.Now()
	d.mu.Lock()
	for gid, gs := range d.groups {
		if gs.wedged || gs.nonPrimary {
			continue
		}
		for _, ms := range gs.members {
			id, payload, blocked := ms.total.HeadBlocked()
			if !blocked {
				ms.blockedID = core.MsgID{}
				continue
			}
			if id != ms.blockedID {
				ms.blockedID = id
				ms.blockedSince = now
				ms.resolicits = 0
				continue
			}
			if now.Sub(ms.blockedSince) < d.cfg.ResolicitAfter {
				continue
			}
			ms.blockedSince = now // rate-limit: one solicitation per period
			if final, ok := d.abDone.get(id); ok {
				// Another local member (or a past commit within the bounded
				// record) already knows the outcome: apply it directly.
				commit := msg.New()
				commit.PutAddress(fGroup, gid)
				putMsgID(commit, id)
				commit.PutInt(fPriority, int64(final))
				selfFix = append(selfFix, commit)
				continue
			}
			to := d.resolicitTargetLocked(gs, payload, ms.resolicits)
			ms.resolicits++
			if to != 0 {
				asks = append(asks, ask{to, gid, id})
			}
		}
	}
	d.mu.Unlock()
	for _, c := range selfFix {
		d.handleAbCommit(d.site, c)
	}
	for _, a := range asks {
		d.bus.Publish(events.Event{Kind: events.AbcastResolicit, Group: a.gid, Peer: a.to, Msg: a.id})
		req := msg.New()
		req.PutAddress(fGroup, a.gid)
		putMsgID(req, a.id)
		_ = d.sendPacket(a.to, ptAbResolicit, req)
	}
}

// resolicitTargetLocked picks the site to ask about a straggler: the sender's
// site first (for a member ABCAST that is the initiator), then the group's
// other member sites in view order — any site that applied the commit can
// answer from its record, which is what lets a receiver route around a
// paused or dead initiator link. Suspected sites are skipped. Caller holds
// d.mu.
func (d *Daemon) resolicitTargetLocked(gs *groupState, payload any, attempt int) addr.SiteID {
	seen := map[addr.SiteID]bool{d.site: true}
	var cands []addr.SiteID
	if pkt, ok := payload.(*msg.Message); ok && pkt != nil {
		if s := pkt.GetAddress(fSender); !s.IsNil() && s.Site != d.site {
			seen[s.Site] = true
			cands = append(cands, s.Site)
		}
	}
	for _, s := range gs.view.SitesOf() {
		if !seen[s] {
			seen[s] = true
			cands = append(cands, s)
		}
	}
	var live []addr.SiteID
	for _, s := range cands {
		if !d.suspected[s] {
			live = append(live, s)
		}
	}
	if len(live) == 0 {
		return 0
	}
	return live[attempt%len(live)]
}

// ---------------------------------------------------------------------------
// Receive path

// handleData processes an incoming ptData packet: a point-to-point message,
// a relayed external multicast, a CBCAST, or ABCAST phase 1.
func (d *Daemon) handleData(from addr.SiteID, pkt *msg.Message) {
	gid := pkt.GetAddress(fGroup)
	if gid.IsNil() {
		d.deliverPointToPoint(pkt)
		return
	}
	if pkt.GetInt(fRelay, 0) == 1 {
		err := d.relayMulticast(from, pkt, true)
		if callID := pkt.GetInt(fCall, 0); callID != 0 && !errors.Is(err, errRelayHeld) {
			// Acknowledge the relay so the sender's daemon learns its fate;
			// a held relay is acknowledged when the flush re-dispatches it.
			if err != nil {
				d.replyError(from, callID, err.Error())
			} else {
				ack := msg.New()
				ack.PutInt(fCall, callID)
				_ = d.sendPacket(from, ptRelayAck, ack)
			}
		}
		return
	}
	proto := Protocol(pkt.GetInt(fProto, 0))
	sender := pkt.GetAddress(fSender)

	d.mu.Lock()
	gs, ok := d.groups[gid.Base()]
	if !ok {
		d.mu.Unlock()
		return
	}
	if d.failedProcs[sender.Base()] {
		// A failure that has already been observed: messages from the
		// failed process must never be delivered afterwards (Section 2.2).
		d.mu.Unlock()
		return
	}
	if gs.wedged {
		gs.heldPkts = append(gs.heldPkts, heldPacket{from, ptData, pkt})
		d.mu.Unlock()
		return
	}
	switch proto {
	case CBCAST:
		d.processCbcastLocked(gs, pkt)
		d.mu.Unlock()
	case ABCAST:
		id := getMsgID(pkt)
		maxPrio := uint64(0)
		for _, ms := range gs.members {
			if p := ms.total.Propose(id, pkt); p > maxPrio {
				maxPrio = p
			}
		}
		d.mu.Unlock()
		resp := msg.New()
		resp.PutAddress(fGroup, gid)
		putMsgID(resp, id)
		resp.PutInt(fPriority, int64(maxPrio))
		if att := pkt.GetInt(fAttempt, 0); att != 0 {
			resp.PutInt(fAttempt, att)
		}
		_ = d.sendPacket(from, ptAbPropose, resp)
	default:
		d.mu.Unlock()
	}
}

// processCbcastLocked feeds a CBCAST into every local member's causal queue
// and delivers whatever becomes deliverable. Caller holds d.mu.
func (d *Daemon) processCbcastLocked(gs *groupState, pkt *msg.Message) {
	id := getMsgID(pkt)
	rank := int(pkt.GetInt(fRank, -1))
	for _, ms := range gs.members {
		var in core.CausalIncoming
		if rank >= 0 {
			in = core.CausalIncoming{ID: id, SenderRank: rank, VT: getVT(pkt), Payload: pkt}
		} else {
			in = core.CausalIncoming{ID: id, SenderRank: -1, Seq: uint64(pkt.GetInt(fExtSeq, 0)), Payload: pkt}
		}
		for _, out := range ms.causal.Receive(in) {
			if ms.redelivered[out.ID] {
				// Already delivered to this member by a GBCAST flush
				// re-dissemination; the causal clock has been advanced by
				// Receive, so just suppress the duplicate callback.
				delete(ms.redelivered, out.ID)
				continue
			}
			if opkt, ok := out.Payload.(*msg.Message); ok {
				d.recordRecentLocked(gs, out.ID, opkt, 0)
				d.deliverDataLocked(ms, opkt)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Delivery helpers

// buildDelivery constructs the application-visible message: the payload plus
// the toolkit system fields. Clone leaves room for the four system fields,
// so the copy is the only allocation of the field storage.
func (d *Daemon) buildDelivery(payload *msg.Message, sender, group addr.Address, viewID core.ViewID, proto Protocol) *msg.Message {
	m := payload.Clone()
	m.PutAddress(msg.FSender, sender.Base())
	if !group.IsNil() {
		m.PutAddress(msg.FGroup, group)
		m.PutInt(msg.FViewID, int64(viewID))
	}
	m.PutInt(msg.FProtocol, int64(proto))
	return m
}

// deliverDataLocked delivers a group data packet to one local member. Caller
// holds d.mu. A null hole-filler (fNull) consumes its place in the ordering
// queues — that is its entire job — but is never handed to the application.
func (d *Daemon) deliverDataLocked(ms *memberState, pkt *msg.Message) {
	if pkt.GetInt(fNull, 0) == 1 {
		return
	}
	entry := addr.EntryID(pkt.GetInt(fEntry, 0))
	payload := pkt.GetMessage(fPayload)
	if payload == nil {
		payload = msg.New()
	}
	sender := pkt.GetAddress(fSender)
	gid := pkt.GetAddress(fGroup)
	proto := Protocol(pkt.GetInt(fProto, 0))
	viewID := core.ViewID(pkt.GetInt(fViewID, 0))
	m := d.buildDelivery(payload, sender, gid, viewID, proto)
	d.counters.Delivered++
	lp := ms.proc
	d.enqueueMember(ms, func() { lp.deliver(entry, m) })
}

// deliverPayloadLocked delivers an application payload (used by user-level
// GBCASTs) to one local member. Caller holds d.mu.
func (d *Daemon) deliverPayloadLocked(gs *groupState, ms *memberState, sender addr.Address, proto Protocol, entry addr.EntryID, payload *msg.Message) {
	m := d.buildDelivery(payload, sender, gs.view.Group, gs.view.ID, proto)
	d.counters.Delivered++
	lp := ms.proc
	d.enqueueMember(ms, func() { lp.deliver(entry, m) })
}

// enqueueMember schedules a delivery for a member, holding it if the member
// is still waiting for its state transfer. Caller holds d.mu.
func (d *Daemon) enqueueMember(ms *memberState, fn func()) {
	if ms.awaitingState {
		ms.held = append(ms.held, fn)
		return
	}
	d.enqueue(ms.proc, fn)
}

// recordRecentLocked remembers a delivered data packet so a GBCAST flush can
// re-disseminate it to members that missed it. For an ABCAST, prio is the
// final priority it was delivered at (0 for CBCAST and point-to-point).
// Caller holds d.mu.
func (d *Daemon) recordRecentLocked(gs *groupState, id core.MsgID, pkt *msg.Message, prio uint64) {
	gs.recent.add(id, recentEntry{pkt: pkt, prio: prio}, recentLimit)
}

// Flush blocks until the sender's outstanding asynchronous multicasts have
// been transmitted and committed (Section 3.2, footnote 3: flush is invoked
// before interacting with the external world or writing stable storage).
func (d *Daemon) Flush(sender addr.Address) error {
	deadline := time.Now().Add(d.cfg.CallTimeout)
	for {
		d.mu.Lock()
		lp, ok := d.procs[sender.Base()]
		outstanding := 0
		if ok {
			outstanding = lp.outstanding
		}
		closed := d.closed
		d.mu.Unlock()
		if !ok {
			return ErrUnknownProc
		}
		if closed {
			return ErrClosed
		}
		if outstanding == 0 && d.tr.Unacked() == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return ErrTimeout
		}
		time.Sleep(time.Millisecond)
	}
}
