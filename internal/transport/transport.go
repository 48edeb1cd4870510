package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/addr"
	"repro/internal/netback"
)

// SiteID aliases the network's site identifier.
type SiteID = addr.SiteID

// Handler receives a fully reassembled message from a peer site. Handlers
// are invoked sequentially per source site, preserving FIFO order. The
// handler owns data, but a message that arrived in one record is a slice of
// the received frame rather than a copy: keeping data keeps the whole frame
// alive. Appending to data never overwrites another message.
type Handler func(from SiteID, data []byte)

// Config holds transport parameters.
type Config struct {
	// MaxPacket is the largest backend payload; messages are fragmented so
	// that a frame holding one fragment fits within it, and queued fragments
	// are coalesced into frames up to this size. Defaults to the network's
	// MaxPacket, or 4096 when the network imposes no limit.
	MaxPacket int
	// RetransmitInterval is how often unacknowledged packets are resent.
	RetransmitInterval time.Duration
	// AckDelay is how long the receiver may wait before sending a dedicated
	// ack packet, giving reverse-direction data frames a chance to carry the
	// ack for free. Zero selects a default of 1ms; negative means ack
	// immediately (the pre-piggybacking behaviour).
	AckDelay time.Duration
	// Epoch distinguishes restarts of the same site: it seeds the high bits
	// of every outgoing stream's epoch, so peers recognise a restarted
	// site's fresh sequence numbering instead of discarding it as
	// duplicates. It must increase across restarts; the protocols daemon
	// derives it from the site incarnation. Zero selects 1.
	Epoch uint64
	// FlushDelay is how long the per-peer flusher waits after a fragment is
	// queued before building frames, to aggregate more traffic. Zero (the
	// default) flushes immediately; coalescing still happens whenever sends
	// outpace the link.
	FlushDelay time.Duration
	// DisableBatching sends one fragment per frame on the caller's
	// goroutine, with immediate dedicated acks: the unbatched baseline the
	// benchmark ablation compares against.
	DisableBatching bool
}

// DefaultConfig derives a transport configuration from a backend's
// physical profile.
func DefaultConfig(p netback.Profile) Config {
	maxPkt := p.MaxPacket
	if maxPkt <= 0 {
		maxPkt = 4096
	}
	rto := 4 * p.Delay
	if rto < 20*time.Millisecond {
		rto = 20 * time.Millisecond
	}
	return Config{MaxPacket: maxPkt, RetransmitInterval: rto}
}

// Stats counts transport-level activity.
type Stats struct {
	MessagesSent      uint64
	MessagesDelivered uint64
	FragmentsSent     uint64
	FramesSent        uint64 // simnet frames carrying data (batches count once)
	Coalesced         uint64 // fragments that shared a frame with an earlier one
	Retransmissions   uint64
	DuplicatesDropped uint64
	AcksSent          uint64 // dedicated ack frames
	AcksPiggybacked   uint64 // acks carried by data frames instead
}

// frame kinds.
const (
	kindAck      = 2 // pure cumulative ack
	kindFrame    = 3 // batch of sub-packet records with piggybacked ack
	kindFrameLow = 4 // kindFrame whose first record is the sender's lowest outstanding sequence
)

// Header sizes of the wire format above.
const (
	frameHeaderSize = 25
	subHeaderSize   = 13
	ackSize         = 17
)

const flagLastFragment = 0x01

// Errors.
var (
	ErrClosed   = errors.New("transport: closed")
	ErrTooSmall = errors.New("transport: MaxPacket too small for header")
)

// peerSend tracks the sending half of a connection to one peer site.
//
// Sequences are contiguous, so the records awaiting an ack are one slice in
// sequence order: unacked[i] holds sequence ackedUpTo+1+i. Those up to
// sentUpTo have been on the wire; the rest are queued for their first
// transmission. An ack retires a prefix, touching only the records it
// covers.
type peerSend struct {
	epoch     uint64 // stream epoch stamped on outgoing frames
	nextSeq   uint64
	ackedUpTo uint64        // highest sequence the peer has acknowledged
	sentUpTo  uint64        // highest sequence handed to a frame so far
	unacked   []outRec      // sequences ackedUpTo+1 .. nextSeq-1
	kick      chan struct{} // wakes the per-peer flusher
	started   bool          // flusher goroutine running
	frame     []byte        // the flusher's frame buffer, reused across frames
}

// outRec is one sub-packet record (header included) awaiting its ack.
type outRec struct {
	data   []byte
	sentAt time.Time // last transmission; zero while queued
}

// queued returns the records awaiting their first transmission.
func (ps *peerSend) queued() []outRec {
	return ps.unacked[ps.sentUpTo-ps.ackedUpTo:]
}

// pendingAck is the receive-side ack bookkeeping for one peer.
type peerRecv struct {
	epoch        uint64            // stream epoch of the incoming stream
	nextExpected uint64            // next in-order sequence number
	buffered     map[uint64]subRec // out-of-order records awaiting gap fill
	assembling   []byte            // fragments of the current message
	delivered    bool              // any record of this epoch delivered in order
	ackOwed      bool              // a (re-)ack must reach the peer
	ackTimerSet  bool              // a delayed pure-ack is scheduled
	ackCh        chan ackNote      // latest-wins mailbox for the ack sender
	ackStarted   bool              // ack-sender goroutine running
}

// ackNote is one epoch-qualified cumulative ack awaiting transmission.
type ackNote struct {
	epoch, cum uint64
}

type subRec struct {
	flags   byte
	payload []byte
}

// Transport is one site's reliable messaging endpoint. It is safe for
// concurrent use.
type Transport struct {
	cfg     Config
	ep      netback.Endpoint
	site    SiteID
	handler Handler

	// epochBase seeds every outgoing stream's epoch: incarnation in the
	// high 32 bits, leaving the low 32 for per-peer stream resets.
	epochBase uint64

	mu     sync.Mutex
	sends  map[SiteID]*peerSend
	recvs  map[SiteID]*peerRecv
	stats  Stats
	closed bool

	done chan struct{}
	wg   sync.WaitGroup
}

// New creates a transport bound to the given backend endpoint and starts its
// receive and retransmission loops. The handler is invoked for every
// reassembled message; it must not block indefinitely.
func New(ep netback.Endpoint, cfg Config, handler Handler) (*Transport, error) {
	if cfg.MaxPacket <= frameHeaderSize+subHeaderSize {
		return nil, fmt.Errorf("%w: MaxPacket=%d", ErrTooSmall, cfg.MaxPacket)
	}
	if cfg.RetransmitInterval <= 0 {
		cfg.RetransmitInterval = 20 * time.Millisecond
	}
	if cfg.AckDelay == 0 {
		cfg.AckDelay = time.Millisecond
	}
	if cfg.Epoch == 0 {
		cfg.Epoch = 1
	}
	t := &Transport{
		cfg:       cfg,
		ep:        ep,
		site:      ep.Site(),
		handler:   handler,
		epochBase: cfg.Epoch << 32,
		sends:     make(map[SiteID]*peerSend),
		recvs:     make(map[SiteID]*peerRecv),
		done:      make(chan struct{}),
	}
	t.wg.Add(2)
	go t.recvLoop()
	go t.retransmitLoop()
	return t, nil
}

// Site returns the local site id.
func (t *Transport) Site() SiteID { return t.site }

// Stats returns a snapshot of the transport counters.
func (t *Transport) Stats() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats
}

// Unacked returns the number of transmitted packets not yet acknowledged by
// their destinations, across all peers. The protocols process uses it to
// implement the flush primitive.
func (t *Transport) Unacked() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, ps := range t.sends {
		n += len(ps.unacked)
	}
	return n
}

// Close stops the transport's background goroutines. In-flight messages may
// be lost, exactly as when a site crashes.
func (t *Transport) Close() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.closed = true
	close(t.done)
	t.mu.Unlock()
	t.wg.Wait()
}

// Send reliably transmits data to the destination site, fragmenting as
// needed. The fragments are queued for the destination's flusher, which
// coalesces whatever has accumulated into MaxPacket-sized frames; delivery
// is asynchronous and guaranteed (unless either site crashes).
func (t *Transport) Send(to SiteID, data []byte) error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return ErrClosed
	}
	ps, ok := t.sends[to]
	if !ok {
		ps = &peerSend{epoch: t.epochBase, nextSeq: 1, kick: make(chan struct{}, 1)}
		t.sends[to] = ps
	}
	maxFrag := t.cfg.MaxPacket - frameHeaderSize - subHeaderSize
	// Build all records under the lock so their sequence numbers are
	// contiguous even with concurrent senders.
	remaining := data
	n := 0
	for first := true; first || len(remaining) > 0; first = false {
		frag := remaining
		if len(frag) > maxFrag {
			frag = frag[:maxFrag]
		}
		remaining = remaining[len(frag):]
		flags := byte(0)
		if len(remaining) == 0 {
			flags = flagLastFragment
		}
		rec := make([]byte, subHeaderSize+len(frag))
		binary.BigEndian.PutUint64(rec[0:8], ps.nextSeq)
		rec[8] = flags
		binary.BigEndian.PutUint32(rec[9:13], uint32(len(frag)))
		copy(rec[subHeaderSize:], frag)
		ps.unacked = append(ps.unacked, outRec{data: rec})
		ps.nextSeq++
		n++
	}
	t.stats.MessagesSent++
	t.stats.FragmentsSent += uint64(n)

	if !ps.started {
		ps.started = true
		t.wg.Add(1)
		go t.runFlusher(to, ps)
	}
	t.mu.Unlock()
	select {
	case ps.kick <- struct{}{}:
	default: // flusher already signalled
	}
	return nil
}

// runFlusher drains one peer's queue, coalescing queued records into frames.
// While a frame is on the (simulated) wire, newly queued records accumulate
// and share the next frame — batching emerges under load with no idle-path
// latency cost.
func (t *Transport) runFlusher(to SiteID, ps *peerSend) {
	defer t.wg.Done()
	for {
		select {
		case <-t.done:
			return
		case <-ps.kick:
		}
		if d := t.cfg.FlushDelay; d > 0 {
			timer := time.NewTimer(d)
			select {
			case <-t.done:
				timer.Stop()
				return
			case <-timer.C:
			}
		}
		// The ablation baseline caps every frame at one record (one wire
		// packet per fragment — no coalescing); the flusher still does the
		// sending, so callers never block on a backed-up link.
		maxRecs := 0
		if t.cfg.DisableBatching {
			maxRecs = 1
		}
		for {
			t.mu.Lock()
			if len(ps.queued()) == 0 {
				t.mu.Unlock()
				break
			}
			frame := t.buildFrameLocked(to, ps, maxRecs)
			t.mu.Unlock()
			_ = t.ep.Send(to, frame)
		}
	}
}

// buildFrameLocked pops queued records into one frame of at most MaxPacket
// bytes (or at most maxRecs records when maxRecs > 0) and stamps the
// piggybacked ack. Caller holds t.mu and guarantees the queue is non-empty.
//
// The frame is built in the peer's reusable buffer and stays valid only
// until the next call. That is safe because only the peer's flusher builds
// frames, and it hands each one to the backend, whose Send copies, before it
// builds the next.
func (t *Transport) buildFrameLocked(to SiteID, ps *peerSend, maxRecs int) []byte {
	if ps.frame == nil {
		ps.frame = make([]byte, 0, t.cfg.MaxPacket)
	}
	frame := ps.frame[:0]
	// The queue head is sentUpTo+1: it is the stream's lowest outstanding
	// sequence exactly when nothing older is still awaiting an ack.
	// Receivers may adopt a mid-flight stream only at such a frame (see
	// handleFrame).
	kind := byte(kindFrame)
	if ps.sentUpTo == ps.ackedUpTo {
		kind = kindFrameLow
	}
	frame = append(frame, kind)
	frame = binary.BigEndian.AppendUint64(frame, ps.epoch)
	ackEpoch, ackCum := t.takeAckLocked(to)
	frame = binary.BigEndian.AppendUint64(frame, ackEpoch)
	frame = binary.BigEndian.AppendUint64(frame, ackCum)
	queue := ps.queued()
	now := time.Now()
	n := 0
	for ; n < len(queue); n++ {
		rec := &queue[n]
		if n > 0 && (len(frame)+len(rec.data) > t.cfg.MaxPacket || (maxRecs > 0 && n >= maxRecs)) {
			break
		}
		frame = append(frame, rec.data...)
		rec.sentAt = now
	}
	ps.sentUpTo += uint64(n)
	t.stats.FramesSent++
	if n > 1 {
		t.stats.Coalesced += uint64(n - 1)
	}
	ps.frame = frame
	return frame
}

// takeAckLocked returns the epoch-qualified cumulative ack to piggyback on a
// frame to the given peer and clears the pending dedicated-ack obligation.
// Caller holds t.mu.
func (t *Transport) takeAckLocked(to SiteID) (epoch, cum uint64) {
	pr, ok := t.recvs[to]
	if !ok {
		return 0, 0
	}
	if pr.ackOwed {
		pr.ackOwed = false
		t.stats.AcksPiggybacked++
	}
	return pr.epoch, pr.nextExpected - 1
}

// recvLoop dispatches packets arriving from the network.
func (t *Transport) recvLoop() {
	defer t.wg.Done()
	for {
		select {
		case <-t.done:
			return
		case pkt := <-t.ep.Recv():
			t.handlePacket(pkt)
		}
	}
}

// retransmitLoop periodically resends unacknowledged packets.
func (t *Transport) retransmitLoop() {
	defer t.wg.Done()
	ticker := time.NewTicker(t.cfg.RetransmitInterval)
	defer ticker.Stop()
	for {
		select {
		case <-t.done:
			return
		case <-ticker.C:
			t.retransmit()
		}
	}
}

// retransmit resends, in sequence order and re-coalesced into frames, every
// record that has gone unacknowledged for a whole RetransmitInterval since
// it was last sent. A record sent just before the sweep is left alone: its
// ack is most likely still on the way.
func (t *Transport) retransmit() {
	type resend struct {
		to     SiteID
		frames [][]byte
	}
	var pending []resend
	t.mu.Lock()
	now := time.Now()
	stale := now.Add(-t.cfg.RetransmitInterval)
	for to, ps := range t.sends {
		// Only records that have already been on the wire are retransmitted;
		// anything past sentUpTo is still queued for its first transmission
		// by the flusher.
		sent := ps.unacked[:ps.sentUpTo-ps.ackedUpTo]
		var ackEpoch, cum uint64
		if pr, ok := t.recvs[to]; ok {
			ackEpoch, cum = pr.epoch, pr.nextExpected-1
		}
		var recs []*outRec
		for i := range sent {
			if !sent[i].sentAt.After(stale) {
				recs = append(recs, &sent[i])
			}
		}
		r := resend{to: to}
		// A frame that leads with the stream's lowest outstanding sequence
		// carries the adoption flag.
		kind := byte(kindFrame)
		if len(recs) > 0 && recs[0] == &sent[0] {
			kind = kindFrameLow
		}
		for len(recs) > 0 {
			// Take the records that fit one frame, then allocate the frame at
			// their size: a resent ack-sized record gets a small frame, not a
			// MaxPacket one.
			size, n := frameHeaderSize, 0
			for ; n < len(recs); n++ {
				l := len(recs[n].data)
				if n > 0 && size+l > t.cfg.MaxPacket {
					break
				}
				size += l
			}
			frame := make([]byte, 0, size)
			frame = append(frame, kind)
			frame = binary.BigEndian.AppendUint64(frame, ps.epoch)
			frame = binary.BigEndian.AppendUint64(frame, ackEpoch)
			frame = binary.BigEndian.AppendUint64(frame, cum)
			for _, rec := range recs[:n] {
				frame = append(frame, rec.data...)
				rec.sentAt = now
			}
			r.frames = append(r.frames, frame)
			t.stats.Retransmissions += uint64(n)
			recs = recs[n:]
			kind = kindFrame
		}
		if len(r.frames) > 0 {
			t.stats.FramesSent += uint64(len(r.frames))
			pending = append(pending, r)
		}
	}
	t.mu.Unlock()
	for _, r := range pending {
		for _, f := range r.frames {
			_ = t.ep.Send(r.to, f)
		}
	}
}

func (t *Transport) handlePacket(pkt netback.Packet) {
	if len(pkt.Payload) == 0 {
		return
	}
	switch pkt.Payload[0] {
	case kindAck:
		if len(pkt.Payload) < ackSize {
			return
		}
		t.applyAck(pkt.From, binary.BigEndian.Uint64(pkt.Payload[1:9]), binary.BigEndian.Uint64(pkt.Payload[9:17]))
	case kindFrame, kindFrameLow:
		if len(pkt.Payload) < frameHeaderSize {
			return
		}
		t.handleFrame(pkt.From, pkt.Payload)
	}
}

// applyAck retires unacked records covered by a cumulative ack. The ack only
// applies to the stream epoch it names: an ack minted for a previous
// incarnation's numbering must not retire the current stream's records.
func (t *Transport) applyAck(from SiteID, ackEpoch, cumSeq uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ps, ok := t.sends[from]
	if !ok || ps.epoch != ackEpoch {
		return
	}
	// Only records that have been sent can have been received.
	cumSeq = min(cumSeq, ps.sentUpTo)
	if cumSeq <= ps.ackedUpTo {
		return
	}
	n := cumSeq - ps.ackedUpTo
	clear(ps.unacked[:n])
	ps.unacked = ps.unacked[n:]
	ps.ackedUpTo = cumSeq
}

// handleFrame processes one data frame: applies its piggybacked ack, feeds
// each sub-packet record through the sequencing machinery, delivers every
// message completed by in-order records, and schedules the ack.
func (t *Transport) handleFrame(from SiteID, raw []byte) {
	senderEpoch := binary.BigEndian.Uint64(raw[1:9])
	t.applyAck(from, binary.BigEndian.Uint64(raw[9:17]), binary.BigEndian.Uint64(raw[17:25]))
	body := raw[frameHeaderSize:]

	t.mu.Lock()
	pr, ok := t.recvs[from]
	if !ok {
		pr = &peerRecv{epoch: senderEpoch, nextExpected: 1, buffered: make(map[uint64]subRec)}
		t.recvs[from] = pr
	}
	if senderEpoch < pr.epoch {
		// Straggler from a dead incarnation (or a pre-reset stream): its
		// sequence numbers belong to a numbering that no longer exists.
		t.stats.DuplicatesDropped++
		t.mu.Unlock()
		return
	}
	if senderEpoch > pr.epoch {
		// The peer restarted (higher incarnation) or reset its stream to
		// us: begin a fresh receive stream. Anything buffered belongs to the
		// dead numbering and is discarded, as when a site crashes.
		restarted := senderEpoch>>32 > pr.epoch>>32
		pr.epoch = senderEpoch
		pr.nextExpected = 1
		pr.buffered = make(map[uint64]subRec)
		pr.assembling = nil
		pr.delivered = false
		if restarted {
			// The restarted peer's receive state for our stream is gone
			// too: renumber our stream from 1 under a bumped epoch so the
			// fresh peer accepts it. Unacked records died with the crash.
			t.resetSendLocked(from)
		}
	}
	progress := false
	if raw[0] == kindFrameLow && !pr.delivered && len(body) >= subHeaderSize {
		// Contact with a stream already in flight: this side has no receive
		// state for the numbering (it restarted, or lost the state), but the
		// sender is mid-stream. Records below the frame's first sequence were
		// retired against our predecessor and will never be retransmitted —
		// waiting for them would wedge the stream forever — so adopt the
		// stream at its current position. Adoption is trusted only on frames
		// the sender marked as leading with its lowest outstanding sequence:
		// a fresh frame can outrace the retransmission of an older backlog
		// (the flusher does not wait for the retransmit tick), and adopting
		// at such a frame would silently discard the backlog. Once anything
		// of this epoch has been delivered the stream is established and the
		// gap-fill machinery owns ordering.
		if first := binary.BigEndian.Uint64(body[0:8]); first > pr.nextExpected {
			pr.nextExpected = first
			// Records between the old and new expectation may already sit in
			// the buffer (from unflagged frames that arrived first); count the
			// adoption as progress so they drain now.
			progress = true
		}
	}
	for len(body) >= subHeaderSize {
		seq := binary.BigEndian.Uint64(body[0:8])
		flags := body[8]
		payloadLen := int(binary.BigEndian.Uint32(body[9:13]))
		if len(body) < subHeaderSize+payloadLen {
			break // corrupt tail; drop the rest of the frame
		}
		payload := body[subHeaderSize : subHeaderSize+payloadLen]
		body = body[subHeaderSize+payloadLen:]

		if seq < pr.nextExpected {
			// Duplicate of something already delivered: re-ack so the sender
			// stops retransmitting it.
			t.stats.DuplicatesDropped++
			pr.ackOwed = true
			continue
		}
		if _, dup := pr.buffered[seq]; dup {
			t.stats.DuplicatesDropped++
			continue
		}
		// The backend hands ownership of the delivered payload to the
		// receiver (netback contract), so sub-slices can be kept directly.
		pr.buffered[seq] = subRec{flags: flags, payload: payload}
		progress = true
	}

	// Deliver every in-order record now available.
	var complete [][]byte
	if progress {
		for {
			rec, ok := pr.buffered[pr.nextExpected]
			if !ok {
				break
			}
			delete(pr.buffered, pr.nextExpected)
			pr.nextExpected++
			pr.delivered = true
			if rec.flags&flagLastFragment != 0 && pr.assembling == nil {
				// A whole message in one record: hand over the frame's own
				// bytes, capped so a handler's append cannot overwrite the
				// next record of the frame.
				p := rec.payload
				complete = append(complete, p[:len(p):len(p)])
				continue
			}
			pr.assembling = append(pr.assembling, rec.payload...)
			if rec.flags&flagLastFragment != 0 {
				complete = append(complete, pr.assembling)
				pr.assembling = nil
			}
		}
		pr.ackOwed = true
	}
	t.stats.MessagesDelivered += uint64(len(complete))

	// Ack policy: immediately when configured so, otherwise via a short
	// timer that a reverse-direction data frame can beat (piggybacking).
	if pr.ackOwed {
		if t.cfg.AckDelay < 0 || t.cfg.DisableBatching {
			pr.ackOwed = false
			t.queueAckLocked(from, pr, pr.epoch, pr.nextExpected-1)
		} else if !pr.ackTimerSet {
			pr.ackTimerSet = true
			time.AfterFunc(t.cfg.AckDelay, func() { t.ackTimerFire(from) })
		}
	}
	handler := t.handler
	t.mu.Unlock()

	if handler != nil {
		for _, m := range complete {
			handler(from, m)
		}
	}
}

// resetSendLocked restarts the outgoing stream to a peer after the peer is
// known to have lost its receive state (site restart): queued and unacked
// records are dropped and the numbering begins again at 1 under a bumped
// epoch, so stale frames of the old numbering can never be confused with the
// new stream. Caller holds t.mu.
func (t *Transport) resetSendLocked(to SiteID) {
	ps, ok := t.sends[to]
	if !ok {
		return
	}
	ps.epoch++
	ps.nextSeq = 1
	ps.ackedUpTo = 0
	ps.sentUpTo = 0
	ps.unacked = nil
}

// ackTimerFire sends the delayed dedicated ack unless a data frame has
// already piggybacked it.
func (t *Transport) ackTimerFire(from SiteID) {
	t.mu.Lock()
	pr, ok := t.recvs[from]
	if !ok || t.closed {
		if ok {
			pr.ackTimerSet = false
		}
		t.mu.Unlock()
		return
	}
	pr.ackTimerSet = false
	owed := pr.ackOwed
	pr.ackOwed = false
	epoch, cum := pr.epoch, pr.nextExpected-1
	t.mu.Unlock()
	if owed {
		t.sendAck(from, epoch, cum)
	}
}

// queueAckLocked hands a dedicated ack to the peer's ack-sender goroutine
// instead of transmitting it from the receive loop. The receive loop must
// never block on a network send: with per-fragment framing under flood, a
// receive loop stuck on a full reverse link while the peer's receive loop
// waits symmetrically on the opposite pair is a distributed buffer deadlock
// (observed as a multi-minute hang of the unbatched ablation benchmark).
// Cumulative acks are monotonic, so the one-slot mailbox keeps only the
// newest — under backlog stale acks are superseded, never reordered.
// Caller holds t.mu.
func (t *Transport) queueAckLocked(to SiteID, pr *peerRecv, epoch, cum uint64) {
	if t.closed {
		// A frame can still arrive between Close and the endpoint detaching;
		// starting the ack sender now would race wg.Add against Close's
		// wg.Wait, and the peer no longer needs the ack.
		return
	}
	if !pr.ackStarted {
		pr.ackStarted = true
		pr.ackCh = make(chan ackNote, 1)
		t.wg.Add(1)
		go t.runAckSender(to, pr.ackCh)
	}
	for {
		select {
		case pr.ackCh <- ackNote{epoch, cum}:
			return
		default:
		}
		select {
		case <-pr.ackCh: // drop the superseded ack
		default:
		}
	}
}

// runAckSender transmits one peer's dedicated acks from its mailbox.
func (t *Transport) runAckSender(to SiteID, ch chan ackNote) {
	defer t.wg.Done()
	for {
		select {
		case <-t.done:
			return
		case a := <-ch:
			t.sendAck(to, a.epoch, a.cum)
		}
	}
}

// sendAck transmits a dedicated cumulative-ack frame for one stream epoch.
func (t *Transport) sendAck(to SiteID, epoch, cumSeq uint64) {
	var pkt [ackSize]byte
	pkt[0] = kindAck
	binary.BigEndian.PutUint64(pkt[1:9], epoch)
	binary.BigEndian.PutUint64(pkt[9:17], cumSeq)
	t.mu.Lock()
	t.stats.AcksSent++
	closed := t.closed
	t.mu.Unlock()
	if closed {
		return
	}
	_ = t.ep.Send(to, pkt[:])
}
