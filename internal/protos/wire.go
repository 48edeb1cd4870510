package protos

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/msg"
	"repro/internal/vclock"
)

// Protocol selects which multicast primitive carries a message
// (Section 3.1).
type Protocol uint8

const (
	// CBCAST delivers messages in causal order; it is asynchronous (the
	// sender continues immediately).
	CBCAST Protocol = iota + 1
	// ABCAST delivers messages atomically and in the same total order at
	// every destination.
	ABCAST
	// GBCAST is ordered with respect to every other multicast and to
	// membership changes; the system itself uses it for view changes and
	// the configuration tool exposes it to applications.
	GBCAST
)

// String names the protocol.
func (p Protocol) String() string {
	switch p {
	case CBCAST:
		return "CBCAST"
	case ABCAST:
		return "ABCAST"
	case GBCAST:
		return "GBCAST"
	default:
		return fmt.Sprintf("protocol(%d)", uint8(p))
	}
}

// Daemon wire envelope. Every daemon-to-daemon packet begins with a small
// fixed-offset header followed by the marshalled msg.Message body:
//
//	byte 0   wireVersion
//	byte 1   packet type (one of the pt* constants below)
//	bytes 2+ marshalled msg.Message body (absent for heartbeats)
//
// Keeping the packet type at a fixed offset (rather than in a "&type" body
// field, as earlier revisions did) lets handleTransport dispatch without
// decoding the body, lets heartbeats skip message marshalling entirely, and
// lets a multicast fan-out share one encoded body across every destination
// site: the per-destination work is writing two header bytes, never
// re-sorting and re-marshalling the symbol table.
//
// The transport below this layer batches whole envelopes into frames and
// piggybacks its cumulative acks on them; see internal/transport for that
// framing table.
const (
	wireVersion   = 1
	envelopeBytes = 2
)

// Packet types exchanged between daemons, carried in byte 1 of the wire
// envelope. Daemon-internal body fields use the "&" prefix so they can never
// collide with the application's fields or with the "@" system fields the
// toolkit sets.
const (
	ptData        = byte(iota + 1) // CBCAST data / ABCAST phase 1 / point-to-point
	ptAbPropose                    // ABCAST phase 1 response: proposed priority
	ptAbCommit                     // ABCAST phase 2: final priority
	ptGbRequest                    // request to the group coordinator (join/leave/fail/user gbcast/config)
	ptGbPrepare                    // GBCAST phase 1: wedge and report pending state
	ptGbAck                        // GBCAST phase 1 response
	ptGbCommit                     // GBCAST phase 2: install view / deliver payload
	ptGbDone                       // coordinator's response to the original requester
	ptLookup                       // symbolic name lookup request
	ptLookupResp                   // lookup response
	ptHeartbeat                    // failure-detector heartbeat (empty body)
	ptStateBlock                   // state transfer block for a joining member
	ptError                        // negative response to a call
	ptStateAck                     // joiner's site announces its state transfer completed
	ptAbResolicit                  // receiver asks for a straggler ABCAST's commit record
	ptRelayAck                     // positive acknowledgement of a relayed multicast
)

// Field names used in daemon-to-daemon packet bodies.
const (
	fCall      = "&call"    // call id for request/response matching
	fGroup     = "&group"   // group address
	fViewID    = "&viewid"  // view id the packet refers to
	fMsgID     = "&msgid"   // multicast id: sender address + sequence
	fMsgSeq    = "&msgseq"  // sequence part of the multicast id
	fSender    = "&sender"  // originating process
	fRank      = "&rank"    // sender's rank in the view (-1 external)
	fVT        = "&vt"      // vector timestamp (CBCAST)
	fExtSeq    = "&extseq"  // per-sender sequence for external senders
	fProto     = "&proto"   // Protocol value
	fEntry     = "&entry"   // destination entry point
	fPayload   = "&payload" // nested application message
	fDests     = "&dests"   // explicit destination processes
	fPriority  = "&prio"    // ABCAST priority
	fKind      = "&kind"    // gb request kind
	fProcs     = "&procs"   // processes affected by a gb request
	fName      = "&name"    // symbolic group name
	fView      = "&view"    // encoded view
	fGbID      = "&gbid"    // gbcast sequence number at the coordinator
	fPending   = "&pending" // encoded pending-state report (gbAck)
	fRebcast   = "&rebcast" // encoded rebroadcast set (gbCommit)
	fStateData = "&sdata"   // state transfer block payload
	fStateLast = "&slast"   // last state block flag
	fWantState = "&wantst"  // join wants a state transfer
	fErr       = "&err"     // error text
	fReqID     = "&reqid"   // stable GBCAST request id, survives coordinator fail-over
	fForce     = "&force"   // run the full wedge/flush even for a no-op change
	fXferID    = "&xferid"  // state-transfer attempt id (the view id the provider shipped under)
	fDead      = "&dead"    // prepare ack: removal targets this site confirms dead
	fAttempt   = "&attempt" // ABCAST protocol attempt (bumped by a fence restart)
	fNull      = "&nullseq" // null relayed CBCAST: consumes its FIFO sequence, carries no app message
	fPrimary   = "&primary" // lookup response: the answering site's copy is primary
	fFound     = "&found"   // lookup response: the answering site hosts the group
	fSite      = "&site"    // lookup response: the answering site's id
	fSealReq   = "&sealreq" // gbSeal: the request id whose outcome is being settled
	fOutcome   = "&outcome" // gbSeal result: 1 committed, 2 aborted
)

// The decoder interns these names instead of allocating each one again for
// every packet.
func init() {
	msg.RegisterNames(fCall, fGroup, fViewID, fMsgID, fMsgSeq, fSender, fRank,
		fVT, fExtSeq, fProto, fEntry, fPayload, fDests, fPriority, fKind, fProcs,
		fName, fView, fGbID, fPending, fRebcast, fStateData, fStateLast,
		fWantState, fErr, fReqID, fForce, fXferID, fDead, fAttempt, fNull,
		fPrimary, fFound, fSite, fSealReq, fOutcome, fRelay)
}

// GB request kinds carried in ptGbRequest packets.
const (
	gbJoin       = int64(iota + 1) // add a member
	gbLeave                        // remove a member voluntarily
	gbFail                         // remove failed members
	gbUser                         // user-level GBCAST delivery to an entry
	gbConfigHint                   // reserved for the configuration tool (delivered like gbUser)
	gbNonPrimary                   // minority notice: wedge into read-only non-primary mode
	gbResume                       // total-wedge recovery: resume the last agreed view in place
	gbSeal                         // settle the outcome of an earlier request id (commit or abort it)
)

// encodeView stores a view in a nested message.
func encodeView(v core.View) *msg.Message {
	m := msg.New()
	m.PutAddress("g", v.Group)
	m.PutString("n", v.Name)
	m.PutInt("id", int64(v.ID))
	m.PutAddressList("m", v.Members)
	return m
}

// decodeView reads a view from a nested message.
func decodeView(m *msg.Message) core.View {
	if m == nil {
		return core.View{}
	}
	return core.View{
		Group:   m.GetAddress("g"),
		Name:    m.GetString("n", ""),
		ID:      core.ViewID(m.GetInt("id", 0)),
		Members: m.GetAddressList("m"),
	}
}

// putMsgID stores a multicast id on a packet.
func putMsgID(p *msg.Message, id core.MsgID) {
	p.PutAddress(fMsgID, id.Sender)
	p.PutInt(fMsgSeq, int64(id.Seq))
}

// getMsgID reads a multicast id from a packet.
func getMsgID(p *msg.Message) core.MsgID {
	return core.MsgID{Sender: p.GetAddress(fMsgID), Seq: uint64(p.GetInt(fMsgSeq, 0))}
}

// putVT / getVT move a vector timestamp through a packet. The encode side
// stamps through pooled scratch so the CBCAST hot path does not allocate for
// the timestamp bytes (PutBytes copies into the field's own storage).
func putVT(p *msg.Message, vt vclock.VC) {
	buf := msg.GetBuffer()
	*buf = vt.AppendEncode(*buf)
	p.PutBytes(fVT, *buf)
	msg.PutBuffer(buf)
}

func getVT(p *msg.Message) vclock.VC {
	vt, err := vclock.Decode(p.GetBytes(fVT))
	if err != nil {
		return nil
	}
	return vt
}

// pendingReport is one member-site's contribution to a GBCAST flush: the
// ABCASTs it has received but not delivered (with commit status and, when the
// site initiated them, the priorities collected so far) and the identifiers
// of recent deliveries so the coordinator can rebroadcast messages some
// members missed. On the commit, the same structure carries the
// reconciliation instructions back: committed entries to force everywhere,
// uncommitted entries to discard, recent messages to re-disseminate, and the
// ids of ABCASTs fenced behind the new view (their initiators restart them).
type pendingReport struct {
	Abcasts []abPendingWire
	Recent  []recentWire
	Fenced  []core.MsgID
}

type abPendingWire struct {
	ID        core.MsgID
	Committed bool
	Priority  uint64
	Packet    *msg.Message // the original ptData packet, so it can be re-disseminated
	Init      bool         // the reporting site holds the initiator round (pendingAb)
}

// recentWire is one recently delivered message in a flush report. For an
// ABCAST the reporting site also ships the final priority it delivered at
// (from its bounded commit record), so the coordinator can complete the
// message — at the exact final the protocol already used — at sites where it
// is still an uncommitted pending entry; Priority 0 means unknown (a CBCAST,
// or a record already evicted).
type recentWire struct {
	ID       core.MsgID
	Packet   *msg.Message
	Priority uint64
}

// encodePendingReport flattens a report into a nested message.
func encodePendingReport(r pendingReport) *msg.Message {
	m := msg.New()
	m.PutInt("nab", int64(len(r.Abcasts)))
	for i, a := range r.Abcasts {
		e := msg.New()
		putMsgID(e, a.ID)
		if a.Committed {
			e.PutInt("c", 1)
		} else {
			e.PutInt("c", 0)
		}
		e.PutInt("p", int64(a.Priority))
		if a.Packet != nil {
			e.PutMessage("pkt", a.Packet)
		}
		if a.Init {
			e.PutInt("i", 1)
		}
		m.PutMessage(fmt.Sprintf("ab%d", i), e)
	}
	m.PutInt("nrc", int64(len(r.Recent)))
	for i, rc := range r.Recent {
		e := msg.New()
		putMsgID(e, rc.ID)
		if rc.Packet != nil {
			e.PutMessage("pkt", rc.Packet)
		}
		if rc.Priority != 0 {
			e.PutInt("p", int64(rc.Priority))
		}
		m.PutMessage(fmt.Sprintf("rc%d", i), e)
	}
	m.PutInt("nfc", int64(len(r.Fenced)))
	for i, id := range r.Fenced {
		e := msg.New()
		putMsgID(e, id)
		m.PutMessage(fmt.Sprintf("fc%d", i), e)
	}
	return m
}

// decodePendingReport reverses encodePendingReport.
func decodePendingReport(m *msg.Message) pendingReport {
	var r pendingReport
	if m == nil {
		return r
	}
	nab := int(m.GetInt("nab", 0))
	for i := 0; i < nab; i++ {
		e := m.GetMessage(fmt.Sprintf("ab%d", i))
		if e == nil {
			continue
		}
		r.Abcasts = append(r.Abcasts, abPendingWire{
			ID:        getMsgID(e),
			Committed: e.GetInt("c", 0) == 1,
			Priority:  uint64(e.GetInt("p", 0)),
			Packet:    e.GetMessage("pkt"),
			Init:      e.GetInt("i", 0) == 1,
		})
	}
	nrc := int(m.GetInt("nrc", 0))
	for i := 0; i < nrc; i++ {
		e := m.GetMessage(fmt.Sprintf("rc%d", i))
		if e == nil {
			continue
		}
		r.Recent = append(r.Recent, recentWire{
			ID: getMsgID(e), Packet: e.GetMessage("pkt"), Priority: uint64(e.GetInt("p", 0)),
		})
	}
	nfc := int(m.GetInt("nfc", 0))
	for i := 0; i < nfc; i++ {
		e := m.GetMessage(fmt.Sprintf("fc%d", i))
		if e == nil {
			continue
		}
		r.Fenced = append(r.Fenced, getMsgID(e))
	}
	return r
}
