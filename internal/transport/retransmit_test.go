package transport

import (
	"encoding/binary"
	"sync"
	"testing"
	"time"

	"repro/internal/netback"
)

// holdingEndpoint records every frame sent and delivers nothing, so no ack
// ever arrives on its own: the test drives acks and sweeps by hand.
type holdingEndpoint struct {
	mu     sync.Mutex
	frames [][]byte
	recv   chan netback.Packet
}

func (e *holdingEndpoint) Site() SiteID { return 1 }
func (e *holdingEndpoint) Send(to SiteID, p []byte) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.frames = append(e.frames, append([]byte(nil), p...))
	return nil
}
func (e *holdingEndpoint) Recv() <-chan netback.Packet { return e.recv }
func (e *holdingEndpoint) Close()                      {}

func (e *holdingEndpoint) sent() [][]byte {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([][]byte(nil), e.frames...)
}

// frameSeqs returns a data frame's kind and the sequences of its records.
func frameSeqs(frame []byte) (byte, []uint64) {
	var seqs []uint64
	body := frame[frameHeaderSize:]
	for len(body) >= subHeaderSize {
		seqs = append(seqs, binary.BigEndian.Uint64(body[0:8]))
		body = body[subHeaderSize+int(binary.BigEndian.Uint32(body[9:13])):]
	}
	return frame[0], seqs
}

// TestRetransmitSweepAndAckTouchOnlyTheirRecords pins the send-side
// bookkeeping: a sweep resends only records unacked for a whole
// RetransmitInterval, flags a frame for adoption only when it leads with the
// lowest outstanding sequence, and an ack retires exactly the prefix it
// covers.
func TestRetransmitSweepAndAckTouchOnlyTheirRecords(t *testing.T) {
	ep := &holdingEndpoint{recv: make(chan netback.Packet)}
	// An interval no test run reaches keeps the background sweep idle.
	tr, err := New(ep, Config{MaxPacket: 4096, RetransmitInterval: time.Hour}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	for _, m := range []string{"a", "b", "c"} {
		if err := tr.Send(2, []byte(m)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		tr.mu.Lock()
		sent := tr.sends[2].sentUpTo
		tr.mu.Unlock()
		if sent == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("flusher sent up to %d, want 3", sent)
		}
		time.Sleep(time.Millisecond)
	}
	age := func(idx ...int) {
		tr.mu.Lock()
		defer tr.mu.Unlock()
		for _, i := range idx {
			tr.sends[2].unacked[i].sentAt = time.Now().Add(-2 * time.Hour)
		}
	}
	sweep := func() (uint64, [][]byte) {
		before, frames := tr.Stats().Retransmissions, len(ep.sent())
		tr.retransmit()
		return tr.Stats().Retransmissions - before, ep.sent()[frames:]
	}

	if n, _ := sweep(); n != 0 {
		t.Errorf("sweep right after sending resent %d records, want 0", n)
	}

	age(1, 2)
	n, frames := sweep()
	if n != 2 || len(frames) != 1 {
		t.Fatalf("sweep over 2 stale records resent %d records in %d frames", n, len(frames))
	}
	if kind, seqs := frameSeqs(frames[0]); kind != kindFrame || len(seqs) != 2 || seqs[0] != 2 || seqs[1] != 3 {
		t.Errorf("resent frame kind %d seqs %v, want kind %d seqs [2 3]", kind, seqs, kindFrame)
	}
	if n, _ := sweep(); n != 0 {
		t.Errorf("records just resent were resent again: %d", n)
	}

	age(0, 1, 2)
	if _, frames := sweep(); len(frames) != 1 {
		t.Fatalf("full sweep sent %d frames, want 1", len(frames))
	} else if kind, seqs := frameSeqs(frames[0]); kind != kindFrameLow || len(seqs) != 3 || seqs[0] != 1 {
		t.Errorf("full sweep frame kind %d seqs %v, want kind %d from seq 1", kind, seqs, kindFrameLow)
	}

	tr.mu.Lock()
	epoch := tr.sends[2].epoch
	tr.mu.Unlock()
	for _, c := range []struct {
		name      string
		epoch     uint64
		cum       uint64
		wantAcked uint64
	}{
		{"other epoch", epoch + 1, 3, 0},
		{"prefix", epoch, 2, 2},
		{"stale repeat", epoch, 1, 2},
		{"beyond what was sent", epoch, 99, 3},
	} {
		tr.applyAck(2, c.epoch, c.cum)
		tr.mu.Lock()
		acked, left := tr.sends[2].ackedUpTo, len(tr.sends[2].unacked)
		tr.mu.Unlock()
		if acked != c.wantAcked || left != int(3-c.wantAcked) {
			t.Errorf("%s: acked up to %d with %d unacked, want %d and %d", c.name, acked, left, c.wantAcked, 3-c.wantAcked)
		}
	}
	if tr.Unacked() != 0 {
		t.Errorf("Unacked = %d after the whole stream was acked", tr.Unacked())
	}
}
