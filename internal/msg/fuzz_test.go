package msg

import (
	"bytes"
	"testing"

	"repro/internal/addr"
)

// FuzzCodecRoundTrip feeds arbitrary bytes to the decoder. Inputs the
// decoder accepts must re-marshal successfully, and the re-marshalled form
// must be a fixed point (canonical: sorted fields, duplicates collapsed).
// The recycled-storage decoder must agree with the fresh one.
func FuzzCodecRoundTrip(f *testing.F) {
	seed := func(m *Message) {
		enc, err := m.Marshal()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
		if len(enc) > 3 {
			f.Add(enc[:len(enc)-3]) // truncated input
		}
	}
	seed(New())
	seed(New().PutInt("n", -1).PutString("s", "x"))
	seed(New().PutAddressList("empty", addr.List{}))
	seed(New().
		PutBytes("b", []byte{1, 2, 3}).
		PutAddress("a", addr.NewProcess(3, 1, 7)).
		PutAddressList("l", addr.List{addr.NewGroup(1, 0, 5), addr.NewProcess(2, 0, 8)}).
		PutMessage("sub", New().PutMessage("subsub", New().PutInt("deep", 9))))
	// Address lists (one and many entries, including a LocalID wider than
	// the wire's 24 bits), strings (empty, non-ASCII, long) and names the
	// decoder does not intern, beside registered ones.
	seed(New().PutAddressList("one", addr.List{addr.NewProcess(7, 2, 1<<24|3).WithEntry(9)}))
	seed(New().PutAddressList(FDests, addr.List{addr.NewGroup(1, 0, 1), addr.NewGroup(2, 0, 2), addr.NewProcess(3, 0, 3)}))
	seed(New().PutString("", "").PutString("ünïcode", "ψ→∞").PutString("long", string(make([]byte, 300))))
	seed(New().PutInt("not-interned", 1).PutInt(FSession, 2).PutString("@not-a-system-name", "x"))
	f.Add([]byte{})
	f.Add([]byte{0, 1, 1, 'a', 99, 0, 0, 0, 0})
	f.Add(hostileCount)

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Unmarshal(data)
		if err != nil {
			return // rejected input: fine, as long as we did not panic
		}
		enc, err := m.Marshal()
		if err != nil {
			t.Fatalf("accepted message failed to marshal: %v", err)
		}
		m2, err := Unmarshal(enc)
		if err != nil {
			t.Fatalf("re-decode of own encoding failed: %v", err)
		}
		enc2, err := m2.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("encoding is not canonical:\n first: %x\nsecond: %x", enc, enc2)
		}
		// Decoding into a dirty recycled message must agree with a fresh
		// decode.
		dst := New().PutInt("warm", 1).PutBytes("stale", []byte{9, 9})
		if err := UnmarshalInto(dst, data); err != nil {
			t.Fatalf("UnmarshalInto rejected input Unmarshal accepted: %v", err)
		}
		enc3, err := dst.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc3) {
			t.Fatalf("recycled decode diverges:\n fresh: %x\nreused: %x", enc, enc3)
		}
	})
}
