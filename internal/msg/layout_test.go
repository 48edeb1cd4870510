package msg

import (
	"bytes"
	"encoding/hex"
	"testing"
	"unsafe"

	"repro/internal/addr"
)

// TestFieldSize pins the symbol-table entry at 64 bytes: field storage is
// most of what the message path allocates, and one member per type took 120.
func TestFieldSize(t *testing.T) {
	if size := unsafe.Sizeof(field{}); size > 64 {
		t.Errorf("field is %d bytes, want at most 64", size)
	}
}

// goldenMessage carries every field type, including empty and nested ones.
func goldenMessage() *Message {
	return New().
		PutBytes("bytes", []byte{0, 1, 2, 0xfe, 0xff}).
		PutBytes("bytes-empty", nil).
		PutString("string", "virtual synchrony").
		PutString("string-empty", "").
		PutInt("int", -2).
		PutInt("int-max", 1<<63-1).
		PutAddress("address", addr.NewProcess(513, 3, 0x0a0b0c).WithEntry(17)).
		PutAddress("address-nil", addr.Nil).
		PutAddressList("list", addr.List{addr.NewGroup(1, 0, 5), addr.NewProcess(2, 1, 8).WithEntry(4)}).
		PutAddressList("list-empty", addr.List{}).
		PutMessage("nested", New().
			PutString("&payload", "inner").
			PutMessage("deeper", New().PutInt("@session", 7)).
			PutMessage("empty", New())).
		PutMessage("@reply", New())
}

// goldenEncoding is goldenMessage's wire form as encoded by the
// one-member-per-type field layout, before the tagged payload.
const goldenEncoding = "000c06407265706c790600000002000007616464726573730400000008020103" +
	"01110a0b0c0b616464726573732d6e696c040000000800000000000000000562" +
	"797465730100000005000102feff0b62797465732d656d707479010000000003" +
	"696e740300000008fffffffffffffffe07696e742d6d617803000000087fffff" +
	"ffffffffff046c6973740500000010000100020000000500020101040000080a" +
	"6c6973742d656d7074790500000000066e657374656406000000460003082670" +
	"61796c6f61640200000005696e6e657206646565706572060000001800010840" +
	"73657373696f6e0300000008000000000000000705656d707479060000000200" +
	"0006737472696e6702000000117669727475616c2073796e6368726f6e790c73" +
	"7472696e672d656d7074790200000000"

// TestGoldenEncoding pins the wire format byte for byte: built, cloned and
// decoded-then-re-encoded messages all produce the same bytes.
func TestGoldenEncoding(t *testing.T) {
	want, err := hex.DecodeString(goldenEncoding)
	if err != nil {
		t.Fatal(err)
	}
	m := goldenMessage()
	decoded, err := Unmarshal(want)
	if err != nil {
		t.Fatal(err)
	}
	recycled := New().PutString("bytes", "was a string").PutBytes("list", []byte{1, 2, 3})
	if err := UnmarshalInto(recycled, want); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		m    *Message
	}{{"built", m}, {"clone", m.Clone()}, {"decoded", decoded}, {"recycled", recycled}} {
		got, err := c.m.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s message encodes to\n%x\nwant\n%x", c.name, got, want)
		}
		if size := c.m.MarshaledSize(); size != len(want) {
			t.Errorf("%s MarshaledSize = %d, want %d", c.name, size, len(want))
		}
	}
}

// TestGettersOnDecodedMessageDoNotAllocate pins that reading any field of a
// decoded message, present or absent, allocates nothing.
func TestGettersOnDecodedMessageDoNotAllocate(t *testing.T) {
	enc, err := goldenMessage().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	m, err := Unmarshal(enc)
	if err != nil {
		t.Fatal(err)
	}
	var sink int
	cases := []struct {
		name string
		get  func()
	}{
		{"GetInt", func() { sink += int(m.GetInt("int", 0)) }},
		{"GetString", func() { sink += len(m.GetString("string", "")) }},
		{"GetBytes", func() { sink += len(m.GetBytes("bytes")) }},
		{"GetAddress", func() { sink += int(m.GetAddress("address").LocalID) }},
		{"GetAddressList", func() { sink += len(m.GetAddressList("list")) }},
		{"GetMessage", func() { sink += m.GetMessage("nested").Len() }},
		{"GetString absent", func() { sink += len(m.GetString("absent", "")) }},
		{"GetBytes absent", func() { sink += len(m.GetBytes("absent")) }},
		{"GetAddressList absent", func() { sink += len(m.GetAddressList("absent")) }},
		{"Sender", func() { sink += int(m.Sender().Site) }},
		{"Session", func() { sink += int(m.Session()) }},
	}
	for _, c := range cases {
		if allocs := testing.AllocsPerRun(100, c.get); allocs != 0 {
			t.Errorf("%s allocates %.1f times per call, want 0", c.name, allocs)
		}
	}
	if m.GetString("string", "") != "virtual synchrony" || m.GetInt("int", 0) != -2 ||
		len(m.GetAddressList("list")) != 2 || !bytes.Equal(m.GetBytes("bytes"), []byte{0, 1, 2, 0xfe, 0xff}) {
		t.Errorf("decoded message lost data: %s", m.Format())
	}
}

// TestDecodingKnownNamesAllocatesNoName pins name interning: a packet made
// only of registered names costs the decode one allocation, the field slice,
// and each unregistered name costs one more.
func TestDecodingKnownNamesAllocatesNoName(t *testing.T) {
	known := New().PutInt("&proto", 1).PutInt("&viewid", 2).PutInt("&msgseq", 3).
		PutInt(FSession, 4).PutInt(FReply, 1)
	unknown := New().PutInt("x-proto", 1).PutInt("x-viewid", 2).PutInt("x-msgseq", 3).
		PutInt("x-session", 4).PutInt("x-reply", 1)
	for _, c := range []struct {
		name string
		m    *Message
		want float64
	}{{"registered names", known, 1}, {"unregistered names", unknown, 6}} {
		enc, err := c.m.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		const runs = 100
		fresh := make([]*Message, runs+1) // AllocsPerRun adds a warm-up run
		for i := range fresh {
			fresh[i] = New()
		}
		next := 0
		allocs := testing.AllocsPerRun(runs, func() {
			if err := UnmarshalInto(fresh[next], enc); err != nil {
				panic(err)
			}
			next++
		})
		if allocs != c.want {
			t.Errorf("decoding %s allocates %.0f times, want %.0f", c.name, allocs, c.want)
		}
		if got := fresh[0].GetInt(c.m.Names()[0], 0); got != c.m.GetInt(c.m.Names()[0], -1) {
			t.Errorf("decoding %s lost data", c.name)
		}
	}
}

// TestDecodedNamesCannotGrowTable pins that the intern table is read-only to
// the decoder: decoding unregistered names leaves it as it was.
func TestDecodedNamesCannotGrowTable(t *testing.T) {
	before := len(names)
	for i := 0; i < 100; i++ {
		enc, err := New().PutInt(string(rune('a'+i%26))+"-hostile", int64(i)).Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Unmarshal(enc); err != nil {
			t.Fatal(err)
		}
	}
	if len(names) != before {
		t.Errorf("intern table grew from %d to %d names", before, len(names))
	}
}

// TestAddressLocalIDAboveWireWidth pins that in-memory address fields are
// lossless: the wire form carries a 24-bit LocalID, but Put/Get keep all 32.
func TestAddressLocalIDAboveWireWidth(t *testing.T) {
	a := addr.Address{Site: 0xfffe, Incarn: 0xfd, Kind: addr.KindGroup, Entry: 0xfc, LocalID: 0xfedcba98}
	b := addr.NewProcess(1, 2, 1<<24)
	m := New().PutAddress("a", a).PutAddressList("l", addr.List{a, b})
	for _, c := range []*Message{m, m.Clone()} {
		if got := c.GetAddress("a"); got != a {
			t.Errorf("GetAddress = %v (LocalID %#x), want %v (LocalID %#x)", got, got.LocalID, a, a.LocalID)
		}
		if got := c.GetAddressList("l"); len(got) != 2 || got[0] != a || got[1] != b {
			t.Errorf("GetAddressList = %v, want [%v %v]", got, a, b)
		}
	}
	// The wire form truncates to 24 bits, as it always has.
	enc, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	d, err := Unmarshal(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.GetAddress("a").LocalID; got != a.LocalID&0xffffff {
		t.Errorf("decoded LocalID = %#x, want %#x", got, a.LocalID&0xffffff)
	}
}

// TestStringValuesStayImmutable pins that a string returned by a getter
// never changes: string fields share their bytes instead of copying them, so
// no later Put, decode or type change may write into those bytes.
func TestStringValuesStayImmutable(t *testing.T) {
	m := New().PutString("s", "first")
	s := m.GetString("s", "")
	m.PutString("s", "second")
	m.PutBytes("s", []byte("XXXXX"))
	enc, err := New().PutString("s", "third").Marshal()
	if err != nil {
		t.Fatal(err)
	}
	dst := New().PutString("s", "fourth")
	d := dst.GetString("s", "")
	if err := UnmarshalInto(dst, enc); err != nil {
		t.Fatal(err)
	}
	dst.PutBytes("s", []byte("YYYYYY"))
	if s != "first" || d != "fourth" {
		t.Errorf("returned strings changed: %q, %q", s, d)
	}
	if got := m.GetBytes("s"); string(got) != "XXXXX" {
		t.Errorf("bytes after a string = %q", got)
	}
}

// TestAddressListStorageIsOwned pins that PutAddressList and Clone copy the
// list, so neither the caller's slice nor the original message can change
// a stored list.
func TestAddressListStorageIsOwned(t *testing.T) {
	in := addr.List{addr.NewProcess(1, 0, 1), addr.NewProcess(2, 0, 2)}
	m := New().PutAddressList("l", in)
	in[0] = addr.NewProcess(9, 9, 9)
	c := m.Clone()
	m.GetAddressList("l")[1] = addr.NewProcess(8, 8, 8)
	if got := c.GetAddressList("l"); got[0] != addr.NewProcess(1, 0, 1) || got[1] != addr.NewProcess(2, 0, 2) {
		t.Errorf("clone's list = %v", got)
	}
	if got := m.GetAddressList("l")[0]; got != addr.NewProcess(1, 0, 1) {
		t.Errorf("stored list follows the caller's slice: %v", got)
	}
}
