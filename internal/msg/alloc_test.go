package msg

import (
	"errors"
	"runtime"
	"testing"

	"repro/internal/addr"
)

// TestGetDefaultsDoNotAllocate pins that the default-returning getters build
// no error value on a miss: an absent optional field is the common case on
// the protocol hot path (every data packet is probed for a null marker).
func TestGetDefaultsDoNotAllocate(t *testing.T) {
	m := New().PutString("int", "not an int").PutInt("addr", 1).PutInt("sub", 2)
	cases := []struct {
		name string
		get  func()
	}{
		{"GetInt absent", func() { m.GetInt("absent", 7) }},
		{"GetInt wrong type", func() { m.GetInt("int", 7) }},
		{"GetAddress absent", func() { m.GetAddress("absent") }},
		{"GetAddress wrong type", func() { m.GetAddress("addr") }},
		{"GetMessage absent", func() { m.GetMessage("absent") }},
		{"GetMessage wrong type", func() { m.GetMessage("sub") }},
	}
	for _, c := range cases {
		if allocs := testing.AllocsPerRun(100, c.get); allocs != 0 {
			t.Errorf("%s allocates %.1f times per call, want 0", c.name, allocs)
		}
	}
}

// packetShaped builds a message with the field layout of a relayed CBCAST
// data packet: twelve top-level fields, one of them a nested payload.
func packetShaped() *Message {
	m := New()
	m.PutInt("&proto", 1)
	m.PutAddress("&group", addr.NewGroup(1, 0, 5))
	m.PutInt("&viewid", 3)
	m.PutAddress("&msgid", addr.NewProcess(2, 0, 8))
	m.PutInt("&msgseq", 42)
	m.PutAddress("&sender", addr.NewProcess(2, 0, 8))
	m.PutInt("&rank", -1)
	m.PutInt("&entry", 16)
	m.PutBytes("&vt", []byte{0, 3, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 3})
	m.PutInt("&relay", 1)
	m.PutInt("&extseq", 9)
	m.PutMessage("&payload", New().PutBytes("body", make([]byte, 64)))
	return m
}

// TestUnmarshalSizesFieldsOnce pins that decoding into a fresh message sizes
// its field slice from the encoded count instead of growing it one append at
// a time.
func TestUnmarshalSizesFieldsOnce(t *testing.T) {
	enc, err := packetShaped().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	// Measured at 18 allocations per decode: the field slice, the twelve
	// field names, the vector-timestamp bytes, and the nested message with
	// its field slice, name and body. Growing the top-level slice one field
	// at a time (1, 2, 4, 8, 16) cost 22.
	const maxAllocs = 18
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
	if allocs > maxAllocs {
		t.Errorf("decoding a 12-field packet allocates %.0f times, want at most %d", allocs, maxAllocs)
	}
}

// hostileCount is a header claiming 65535 fields, followed by one complete
// field and nothing else.
var hostileCount = []byte{0xFF, 0xFF, 1, 'a', byte(TypeInt), 0, 0, 0, 8, 0, 0, 0, 0, 0, 0, 0, 1}

// TestHostileFieldCountReservesNothing pins that the field-count pre-size is
// bounded by the input length: a short message that claims 65535 fields is
// rejected without reserving room for them (65535 fields of ~120 bytes each
// would be ~7.5 MB per decode).
func TestHostileFieldCountReservesNothing(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 100; i++ {
		if _, err := Unmarshal(hostileCount); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
	}
	runtime.ReadMemStats(&after)
	// A single 65535-field reservation would exceed this bound many times
	// over; 100 honest decodes of the short input use a few tens of KB.
	if grown := after.TotalAlloc - before.TotalAlloc; grown > 1<<20 {
		t.Errorf("100 decodes of a hostile field count allocated %d bytes", grown)
	}
}
