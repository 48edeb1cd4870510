package msg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/addr"
)

// Wire format (all integers big endian):
//
//	uint16  field count
//	repeated field, in ascending order of field name:
//	    uint8   name length      (names are limited to 255 bytes)
//	    bytes   name
//	    uint8   field type
//	    uint32  payload length
//	    bytes   payload
//
// Payload encodings:
//
//	bytes / string:  raw bytes
//	int:             8 bytes, two's complement
//	address:         addr.EncodedSize bytes
//	address list:    concatenation of addr.EncodedSize-byte addresses
//	message:         a nested marshalled message
//
// The format is self-describing enough for the paper's needs (nested
// messages, inspection by filters) while staying compact; a 10-byte user
// payload marshals to a few tens of bytes, matching the small-message regime
// of Figure 2.
//
// Encoding is deterministic: fields are written in sorted name order (the
// in-memory representation already keeps them sorted), so two structurally
// equal messages produce byte-identical encodings. Several tests and the
// stable-storage log rely on this, and it is what makes the cached encoding
// of CachedMarshal sharable across destinations: the daemon marshals a
// multicast data packet exactly once and hands the same []byte to the
// transport for every destination site.
//
// Decoders accept fields in any order (defensively re-sorting), but only the
// sorted form is ever produced. UnmarshalInto additionally reuses the field
// storage of a recycled message, giving an allocation-free decode when the
// incoming packet has the shape of the previous one (the steady state of a
// multicast stream).

// Marshalling errors.
var (
	ErrNameTooLong = errors.New("msg: field name longer than 255 bytes")
	ErrCorrupt     = errors.New("msg: corrupt message encoding")
	ErrTooManyFlds = errors.New("msg: too many fields")
)

// maxFields bounds the field count in one message.
const maxFields = math.MaxUint16

// minFieldBytes is the smallest encoded field: name length, an empty name,
// type and payload length.
const minFieldBytes = 1 + 1 + 4

// encodeCalls counts actual wire encodings (cache misses included, cache
// hits excluded). Tests use it to assert that a multicast packet fanned out
// to N destinations is marshalled exactly once.
var encodeCalls atomic.Uint64

// EncodeCount returns the number of times a message encoding has actually
// been computed process-wide. The fan-out tests snapshot it around a
// multicast to verify the marshal-once property.
func EncodeCount() uint64 { return encodeCalls.Load() }

// bufPool recycles encode scratch buffers. GetBuffer/PutBuffer expose it to
// the transport and protocol layers so hot-path encodes need not allocate.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

// GetBuffer fetches a pooled scratch buffer. The returned slice has zero
// length and unspecified capacity; append to it and return it to the pool
// with PutBuffer when done.
func GetBuffer() *[]byte {
	b := bufPool.Get().(*[]byte)
	*b = (*b)[:0]
	return b
}

// PutBuffer returns a scratch buffer to the pool. The caller must not use
// the slice afterwards.
func PutBuffer(b *[]byte) {
	if b == nil || cap(*b) > 1<<20 {
		return // don't pool pathological buffers
	}
	bufPool.Put(b)
}

// Marshal encodes the message into a fresh byte slice owned by the caller.
func (m *Message) Marshal() ([]byte, error) {
	return m.AppendMarshal(nil)
}

// AppendMarshal appends the encoding of m to dst and returns the extended
// slice. Given sufficient capacity in dst it does not allocate.
func (m *Message) AppendMarshal(dst []byte) ([]byte, error) {
	encodeCalls.Add(1)
	if dst == nil {
		dst = make([]byte, 0, m.MarshaledSize())
	}
	return m.appendTo(dst)
}

// CachedMarshal returns the wire encoding of m, computing it at most once
// per mutation: repeated calls on an unchanged message (including unchanged
// nested messages) return the same shared slice. The returned bytes are
// owned by the message and MUST be treated as read-only; they remain valid
// until the next mutation. This is the marshal-once handle the daemon uses
// to fan a multicast out to many destination sites.
func (m *Message) CachedMarshal() ([]byte, error) {
	if g := m.treeGen(); m.enc == nil || m.encGen != g {
		enc, err := m.AppendMarshal(make([]byte, 0, m.MarshaledSize()))
		if err != nil {
			return nil, err
		}
		m.enc = enc
		m.encGen = m.treeGen()
	}
	return m.enc, nil
}

// appendTo is the recursive encoder. Payloads are appended directly (their
// sizes are known up front), so no intermediate buffers are built even for
// nested messages.
func (m *Message) appendTo(dst []byte) ([]byte, error) {
	if len(m.fields) > maxFields {
		return nil, ErrTooManyFlds
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(m.fields)))
	for i := range m.fields {
		f := &m.fields[i]
		if len(f.name) > math.MaxUint8 {
			return nil, fmt.Errorf("%w: %q", ErrNameTooLong, f.name)
		}
		dst = append(dst, byte(len(f.name)))
		dst = append(dst, f.name...)
		dst = append(dst, byte(f.typ))
		switch f.typ {
		case TypeBytes:
			dst = binary.BigEndian.AppendUint32(dst, uint32(len(f.bytes)))
			dst = append(dst, f.bytes...)
		case TypeString:
			dst = binary.BigEndian.AppendUint32(dst, uint32(len(f.str)))
			dst = append(dst, f.str...)
		case TypeInt:
			dst = binary.BigEndian.AppendUint32(dst, 8)
			dst = binary.BigEndian.AppendUint64(dst, uint64(f.i))
		case TypeAddress:
			dst = binary.BigEndian.AppendUint32(dst, addr.EncodedSize)
			dst = f.adr.AppendEncoded(dst)
		case TypeAddressList:
			dst = binary.BigEndian.AppendUint32(dst, uint32(len(f.adrs)*addr.EncodedSize))
			for _, a := range f.adrs {
				dst = a.AppendEncoded(dst)
			}
		case TypeMessage:
			dst = binary.BigEndian.AppendUint32(dst, uint32(f.sub.MarshaledSize()))
			var err error
			dst, err = f.sub.appendTo(dst)
			if err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("msg: cannot marshal field %q of type %v", f.name, f.typ)
		}
	}
	return dst, nil
}

// Unmarshal decodes a message from b. The entire slice must be consumed.
func Unmarshal(b []byte) (*Message, error) {
	m := New()
	if err := UnmarshalInto(m, b); err != nil {
		return nil, err
	}
	return m, nil
}

// UnmarshalInto decodes a message from b into m, replacing m's fields. The
// entire slice must be consumed. Field storage held by m (byte buffers,
// address lists, nested messages) is reused where the incoming fields match
// m's existing layout, so decoding a stream of same-shaped packets into a
// recycled message does not allocate. On error m may hold a partial decode.
func UnmarshalInto(m *Message, b []byte) error {
	rest, err := m.unmarshalPrefix(b)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(rest))
	}
	return nil
}

// unmarshalPrefix decodes one message from the front of b into m and returns
// the remaining bytes.
//
// The decoder scans positionally against m's existing (sorted) fields: while
// incoming names match the resident slot at the same index, payloads are
// decoded in place. The first mismatch truncates the leftovers and falls
// back to sorted insertion, which also handles adversarial inputs whose
// fields are unsorted or duplicated.
func (m *Message) unmarshalPrefix(b []byte) ([]byte, error) {
	if len(b) < 2 {
		return nil, fmt.Errorf("%w: missing field count", ErrCorrupt)
	}
	n := int(binary.BigEndian.Uint16(b[:2]))
	b = b[2:]
	m.invalidate()
	// Size the field slice once. A field takes at least minFieldBytes, so
	// the count is capped by what the input can hold: a short input that
	// claims 65535 fields must not reserve room for them.
	if c := min(n, len(b)/minFieldBytes); c > cap(m.fields) {
		m.Grow(c - len(m.fields))
	}
	idx, inPlace := 0, true
	for i := 0; i < n; i++ {
		if len(b) < 1 {
			return nil, fmt.Errorf("%w: truncated field name length", ErrCorrupt)
		}
		nameLen := int(b[0])
		b = b[1:]
		if len(b) < nameLen+1+4 {
			return nil, fmt.Errorf("%w: truncated field header", ErrCorrupt)
		}
		rawName := b[:nameLen]
		typ := FieldType(b[nameLen])
		payloadLen := int(binary.BigEndian.Uint32(b[nameLen+1 : nameLen+5]))
		b = b[nameLen+5:]
		if len(b) < payloadLen {
			return nil, fmt.Errorf("%w: truncated field payload", ErrCorrupt)
		}
		payload := b[:payloadLen]
		b = b[payloadLen:]

		var f *field
		if inPlace && idx < len(m.fields) && m.fields[idx].name == string(rawName) {
			f = &m.fields[idx]
			sub := f.sub // keep the nested message for reuse
			f.reset(typ)
			f.sub = sub
			idx++
		} else {
			if inPlace {
				// Mismatch: drop the stale tail, then insert sorted.
				m.truncateFields(idx)
				inPlace = false
			}
			f = m.slot(string(rawName), typ)
		}
		if err := decodePayload(f, typ, payload); err != nil {
			return nil, err
		}
	}
	if inPlace {
		m.truncateFields(idx)
	}
	return b, nil
}

// truncateFields drops every field at index i and beyond.
func (m *Message) truncateFields(i int) {
	for j := i; j < len(m.fields); j++ {
		m.fields[j] = field{}
	}
	m.fields = m.fields[:i]
}

// decodePayload fills one field from its wire payload, reusing the field's
// existing storage where possible.
func decodePayload(f *field, typ FieldType, payload []byte) error {
	switch typ {
	case TypeBytes:
		f.bytes = append(f.bytes[:0], payload...)
	case TypeString:
		// Avoid re-allocating the string when a recycled field already holds
		// the same value (the common case for protocol constants).
		if f.str != string(payload) {
			f.str = string(payload)
		}
	case TypeInt:
		if len(payload) != 8 {
			return fmt.Errorf("%w: int field %q has %d bytes", ErrCorrupt, f.name, len(payload))
		}
		f.i = int64(binary.BigEndian.Uint64(payload))
	case TypeAddress:
		a, err := addr.Decode(payload)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		f.adr = a
	case TypeAddressList:
		if len(payload)%addr.EncodedSize != 0 {
			return fmt.Errorf("%w: address list field %q has %d bytes", ErrCorrupt, f.name, len(payload))
		}
		f.adrs = f.adrs[:0]
		for off := 0; off < len(payload); off += addr.EncodedSize {
			a, err := addr.Decode(payload[off:])
			if err != nil {
				return fmt.Errorf("%w: %v", ErrCorrupt, err)
			}
			f.adrs = append(f.adrs, a)
		}
	case TypeMessage:
		if f.sub == nil {
			f.sub = New()
		}
		if err := UnmarshalInto(f.sub, payload); err != nil {
			return err
		}
	default:
		return fmt.Errorf("%w: unknown field type %d", ErrCorrupt, typ)
	}
	return nil
}

// MarshaledSize returns the number of bytes Marshal would produce. It is
// used by the simulated network to charge bandwidth without re-encoding, and
// by the encoder itself to pre-size buffers and nested payload lengths.
func (m *Message) MarshaledSize() int {
	size := 2
	for i := range m.fields {
		f := &m.fields[i]
		size += 1 + len(f.name) + 1 + 4
		switch f.typ {
		case TypeBytes:
			size += len(f.bytes)
		case TypeString:
			size += len(f.str)
		case TypeInt:
			size += 8
		case TypeAddress:
			size += addr.EncodedSize
		case TypeAddressList:
			size += len(f.adrs) * addr.EncodedSize
		case TypeMessage:
			size += f.sub.MarshaledSize()
		}
	}
	return size
}
