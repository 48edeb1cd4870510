package msg

import (
	"errors"
	"fmt"
	"sort"
	"unsafe"

	"repro/internal/addr"
)

// FieldType enumerates the wire types a field can carry.
type FieldType uint8

const (
	// TypeBytes is an opaque byte string.
	TypeBytes FieldType = iota + 1
	// TypeString is a UTF-8 string.
	TypeString
	// TypeInt is a signed 64-bit integer.
	TypeInt
	// TypeAddress is a single ISIS address.
	TypeAddress
	// TypeAddressList is a list of ISIS addresses.
	TypeAddressList
	// TypeMessage is a nested message.
	TypeMessage
)

// String names the field type for diagnostics.
func (t FieldType) String() string {
	switch t {
	case TypeBytes:
		return "bytes"
	case TypeString:
		return "string"
	case TypeInt:
		return "int"
	case TypeAddress:
		return "address"
	case TypeAddressList:
		return "addresses"
	case TypeMessage:
		return "message"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// System field names. Fields whose names begin with '@' are reserved for the
// toolkit and the protocols process; the protection tool strips them from
// client-supplied messages so that a sender address can never be forged
// (Section 3.10).
const (
	FSender   = "@sender"   // address of the sending process (set by protos)
	FSession  = "@session"  // session id matching a reply to its pending call
	FDests    = "@dests"    // destination list of the broadcast
	FProtocol = "@protocol" // which multicast primitive carried the message
	FEntry    = "@entry"    // destination entry point
	FViewID   = "@viewid"   // view in which the message was sent
	FGroup    = "@group"    // group address the message was sent to
	FReply    = "@reply"    // set on reply messages: 1 normal, 2 null
	FMsgID    = "@msgid"    // unique broadcast identifier assigned by protos
)

// SystemPrefix is the first byte of every reserved field name.
const SystemPrefix = '@'

// IsSystemField reports whether name is reserved for the toolkit.
func IsSystemField(name string) bool {
	return len(name) > 0 && name[0] == SystemPrefix
}

// field is one entry of the symbol table: a name and a tagged payload. Each
// type uses only some of the payload members:
//
//	TypeInt:          w holds the value (two's complement)
//	TypeAddress:      w holds site, incarnation, kind and entry; lid LocalID
//	TypeBytes:        b, owned by the field
//	TypeString:       b aliases the string's bytes, which are never written
//	TypeAddressList:  b views the field's own []addr.Address storage
//	TypeMessage:      sub
//
// This keeps a field at 64 bytes with three pointer words (name, b, sub);
// one member per type took 120 bytes and five pointer words, and field
// storage is most of what the message path allocates.
type field struct {
	name string
	b    []byte
	sub  *Message
	w    uint64
	lid  uint32
	typ  FieldType
}

// reset prepares a field to take a new payload of type typ, keeping its
// name. Byte and address-list storage is kept for reuse when the type stays
// the same, so overwriting a field of a recycled message does not allocate;
// storage is never carried across types, and a string's bytes are kept only
// to be compared or replaced, never written.
func (f *field) reset(typ FieldType) {
	switch {
	case f.typ != typ:
		f.b = nil
	case typ != TypeString:
		f.b = f.b[:0]
	}
	f.typ = typ
	f.sub = nil
	f.w, f.lid = 0, 0
}

// setAddress stores a in the scalar members. The packing is lossless: the
// whole LocalID is kept, although the wire form carries only 24 bits.
func (f *field) setAddress(a addr.Address) {
	f.w = uint64(a.Site)<<24 | uint64(a.Incarn)<<16 | uint64(a.Kind)<<8 | uint64(a.Entry)
	f.lid = a.LocalID
}

// address reverses setAddress.
func (f *field) address() addr.Address {
	return addr.Address{
		Site:    addr.SiteID(f.w >> 24),
		Incarn:  addr.Incarnation(f.w >> 16),
		Kind:    addr.Kind(f.w >> 8),
		Entry:   addr.EntryID(f.w),
		LocalID: f.lid,
	}
}

// str returns a string field's value without copying: b holds bytes that
// are never written once they back a string.
func (f *field) str() string {
	return unsafe.String(unsafe.SliceData(f.b), len(f.b))
}

// setStr stores v by reference, as a string is immutable.
func (f *field) setStr(v string) {
	f.b = unsafe.Slice(unsafe.StringData(v), len(v))
}

// addrSize is the in-memory size of one address in a list field.
const addrSize = int(unsafe.Sizeof(addr.Address{}))

// addrs returns an address-list field's value: a view of b's storage, which
// setAddrs took from a []addr.Address, so it is aligned for one.
func (f *field) addrs() addr.List {
	if cap(f.b) == 0 {
		return nil
	}
	l := unsafe.Slice((*addr.Address)(unsafe.Pointer(unsafe.SliceData(f.b))), cap(f.b)/addrSize)
	return l[:len(f.b)/addrSize]
}

// setAddrs stores l by reference, as the bytes of its backing array.
func (f *field) setAddrs(l addr.List) {
	if cap(l) == 0 {
		f.b = nil
		return
	}
	f.b = unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(l))), cap(l)*addrSize)[:len(l)*addrSize]
}

// Message is a mutable symbol table of named, typed fields. The zero value
// is not usable; call New.
type Message struct {
	fields []field // sorted by name

	// gen counts mutations of this message (not of nested ones); enc holds
	// the cached wire encoding, valid while encGen == treeGen(). See
	// CachedMarshal.
	gen    uint64
	enc    []byte
	encGen uint64
}

// New returns an empty message.
func New() *Message {
	return &Message{}
}

// invalidate records a mutation, discarding any cached encoding.
func (m *Message) invalidate() {
	m.gen++
	m.enc = nil
}

// treeGen sums the mutation counters of this message and every nested
// message. Counters only increase, so the sum changes whenever any message
// in the tree is mutated; this is what keeps the cached encoding honest when
// a caller mutates a nested message after PutMessage.
func (m *Message) treeGen() uint64 {
	g := m.gen
	for i := range m.fields {
		if f := &m.fields[i]; f.typ == TypeMessage && f.sub != nil {
			g += f.sub.treeGen()
		}
	}
	return g
}

// find returns the index where name is or would be stored, and whether it is
// present.
func (m *Message) find(name string) (int, bool) {
	i := sort.Search(len(m.fields), func(i int) bool { return m.fields[i].name >= name })
	return i, i < len(m.fields) && m.fields[i].name == name
}

// slot returns a pointer to the (possibly freshly inserted) field for name,
// with its payload members cleared but slice capacity retained. Every Put
// goes through here, so it also invalidates the cached encoding.
func (m *Message) slot(name string, typ FieldType) *field {
	m.invalidate()
	i, ok := m.find(name)
	if !ok {
		m.fields = append(m.fields, field{})
		copy(m.fields[i+1:], m.fields[i:])
		m.fields[i] = field{name: name}
	}
	f := &m.fields[i]
	f.reset(typ)
	return f
}

// Grow makes room for n more fields, so that adding them allocates the field
// storage at most once. Packet builders that know their field count call it
// first; a field slice grown one append at a time discards several smaller
// arrays on the way to its final size.
func (m *Message) Grow(n int) {
	if n <= 0 || cap(m.fields)-len(m.fields) >= n {
		return
	}
	fields := make([]field, len(m.fields), len(m.fields)+n)
	copy(fields, m.fields)
	m.fields = fields
}

// Len returns the number of fields in the message.
func (m *Message) Len() int { return len(m.fields) }

// Has reports whether the named field is present.
func (m *Message) Has(name string) bool {
	_, ok := m.find(name)
	return ok
}

// Type returns the type of the named field and whether it exists.
func (m *Message) Type(name string) (FieldType, bool) {
	i, ok := m.find(name)
	if !ok {
		return 0, false
	}
	return m.fields[i].typ, true
}

// Delete removes the named field if present.
func (m *Message) Delete(name string) {
	i, ok := m.find(name)
	if !ok {
		return
	}
	m.invalidate()
	copy(m.fields[i:], m.fields[i+1:])
	m.fields[len(m.fields)-1] = field{}
	m.fields = m.fields[:len(m.fields)-1]
}

// Names returns the field names in sorted order.
func (m *Message) Names() []string {
	out := make([]string, len(m.fields))
	for i := range m.fields {
		out[i] = m.fields[i].name
	}
	return out
}

// PutBytes sets a bytes field. The slice is copied (the copy reuses the
// field's previous storage when possible, so overwriting a field of a
// recycled message does not allocate).
func (m *Message) PutBytes(name string, v []byte) *Message {
	f := m.slot(name, TypeBytes)
	f.b = append(f.b, v...)
	return m
}

// PutString sets a string field.
func (m *Message) PutString(name, v string) *Message {
	f := m.slot(name, TypeString)
	f.setStr(v)
	return m
}

// PutInt sets an integer field.
func (m *Message) PutInt(name string, v int64) *Message {
	f := m.slot(name, TypeInt)
	f.w = uint64(v)
	return m
}

// PutAddress sets an address field.
func (m *Message) PutAddress(name string, v addr.Address) *Message {
	f := m.slot(name, TypeAddress)
	f.setAddress(v)
	return m
}

// PutAddressList sets an address list field. The list is copied.
func (m *Message) PutAddressList(name string, v addr.List) *Message {
	f := m.slot(name, TypeAddressList)
	f.setAddrs(append(f.addrs(), v...))
	return m
}

// PutMessage sets a nested message field. The nested message is stored by
// reference; callers that will keep mutating it should Put a Clone instead.
func (m *Message) PutMessage(name string, v *Message) *Message {
	f := m.slot(name, TypeMessage)
	f.sub = v
	return m
}

// Errors returned by the typed getters.
var (
	ErrNoField   = errors.New("msg: no such field")
	ErrWrongType = errors.New("msg: field has a different type")
)

// get returns the field for name, or an error when absent or of another type.
func (m *Message) get(name string, typ FieldType) (*field, error) {
	i, ok := m.find(name)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoField, name)
	}
	f := &m.fields[i]
	if f.typ != typ {
		return nil, fmt.Errorf("%w: %q is %v", ErrWrongType, name, f.typ)
	}
	return f, nil
}

// lookup returns the field for name, or nil when absent or of another type.
// The Get* getters use it so that a miss, which is the common case for
// optional protocol fields, builds no error value.
func (m *Message) lookup(name string, typ FieldType) *field {
	if i, ok := m.find(name); ok && m.fields[i].typ == typ {
		return &m.fields[i]
	}
	return nil
}

// Bytes returns the bytes field, or an error if missing or of another type.
func (m *Message) Bytes(name string) ([]byte, error) {
	f, err := m.get(name, TypeBytes)
	if err != nil {
		return nil, err
	}
	return f.b, nil
}

// String returns the string field.
func (m *Message) String(name string) (string, error) {
	f, err := m.get(name, TypeString)
	if err != nil {
		return "", err
	}
	return f.str(), nil
}

// Int returns the integer field.
func (m *Message) Int(name string) (int64, error) {
	f, err := m.get(name, TypeInt)
	if err != nil {
		return 0, err
	}
	return int64(f.w), nil
}

// Address returns the address field.
func (m *Message) Address(name string) (addr.Address, error) {
	f, err := m.get(name, TypeAddress)
	if err != nil {
		return addr.Nil, err
	}
	return f.address(), nil
}

// AddressList returns the address list field.
func (m *Message) AddressList(name string) (addr.List, error) {
	f, err := m.get(name, TypeAddressList)
	if err != nil {
		return nil, err
	}
	return f.addrs(), nil
}

// Message returns the nested message field.
func (m *Message) Message(name string) (*Message, error) {
	f, err := m.get(name, TypeMessage)
	if err != nil {
		return nil, err
	}
	return f.sub, nil
}

// Convenience getters with defaults, used pervasively by the toolkit where a
// missing field simply means "use the zero value".

// GetInt returns the integer field or def when absent or mistyped.
func (m *Message) GetInt(name string, def int64) int64 {
	if f := m.lookup(name, TypeInt); f != nil {
		return int64(f.w)
	}
	return def
}

// GetString returns the string field or def when absent or mistyped.
func (m *Message) GetString(name, def string) string {
	if f := m.lookup(name, TypeString); f != nil {
		return f.str()
	}
	return def
}

// GetBytes returns the bytes field or nil when absent or mistyped.
func (m *Message) GetBytes(name string) []byte {
	if f := m.lookup(name, TypeBytes); f != nil {
		return f.b
	}
	return nil
}

// GetAddress returns the address field or addr.Nil when absent or mistyped.
func (m *Message) GetAddress(name string) addr.Address {
	if f := m.lookup(name, TypeAddress); f != nil {
		return f.address()
	}
	return addr.Nil
}

// GetAddressList returns the address list field or nil.
func (m *Message) GetAddressList(name string) addr.List {
	if f := m.lookup(name, TypeAddressList); f != nil {
		return f.addrs()
	}
	return nil
}

// GetMessage returns the nested message field or nil.
func (m *Message) GetMessage(name string) *Message {
	if f := m.lookup(name, TypeMessage); f != nil {
		return f.sub
	}
	return nil
}

// Sender returns the system sender field (addr.Nil if unset).
func (m *Message) Sender() addr.Address { return m.GetAddress(FSender) }

// Session returns the system session id (0 if unset).
func (m *Message) Session() int64 { return m.GetInt(FSession, 0) }

// Group returns the group address the message was multicast to (addr.Nil if
// it was a point-to-point send).
func (m *Message) Group() addr.Address { return m.GetAddress(FGroup) }

// StripSystemFields removes every reserved '@' field. The protection tool
// applies this to messages submitted by clients so system fields can only be
// set by the toolkit itself.
func (m *Message) StripSystemFields() {
	kept := m.fields[:0]
	removed := false
	for i := range m.fields {
		if IsSystemField(m.fields[i].name) {
			removed = true
			continue
		}
		kept = append(kept, m.fields[i])
	}
	if removed {
		for i := len(kept); i < len(m.fields); i++ {
			m.fields[i] = field{}
		}
		m.fields = kept
		m.invalidate()
	}
}

// cloneRoom is how many fields a Clone can take without growing: the
// toolkit stamps a cloned payload with up to four system fields (sender,
// group, view, protocol) before delivering it.
const cloneRoom = 4

// Clone returns a deep copy of the message. The copy has room for a few more
// top-level fields, so stamping it with the delivery system fields allocates
// nothing further; nested messages are copied at their exact size.
func (m *Message) Clone() *Message { return m.clone(cloneRoom) }

func (m *Message) clone(room int) *Message {
	out := &Message{}
	if len(m.fields) == 0 {
		return out
	}
	out.fields = make([]field, len(m.fields), len(m.fields)+room)
	copy(out.fields, m.fields)
	for i := range out.fields {
		f := &out.fields[i]
		switch f.typ {
		case TypeBytes:
			f.b = append([]byte(nil), f.b...)
		case TypeAddressList:
			f.setAddrs(append(addr.List(nil), f.addrs()...))
		case TypeMessage:
			if f.sub != nil {
				f.sub = f.sub.clone(0)
			}
		}
	}
	return out
}

// Format renders a human-readable dump of the message, with fields in sorted
// order; nested messages are rendered inline. Intended for debugging only.
func (m *Message) Format() string {
	s := "{"
	for i := range m.fields {
		if i > 0 {
			s += ", "
		}
		f := &m.fields[i]
		switch f.typ {
		case TypeBytes:
			s += fmt.Sprintf("%s=bytes[%d]", f.name, len(f.b))
		case TypeString:
			s += fmt.Sprintf("%s=%q", f.name, f.str())
		case TypeInt:
			s += fmt.Sprintf("%s=%d", f.name, int64(f.w))
		case TypeAddress:
			s += fmt.Sprintf("%s=%v", f.name, f.address())
		case TypeAddressList:
			s += fmt.Sprintf("%s=%v", f.name, f.addrs())
		case TypeMessage:
			s += fmt.Sprintf("%s=%s", f.name, f.sub.Format())
		}
	}
	return s + "}"
}
