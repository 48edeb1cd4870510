package msg

import (
	"errors"
	"fmt"
	"sort"

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

// field is one entry of the symbol table.
type field struct {
	name  string
	typ   FieldType
	bytes []byte
	str   string
	i     int64
	adr   addr.Address
	adrs  addr.List
	sub   *Message
}

// reset clears a field's payload members while keeping its name and the
// backing storage of its slices, so an overwrite can reuse their capacity.
func (f *field) reset(typ FieldType) {
	f.typ = typ
	f.bytes = f.bytes[:0]
	f.str = ""
	f.i = 0
	f.adr = addr.Nil
	f.adrs = f.adrs[:0]
	f.sub = nil
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
	f.bytes = append(f.bytes, v...)
	return m
}

// PutString sets a string field.
func (m *Message) PutString(name, v string) *Message {
	f := m.slot(name, TypeString)
	f.str = v
	return m
}

// PutInt sets an integer field.
func (m *Message) PutInt(name string, v int64) *Message {
	f := m.slot(name, TypeInt)
	f.i = v
	return m
}

// PutAddress sets an address field.
func (m *Message) PutAddress(name string, v addr.Address) *Message {
	f := m.slot(name, TypeAddress)
	f.adr = v
	return m
}

// PutAddressList sets an address list field. The list is copied.
func (m *Message) PutAddressList(name string, v addr.List) *Message {
	f := m.slot(name, TypeAddressList)
	f.adrs = append(f.adrs, v...)
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
	return f.bytes, nil
}

// String returns the string field.
func (m *Message) String(name string) (string, error) {
	f, err := m.get(name, TypeString)
	if err != nil {
		return "", err
	}
	return f.str, nil
}

// Int returns the integer field.
func (m *Message) Int(name string) (int64, error) {
	f, err := m.get(name, TypeInt)
	if err != nil {
		return 0, err
	}
	return f.i, nil
}

// Address returns the address field.
func (m *Message) Address(name string) (addr.Address, error) {
	f, err := m.get(name, TypeAddress)
	if err != nil {
		return addr.Nil, err
	}
	return f.adr, nil
}

// AddressList returns the address list field.
func (m *Message) AddressList(name string) (addr.List, error) {
	f, err := m.get(name, TypeAddressList)
	if err != nil {
		return nil, err
	}
	return f.adrs, nil
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
		return f.i
	}
	return def
}

// GetString returns the string field or def when absent or mistyped.
func (m *Message) GetString(name, def string) string {
	if f := m.lookup(name, TypeString); f != nil {
		return f.str
	}
	return def
}

// GetBytes returns the bytes field or nil when absent or mistyped.
func (m *Message) GetBytes(name string) []byte {
	if f := m.lookup(name, TypeBytes); f != nil {
		return f.bytes
	}
	return nil
}

// GetAddress returns the address field or addr.Nil when absent or mistyped.
func (m *Message) GetAddress(name string) addr.Address {
	if f := m.lookup(name, TypeAddress); f != nil {
		return f.adr
	}
	return addr.Nil
}

// GetAddressList returns the address list field or nil.
func (m *Message) GetAddressList(name string) addr.List {
	if f := m.lookup(name, TypeAddressList); f != nil {
		return f.adrs
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
			f.bytes = append([]byte(nil), f.bytes...)
		case TypeAddressList:
			f.adrs = append(addr.List(nil), f.adrs...)
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
			s += fmt.Sprintf("%s=bytes[%d]", f.name, len(f.bytes))
		case TypeString:
			s += fmt.Sprintf("%s=%q", f.name, f.str)
		case TypeInt:
			s += fmt.Sprintf("%s=%d", f.name, f.i)
		case TypeAddress:
			s += fmt.Sprintf("%s=%v", f.name, f.adr)
		case TypeAddressList:
			s += fmt.Sprintf("%s=%v", f.name, f.adrs)
		case TypeMessage:
			s += fmt.Sprintf("%s=%s", f.name, f.sub.Format())
		}
	}
	return s + "}"
}
