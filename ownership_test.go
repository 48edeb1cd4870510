package isis

import (
	"bytes"
	"sync"
	"testing"
	"time"
)

// TestCallerMutationAfterCastOrReplyChangesNothing pins the payload-ownership
// rule at the public boundary: Cast and Reply hand the protocols layer a
// copy of the caller's message, and the protocols layer keeps that copy
// without taking another. So a caller that rewrites its message — fields,
// byte contents and address lists alike — once Cast or Reply has returned
// changes nothing any member receives, whether the caller is a member (its
// own delivery is built from the very packet it sent) or a client relayed
// through the group's coordinator.
func TestCallerMutationAfterCastOrReplyChangesNothing(t *testing.T) {
	c := newTestCluster(t, 3)
	type seen struct{ body, data, list string }
	var mu sync.Mutex
	var got []seen
	record := func(m *Message) {
		mu.Lock()
		got = append(got, seen{m.GetString("body", ""), string(m.GetBytes("data")), addrList(m.GetAddressList("list"))})
		mu.Unlock()
	}
	other := []Address{{Site: 9, Kind: 1, LocalID: 9}}
	scribble := func(m *Message) {
		m.PutString("body", "mutated")
		if b := m.GetBytes("data"); len(b) > 0 {
			b[0] = 'X'
		}
		if l := m.GetAddressList("list"); len(l) > 0 {
			l[0] = other[0]
		}
		m.PutInt("extra", 1)
	}

	members := []*Process{spawn(t, c, 1), spawn(t, c, 2)}
	var gid Address
	for i, p := range members {
		p := p
		p.BindEntry(EntryUserBase, func(m *Message) {
			record(m)
			if !m.Has("@session") {
				return
			}
			reply := original("reply")
			if err := p.Reply(m, reply); err != nil {
				t.Error(err)
			}
			scribble(reply)
		})
		if i == 0 {
			v, err := p.CreateGroup("owned")
			if err != nil {
				t.Fatal(err)
			}
			gid = v.Group
		} else if _, err := p.Join(gid, JoinOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, "full membership", 5*time.Second, func() bool {
		v, ok := members[0].CurrentView(gid)
		return ok && v.Size() == 2
	})
	client := spawn(t, c, 3)

	casts := 0
	for _, caller := range []*Process{members[0], client} {
		for _, proto := range []Protocol{CBCAST, ABCAST} {
			m := original("cast")
			if _, err := caller.Cast(proto, []Address{gid}, EntryUserBase, m); err != nil {
				t.Fatal(err)
			}
			scribble(m)
			casts++
		}
	}
	m := original("cast")
	replies, err := client.Cast(CBCAST, []Address{gid}, EntryUserBase, m, Replies(All))
	scribble(m)
	casts++
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "every cast delivered at both members", 5*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == 2*casts
	})

	want := seen{"cast", "data", addrList(originalList)}
	mu.Lock()
	for i, s := range got {
		if s != want {
			t.Errorf("delivery %d = %+v, want %+v", i, s, want)
		}
	}
	mu.Unlock()
	if len(replies) != 2 {
		t.Fatalf("got %d replies, want 2", len(replies))
	}
	for _, r := range replies {
		if r.GetString("body", "") != "reply" || !bytes.Equal(r.GetBytes("data"), []byte("data")) ||
			addrList(r.GetAddressList("list")) != addrList(originalList) || r.Has("extra") {
			t.Errorf("reply changed after Reply returned: %s", r.Format())
		}
	}
}

var originalList = []Address{{Site: 1, Kind: 1, LocalID: 1}, {Site: 2, Kind: 2, LocalID: 2}}

// original builds the message the ownership test sends and replies with.
func original(body string) *Message {
	return NewMessage().PutString("body", body).PutBytes("data", []byte("data")).PutAddressList("list", originalList)
}

func addrList(l []Address) string {
	s := ""
	for _, a := range l {
		s += a.String() + " "
	}
	return s
}
