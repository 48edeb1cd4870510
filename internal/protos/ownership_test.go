package protos

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/core"
	"repro/internal/msg"
)

// TestHandlerMutationLeavesRecentCopyUnchanged pins the payload-ownership
// rule at the delivery boundary: the packets a daemon keeps for flush
// re-dissemination hold the sender's payload itself (Multicast takes
// ownership instead of copying), so every delivery must be a copy of its
// own. Handlers at both sites — the sender's included, whose local delivery
// comes straight from the packet it keeps — scribble over every message they
// get; the flush report each site would re-disseminate must still carry the
// original payloads.
func TestHandlerMutationLeavesRecentCopyUnchanged(t *testing.T) {
	tc := quietCluster(t, 2)
	var mu sync.Mutex
	delivered := map[addr.SiteID]int{}
	mutating := func(site addr.SiteID) DeliverFunc {
		return func(_ addr.EntryID, m *msg.Message) {
			m.PutString("body", "mutated by the handler")
			if b := m.GetBytes("data"); len(b) > 0 {
				b[0] = 0xEE
			}
			if l := m.GetAddressList("list"); len(l) > 0 {
				l[0] = addr.Nil
			}
			m.Delete("n")
			mu.Lock()
			delivered[site]++
			mu.Unlock()
		}
	}
	noViews := func(core.View) {}
	sender, err := tc.daemons[1].RegisterProcess(mutating(1), noViews)
	if err != nil {
		t.Fatal(err)
	}
	member, err := tc.daemons[2].RegisterProcess(mutating(2), noViews)
	if err != nil {
		t.Fatal(err)
	}
	view, err := tc.daemons[1].CreateGroup(sender, "owned")
	if err != nil {
		t.Fatal(err)
	}
	gid := view.Group
	if _, err := tc.daemons[2].Join(member, gid, JoinOptions{}); err != nil {
		t.Fatal(err)
	}

	list := addr.List{addr.NewProcess(7, 0, 7), addr.NewGroup(8, 0, 8)}
	payload := func(i int) *msg.Message {
		return msg.New().PutString("body", fmt.Sprintf("m%d", i)).
			PutBytes("data", []byte{byte(i), 1, 2}).PutAddressList("list", list).PutInt("n", int64(i))
	}
	const total = 8
	for i := 0; i < total; i++ {
		proto := CBCAST
		if i%2 == 1 {
			proto = ABCAST
		}
		if _, err := tc.daemons[1].Multicast(sender, proto, addr.List{gid}, addr.EntryUserBase, payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "every message delivered at both sites", 10*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return delivered[1] == total && delivered[2] == total
	})

	for _, site := range []addr.SiteID{1, 2} {
		d := tc.daemons[site]
		d.mu.Lock()
		rep := d.buildReportLocked(d.groups[gid])
		d.mu.Unlock()
		if len(rep.Recent) != total {
			t.Fatalf("site %d reports %d recent packets, want %d", site, len(rep.Recent), total)
		}
		for _, rc := range rep.Recent {
			i := int(rc.ID.Seq) - 1
			got, want := rc.Packet.GetMessage(fPayload), payload(i)
			gotEnc, err := got.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			wantEnc, err := want.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotEnc, wantEnc) {
				t.Errorf("site %d would re-disseminate %s for m%d, want %s", site, got.Format(), i, want.Format())
			}
		}
	}
}

// TestWireNamesAreInterned pins that every "&" field-name constant of this
// package is registered with the decoder, so decoding a packet allocates no
// field name: a packet carrying all of them costs one allocation, the field
// slice. A new wire name left out of wire.go's init fails here.
func TestWireNamesAreInterned(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	pkt := msg.New()
	for _, f := range pkgs["protos"].Files {
		ast.Inspect(f, func(n ast.Node) bool {
			gd, ok := n.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				return true
			}
			for _, spec := range gd.Specs {
				for _, v := range spec.(*ast.ValueSpec).Values {
					if lit, ok := v.(*ast.BasicLit); ok && lit.Kind == token.STRING {
						if s, err := strconv.Unquote(lit.Value); err == nil && len(s) > 1 && s[0] == '&' {
							pkt.PutInt(s, 1)
						}
					}
				}
			}
			return true
		})
	}
	if pkt.Len() < 30 {
		t.Fatalf("found only %d wire names: %v", pkt.Len(), pkt.Names())
	}
	enc, err := pkt.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	const runs = 20
	fresh := make([]*msg.Message, runs+1) // AllocsPerRun adds a warm-up run
	for i := range fresh {
		fresh[i] = msg.New()
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if err := msg.UnmarshalInto(fresh[next], enc); err != nil {
			panic(err)
		}
		next++
	})
	if allocs != 1 {
		t.Errorf("decoding a packet of the %d wire names allocates %.0f times, want 1 (the field slice)", pkt.Len(), allocs)
	}
}
