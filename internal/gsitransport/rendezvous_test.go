package gsitransport

import (
	"errors"
	"testing"
)

// The stripe rendezvous is exercised directly: Join, park, abandon and
// Release are driven in a fixed order, so no case sleeps or shortens
// the join timeout. Connections are distinct placeholders — the
// rendezvous only files them by index.

const alice = "/O=Grid/CN=Alice"

func openGroup(t *testing.T, rv *Rendezvous, count int) *StripeGroup {
	t.Helper()
	g, err := rv.Open(alice, count, "bulk")
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Token()) != StripeTokenLen {
		t.Fatalf("token of %d bytes, want %d", len(g.Token()), StripeTokenLen)
	}
	return g
}

func join(t *testing.T, rv *Rendezvous, g *StripeGroup, idx int) {
	t.Helper()
	if _, err := rv.Join(g.Token(), alice, idx, "bulk", new(Conn)); err != nil {
		t.Fatalf("join stripe %d: %v", idx, err)
	}
}

// park runs a joined stripe's Released in the background; the channel
// delivers whether the transfer ran.
func park(g *StripeGroup) <-chan bool {
	ran := make(chan bool, 1)
	go func() { ran <- g.Released() }()
	return ran
}

func TestRendezvousJoinRefusals(t *testing.T) {
	var rv Rendezvous
	g := openGroup(t, &rv, 2)
	join(t, &rv, g, 0)
	cases := []struct {
		name  string
		token []byte
		owner string
		idx   int
		tag   string
		want  error
	}{
		{"unknown token", make([]byte, StripeTokenLen), alice, 1, "bulk", errUnknownToken},
		{"short token", g.Token()[:8], alice, 1, "bulk", errUnknownToken},
		{"wrong owner", g.Token(), "/O=Grid/CN=Bob", 1, "bulk", errOtherOwner},
		{"tag mismatch", g.Token(), alice, 1, "other", errTagMismatch},
		{"duplicate index", g.Token(), alice, 0, "bulk", errStripeIndex},
		{"index past count", g.Token(), alice, 2, "bulk", errStripeIndex},
		{"negative index", g.Token(), alice, -1, "bulk", errStripeIndex},
	}
	for _, tc := range cases {
		if _, err := rv.Join(tc.token, tc.owner, tc.idx, tc.tag, new(Conn)); !errors.Is(err, tc.want) {
			t.Errorf("%s: Join = %v, want %v", tc.name, err, tc.want)
		}
	}
	// None of the refusals disturbed the group: its last stripe joins
	// and the transfer runs.
	join(t, &rv, g, 1)
	ran0, ran1 := park(g), park(g)
	if !g.Await() {
		t.Fatal("complete group not ready")
	}
	g.Release()
	if !<-ran0 || !<-ran1 {
		t.Fatal("stripes of a transfer that ran released as abandoned")
	}
	// A ready group leaves the rendezvous: its token is spent.
	if _, err := rv.Join(g.Token(), alice, 1, "bulk", new(Conn)); !errors.Is(err, errUnknownToken) {
		t.Fatalf("join after completion = %v, want %v", err, errUnknownToken)
	}
}

// The last stripe wins when it parks before abandon: the transfer runs.
func TestRendezvousLastJoinBeforeAbandon(t *testing.T) {
	var rv Rendezvous
	g := openGroup(t, &rv, 2)
	join(t, &rv, g, 0)
	join(t, &rv, g, 1)
	ran0, ran1 := park(g), park(g)
	<-g.ready
	if g.abandon() {
		t.Fatal("abandon withdrew a group whose last stripe had parked")
	}
	if !g.Await() {
		t.Fatal("Await refused a ready group")
	}
	if c := g.Conns(); len(c) != 2 || c[0] == nil || c[1] == nil {
		t.Fatalf("ready group holds %v", c)
	}
	g.Release()
	if !<-ran0 || !<-ran1 {
		t.Fatal("joined stripe released as abandoned")
	}
}

// Abandon wins when it lands before the last stripe: a late join is
// refused, a late park cannot make the group ready, and every stripe
// that joined is released as abandoned.
func TestRendezvousAbandonBeforeLastJoin(t *testing.T) {
	var rv Rendezvous
	late := openGroup(t, &rv, 2) // the last stripe has not joined
	join(t, &rv, late, 0)
	parked := openGroup(t, &rv, 2) // the last stripe joined, not parked
	join(t, &rv, parked, 0)
	join(t, &rv, parked, 1)
	ran := []<-chan bool{park(late), park(parked)}
	for _, g := range []*StripeGroup{late, parked} {
		if !g.abandon() {
			t.Fatal("abandon lost to a stripe that never parked")
		}
		g.Release()
	}
	if _, err := rv.Join(late.Token(), alice, 1, "bulk", new(Conn)); !errors.Is(err, errUnknownToken) {
		t.Fatalf("late join = %v, want %v", err, errUnknownToken)
	}
	ran = append(ran, park(parked))
	for _, r := range ran {
		if <-r {
			t.Fatal("stripe of an abandoned group released as if the transfer ran")
		}
	}
	select {
	case <-parked.ready:
		t.Fatal("a park after abandon made the group ready")
	default:
	}
}

// At most maxFormingGroups groups form at once; releasing one makes
// room for the next.
func TestRendezvousFormingCap(t *testing.T) {
	var rv Rendezvous
	groups := make([]*StripeGroup, maxFormingGroups)
	for i := range groups {
		groups[i] = openGroup(t, &rv, 1)
	}
	if _, err := rv.Open(alice, 1, "bulk"); !errors.Is(err, errTooManyGroups) {
		t.Fatalf("group %d: Open = %v, want %v", maxFormingGroups+1, err, errTooManyGroups)
	}
	groups[0].Release()
	openGroup(t, &rv, 1)
}
