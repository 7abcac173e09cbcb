package topo

import (
	"reflect"
	"testing"
)

func TestRoundRobin(t *testing.T) {
	var got []string
	for i := 0; i < 4; i++ {
		got = append(got, RoundRobin(i, 2))
	}
	if want := []string{"rack00", "rack01", "rack00", "rack01"}; !reflect.DeepEqual(got, want) {
		t.Errorf("RoundRobin(0..3, 2) = %v, want %v", got, want)
	}
	for _, racks := range []int{0, 1} {
		for i := 0; i < 3; i++ {
			if r := RoundRobin(i, racks); r != "" {
				t.Errorf("RoundRobin(%d, %d) = %q, want \"\" (flat)", i, racks, r)
			}
		}
	}
	if got := RackName(7); got != "rack07" {
		t.Errorf("RackName(7) = %q", got)
	}
}

func TestSpread(t *testing.T) {
	// a c: rack00, b d: rack01, in registration order.
	cand := func(name, rack string, load int64) Candidate { return Candidate{Name: name, Rack: rack, Load: load} }
	for _, tc := range []struct {
		name  string
		cands []Candidate
		have  []string
		want  int
		picks []string
	}{
		{
			name:  "uncovered rack beats a lighter node on a covered rack",
			cands: []Candidate{cand("a", "rack00", 5), cand("b", "rack01", 9), cand("c", "rack00", 1)},
			have:  []string{"a"}, want: 2,
			picks: []string{"b"},
		},
		{
			name:  "least-loaded anywhere once every rack is covered",
			cands: []Candidate{cand("a", "rack00", 5), cand("b", "rack01", 9), cand("c", "rack00", 1), cand("d", "rack01", 3)},
			have:  []string{"a", "b"}, want: 3,
			picks: []string{"c"},
		},
		{
			name:  "earlier-registered node wins a tie",
			cands: []Candidate{cand("a", "rack00", 2), cand("b", "rack01", 1), cand("c", "rack00", 2), cand("d", "rack01", 1)},
			want:  2,
			picks: []string{"b", "a"},
		},
		{
			name:  "fewer candidates than the target",
			cands: []Candidate{cand("a", "rack00", 0), cand("b", "rack01", 0)},
			have:  []string{"a"}, want: 3,
			picks: []string{"b"},
		},
		{
			name:  "target already met",
			cands: []Candidate{cand("a", "rack00", 0), cand("b", "rack01", 0), cand("c", "rack00", 0)},
			have:  []string{"a", "b"}, want: 2,
			picks: nil,
		},
		{
			// "x" holds a copy but drains: it is not a candidate, so
			// its rack01 stays uncovered and it does not count.
			name:  "a draining replica's rack counts as uncovered",
			cands: []Candidate{cand("a", "rack00", 0), cand("c", "rack00", 0), cand("d", "rack01", 7)},
			have:  []string{"a", "x"}, want: 2,
			picks: []string{"d"},
		},
		{
			name:  "flat topology is least-loaded order",
			cands: []Candidate{cand("a", DefaultRack, 3), cand("b", DefaultRack, 1), cand("c", DefaultRack, 2)},
			want:  2,
			picks: []string{"b", "c"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var got []string
			for _, c := range Spread(tc.cands, tc.have, tc.want) {
				got = append(got, c.Name)
			}
			if !reflect.DeepEqual(got, tc.picks) {
				t.Errorf("Spread picks %v, want %v", got, tc.picks)
			}
		})
	}
}

func TestReadOrder(t *testing.T) {
	type replica struct{ node, rack string }
	at := func(r replica) (string, string) { return r.node, r.rack }
	replicas := []replica{{"a", "rack01"}, {"b", "rack00"}, {"c", "rack01"}, {"d", "rack00"}}
	order := func(readerNode, readerRack string) []string {
		var out []string
		for _, r := range ReadOrder(replicas, at, readerNode, readerRack) {
			out = append(out, r.node)
		}
		return out
	}
	for _, tc := range []struct {
		node, rack string
		want       []string
	}{
		{"c", "rack00", []string{"c", "b", "d", "a"}}, // own node, own rack, rest
		{"z", "rack00", []string{"b", "d", "a", "c"}}, // no co-located copy
		{"c", "", []string{"c", "a", "b", "d"}},       // no rack: preferred first
		{"", "", []string{"a", "b", "c", "d"}},        // placement order
	} {
		if got := order(tc.node, tc.rack); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ReadOrder(%q, %q) = %v, want %v", tc.node, tc.rack, got, tc.want)
		}
	}
	if replicas[0].node != "a" {
		t.Error("ReadOrder reordered its input")
	}
}
