// Package topo is the cluster's rack model: rack names, the
// round-robin rack assignment, the HDFS replica-placement rule
// (Spread) and the nearest-first replica read order (ReadOrder). Both
// DFS NameNodes (internal/hdfs and the netmr NameNode) place and
// repair replicas through Spread, and the readers (hdfs.Reader, the
// netmr TaskTrackers) order replica fetches through ReadOrder, so
// every plane agrees on where a copy belongs and what "near" means.
//
// A node nobody assigned a rack to lands in DefaultRack, which
// reproduces the flat pre-rack topology: every node shares one rack,
// so rack-spread placement degenerates to least-loaded placement and
// rack-locality to "anywhere".
package topo

import (
	"fmt"
	"slices"
)

// DefaultRack is the rack of nodes never assigned one. A flat cluster
// keeps every node here, making all pairs rack-local.
const DefaultRack = "rack00"

// RackName returns the canonical name of rack i ("rack00", "rack01",
// ...), the scheme RoundRobin deals.
func RackName(i int) string { return fmt.Sprintf("rack%02d", i) }

// RoundRobin names node i's rack when nodes are dealt round-robin over
// racks (node i on rack i%racks). racks < 2 returns "": no rack
// assigned, which every consumer reads as the flat DefaultRack.
func RoundRobin(i, racks int) string {
	if racks < 2 {
		return ""
	}
	return RackName(i % racks)
}

// Candidate is one node a replica may land on.
type Candidate struct {
	Name string
	Rack string
	// Load is the caller's load measure (bytes stored, replica count,
	// ...); the lighter node wins.
	Load int64
}

// Spread picks the homes of a block's next replicas by HDFS's
// rack-spread rule: each pick is the least-loaded candidate on a rack
// no replica covers yet, else the least-loaded candidate anywhere.
// Ties go to the earlier candidate, so cands must be in registration
// order for placement to be deterministic.
//
// have names the block's current replicas. Only those among cands
// count toward want and cover their rack; a replica on a node that is
// not a candidate (draining, dead, gone) is neither. Spread returns
// the picks that bring the counted replicas up to want, fewer when the
// candidates run out, and never a node have already names.
func Spread(cands []Candidate, have []string, want int) []Candidate {
	taken := make(map[string]bool, len(have)+want)
	covered := make(map[string]bool, want)
	n := 0
	for _, c := range cands {
		if slices.Contains(have, c.Name) {
			taken[c.Name], covered[c.Rack] = true, true
			n++
		}
	}
	var picks []Candidate
	for ; n < want; n++ {
		best := -1
		for i, c := range cands {
			if taken[c.Name] {
				continue
			}
			if best < 0 {
				best = i
				continue
			}
			off, bestOff := !covered[c.Rack], !covered[cands[best].Rack]
			if off && !bestOff || off == bestOff && c.Load < cands[best].Load {
				best = i
			}
		}
		if best < 0 {
			break
		}
		c := cands[best]
		picks = append(picks, c)
		taken[c.Name], covered[c.Rack] = true, true
	}
	return picks
}

// Nearness grades a replica as seen from a reader.
type Nearness int

const (
	// OnNode is a replica on the reader's own node.
	OnNode Nearness = iota
	// OnRack is a replica elsewhere on the reader's rack.
	OnRack
	// OffRack is a replica anywhere else.
	OffRack
)

// Near grades a replica on node/rack for a reader on readerNode at
// readerRack. An empty readerRack has no rack tier: every other node
// is OffRack.
func Near(node, rack, readerNode, readerRack string) Nearness {
	switch {
	case node == readerNode:
		return OnNode
	case readerRack != "" && rack == readerRack:
		return OnRack
	}
	return OffRack
}

// ReadOrder returns replicas nearest first for a reader on readerNode
// at readerRack: the replica on the reader's node, then those on its
// rack, then the rest, each tier in the given placement order. at
// reports a replica's node and rack.
func ReadOrder[R any](replicas []R, at func(R) (node, rack string), readerNode, readerRack string) []R {
	near := func(r R) Nearness {
		node, rack := at(r)
		return Near(node, rack, readerNode, readerRack)
	}
	out := slices.Clone(replicas)
	slices.SortStableFunc(out, func(a, b R) int { return int(near(a) - near(b)) })
	return out
}
