package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"net/netip"
	"sort"
	"time"

	"edgefabric/internal/core"
	"edgefabric/internal/rib"
)

// overrideSet is an override set as the routers see it: prefix → the
// next hop traffic is steered to.
type overrideSet map[netip.Prefix]netip.Addr

// installedSet renders the controller's announced set.
func installedSet(ctrl *core.Controller) overrideSet {
	inst := ctrl.Installed()
	out := make(overrideSet, len(inst))
	for p, o := range inst {
		out[p] = o.Via.NextHop
	}
	return out
}

// reportSet renders a cycle report's desired set.
func reportSet(r *core.CycleReport) overrideSet {
	out := make(overrideSet, len(r.Overrides))
	for _, o := range r.Overrides {
		out[o.Prefix] = o.Via.NextHop
	}
	return out
}

// controllerRoutes renders the controller routes a router table holds.
func controllerRoutes(t *rib.Table) overrideSet {
	out := make(overrideSet)
	t.EachRoutes(func(p netip.Prefix, rs []*rib.Route) {
		for _, r := range rs {
			if r.PeerClass == rib.ClassController {
				out[p] = r.NextHop
			}
		}
	})
	return out
}

func (a overrideSet) equal(b overrideSet) bool {
	if len(a) != len(b) {
		return false
	}
	for p, nh := range a {
		if got, ok := b[p]; !ok || got != nh {
			return false
		}
	}
	return true
}

// waitTable blocks until view() equals want, re-checking on every
// mutation of t, and reports whether it did before the timeout.
func waitTable(t *rib.Table, want overrideSet, view func() overrideSet, timeout time.Duration) bool {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	for {
		ver := t.Version()
		if view().equal(want) {
			return true
		}
		if err := t.WaitChange(ctx, ver); err != nil {
			return false
		}
	}
}

// digest folds a run's sequence of override sets into one hash, so two
// runs with the same seed can be compared byte for byte. Only the
// first limit cycles count: a timed run's cycle count varies.
type digest struct {
	h      hash.Hash
	limit  int
	cycles int
}

func newDigest(limit int) *digest { return &digest{h: sha256.New(), limit: limit} }

// add folds one override set, labelled by its member (empty for a
// single PoP). A fleet round adds every member, then calls endCycle.
func (d *digest) add(member string, s overrideSet) {
	if d.cycles >= d.limit {
		return
	}
	ps := make([]netip.Prefix, 0, len(s))
	for p := range s {
		ps = append(ps, p)
	}
	rib.SortPrefixes(ps)
	fmt.Fprintf(d.h, "%s:%d\n", member, len(ps))
	for _, p := range ps {
		fmt.Fprintf(d.h, "%s>%s\n", p, s[p])
	}
}

func (d *digest) endCycle() { d.cycles++ }

func (d *digest) String() string {
	return fmt.Sprintf("%s over %d cycles", hex.EncodeToString(d.h.Sum(nil))[:16], min(d.cycles, d.limit))
}

// sortedNames returns the keys of a count map in order.
func sortedNames(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
