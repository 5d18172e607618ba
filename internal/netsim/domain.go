package netsim

import (
	"slices"

	"dctraffic/internal/topology"
)

// Event domains lay out the simulation's mutable per-flow and per-link
// state by rack, mirroring the paper's work-seeks-bandwidth locality:
// most flows live entirely inside one rack.
//
// Domain 0 (the core domain) owns the agg, core and external links plus
// every flow that crosses the rack boundary; domain r+1 owns rack r's
// server up/downlinks and ToR up/downlinks plus its intra-rack flows.
//
// The partition is the event loop's data layout, not a unit of
// concurrency: every phase of an allocation step runs on the event-loop
// goroutine. It still fixes results. advance folds the per-domain byte
// partials into Network.totalBytes in domain order, and each domain's
// flow list fixes the order its floats are evaluated in; every pinned
// trace digest was taken with that order. The partition is a pure
// function of the topology and each flow's endpoints.
//
// Completion detection and callback delivery do not use the partition
// (see completeFinished): the workload layers draw RNG state inside
// completion callbacks, so their order is trajectory-defining and
// follows the active-scan order.
type domain struct {
	// flows owned by this domain. Maintained by StartFlow/retire; order
	// is deterministic (insertion with swap-removal), which fixes this
	// domain's float evaluation order.
	flows []*Flow

	// activeLinks lists owned links with a nonzero allocated rate
	// (Network.linkActivePos holds each link's index here). Maintained
	// by publish.
	activeLinks []topology.LinkID
}

// coreDomain owns the shared fabric: agg/core/external links and every
// flow whose path leaves its source rack.
const coreDomain = 0

// buildDomains sizes the domain set (racks + 1) and maps every link to
// its owner. The mapping is total: links not claimed by a rack default
// to the core domain.
func (n *Network) buildDomains(top *topology.Topology) {
	n.doms = make([]domain, top.NumRacks()+1)
	n.linkDomain = make([]int32, top.NumLinks())
	for s := 0; s < top.NumServers(); s++ {
		sid := topology.ServerID(s)
		d := int32(top.Rack(sid)) + 1
		n.linkDomain[top.ServerUplink(sid)] = d
		n.linkDomain[top.ServerDownlink(sid)] = d
	}
	for r := 0; r < top.NumRacks(); r++ {
		rid := topology.RackID(r)
		for _, l := range top.TorUplinks(rid) {
			n.linkDomain[l] = int32(r) + 1
		}
		for _, l := range top.TorDownlinks(rid) {
			n.linkDomain[l] = int32(r) + 1
		}
	}
}

// flowDomain assigns a flow's owner: its rack when the transfer stays
// inside one rack (including loopback), the core domain otherwise.
func (n *Network) flowDomain(src, dst topology.ServerID) int32 {
	if r := n.top.Rack(src); r >= 0 && (src == dst || n.top.Rack(dst) == r) {
		return int32(r) + 1
	}
	return coreDomain
}

// advanceDomain accrues flow progress and owned-link bytes from the
// last advance to now under the rates frozen at the last recompute, and
// returns the bytes the domain's flows moved.
func (n *Network) advanceDomain(d *domain, from, now Time, dt float64) float64 {
	for _, l := range d.activeLinks {
		r := n.linkRateB[l]
		n.linkBytes[l] += r * dt
		if n.stats != nil {
			n.stats.record(l, from, now, r)
		}
	}
	part := 0.0
	for _, f := range d.flows {
		if f.rate > 0 {
			moved := f.rate * dt
			if moved > f.remaining {
				moved = f.remaining
			}
			f.remaining -= moved
			part += moved
		}
	}
	return part
}

// component is one link-sharing-connected set of dirty links, the unit
// of incremental max-min re-solving. Components are link- and
// flow-disjoint by construction, so each solves independently.
type component struct {
	links    []topology.LinkID // ascending id order, closed under link sharing
	unfrozen int               // distinct flows on links
}

// gatherComponents consumes the dirty-link seeds and returns the
// connected components (over link sharing) containing them, each closed
// and sorted. Seeds are sorted first so component enumeration order —
// and therefore every downstream merge — is canonical.
func (n *Network) gatherComponents() []component {
	if len(n.seedLinks) == 0 {
		return nil
	}
	slices.Sort(n.seedLinks)
	n.compGen++
	gen := n.compGen
	comps := n.comps[:0]
	for _, seed := range n.seedLinks {
		n.seedMark[seed] = false
		if n.linkComp[seed] == gen {
			continue
		}
		if len(comps) < cap(comps) {
			comps = comps[:len(comps)+1]
			c := &comps[len(comps)-1]
			c.links = c.links[:0]
			c.unfrozen = 0
		} else {
			comps = append(comps, component{})
		}
		c := &comps[len(comps)-1]
		n.linkComp[seed] = gen
		c.links = append(c.links, seed)
		// Close over link sharing: c.links doubles as the BFS frontier.
		for i := 0; i < len(c.links); i++ {
			l := c.links[i]
			for _, f := range n.linkFlows[l] {
				if f.mark == gen {
					continue
				}
				f.mark = gen
				f.frozen = false
				c.unfrozen++
				for _, pl := range f.path {
					if n.linkComp[pl] != gen {
						n.linkComp[pl] = gen
						c.links = append(c.links, pl)
					}
				}
			}
		}
		// Canonical link order keeps bottleneck tie-breaking (and
		// therefore floating-point rounding) identical to a full
		// re-solve.
		slices.Sort(c.links)
	}
	n.seedLinks = n.seedLinks[:0]
	n.comps = comps
	return comps
}
