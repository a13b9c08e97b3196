package core

import (
	"sort"
	"strconv"

	"github.com/p2psim/collusion/internal/metrics"
	"github.com/p2psim/collusion/internal/obs"
	"github.com/p2psim/collusion/internal/reputation"
)

// Group collusion detection extends the paper's pairwise methods to
// collectives of more than two nodes — the extension the paper names as
// future work ("how to detect a collusion collective having more than two
// nodes such as Sybil attack"). The Overstock analysis (C5) found closed
// groups to be rare in the wild, but a detector that only understands
// pairs is easy to evade: three colluders rating in a ring (1→2→3→1)
// never form a mutual pair and slip through the pairwise methods entirely.
//
// The group detector generalizes the collusion model:
//
//   - C1: every member of the collective is high-reputed;
//   - C3+C4: the collective's internal rating relationships are frequent
//     (>= TN) and almost always positive (>= Ta), forming a strongly
//     connected flooding structure (a pair is the 2-cycle special case);
//   - C2: the ratings members receive from outside the collective are
//     mostly negative (outside positive share < Tb), i.e. each member's
//     reputation is manufactured inside the group.
//
// Detection builds the flooding graph over high-reputed nodes (edge j→i
// when j rates i frequently and almost always positively), decomposes it
// into strongly connected components, and keeps every component of two or
// more nodes whose members fail the outside test. With StrictReverse
// every member must fail the outside test; by default a component is
// flagged when at least one member fails it, mirroring the pairwise
// relaxation that catches compromised pretrusted participants.

// Group is one detected collusion collective.
type Group struct {
	// Members lists the collective's node indices, ascending.
	Members []int
	// InsideRatings is the total number of ratings exchanged inside the
	// collective during the period.
	InsideRatings int
	// OutsidePositiveShare is the positive share of ratings the members
	// received from non-members (the generalized b statistic); zero when
	// the members received no outside ratings at all.
	OutsidePositiveShare float64
}

// GroupResult is the outcome of group detection.
type GroupResult struct {
	// Groups lists detected collectives ordered by their smallest member.
	Groups []Group
	// Flagged[i] reports whether node i belongs to any detected group.
	Flagged []bool
}

// HasGroup reports whether some detected group contains every given node.
func (r GroupResult) HasGroup(nodes ...int) bool {
	for _, g := range r.Groups {
		inGroup := map[int]bool{}
		for _, m := range g.Members {
			inGroup[m] = true
		}
		all := true
		for _, n := range nodes {
			if !inGroup[n] {
				all = false
				break
			}
		}
		if all {
			return true
		}
	}
	return false
}

// GroupDetector finds collusion collectives of size >= 2.
type GroupDetector struct {
	Thresholds Thresholds
	// MaxGroupSize, when positive, skips strongly connected components
	// larger than the cap — a guard against degenerate threshold choices
	// that would connect most of the network. Zero means no cap.
	MaxGroupSize int
	// Meter, if non-nil, accumulates metrics.CostPairCheck per edge
	// examination and metrics.CostMatrixScan per outside-share scan.
	Meter *metrics.CostMeter
	// Trace, if enabled, receives group_edge events for rated high pairs
	// (which C3/C4 gate each candidate flooding edge stopped at),
	// group_member events for each examined collective member's outside
	// test, and one group_audit decision per collective.
	Trace *obs.Tracer
}

// NewGroupDetector returns a group detector with the given thresholds.
func NewGroupDetector(t Thresholds) *GroupDetector {
	return &GroupDetector{Thresholds: t}
}

// Name identifies the method in experiment output.
func (g *GroupDetector) Name() string { return "group" }

// Detect derives high-reputed candidates from summation scores and
// searches them for collusion collectives.
func (g *GroupDetector) Detect(l *reputation.Ledger) GroupResult {
	auditCandidates(g.Trace, g.Name(), l, g.Thresholds.TR)
	return g.DetectAmong(l, summationCandidates(l, g.Thresholds.TR))
}

// DetectAmong searches only the given candidate nodes.
func (g *GroupDetector) DetectAmong(l *reputation.Ledger, candidates []int) GroupResult {
	n := l.Size()
	res := GroupResult{Flagged: make([]bool, n)}
	high := make([]bool, n)
	var nodes []int
	for _, c := range candidates {
		if c >= 0 && c < n && !high[c] {
			high[c] = true
			nodes = append(nodes, c)
		}
	}
	sort.Ints(nodes)

	// Flooding graph over high-reputed nodes: edge rater→target when the
	// rating relationship is frequent and almost always positive.
	adj := make(map[int][]int, len(nodes)) // rater -> targets
	radj := make(map[int][]int, len(nodes))
	tracing := g.Trace.Enabled()
	for _, target := range nodes {
		// The dense scan examines every other candidate rater; unrated
		// pairs stop at the frequency gate unaudited (they are the
		// overwhelmingly common case and carry no information), so only
		// target's adjacency — already ascending, like nodes — needs
		// visiting, with the zero-count examinations charged in bulk.
		g.charge(metrics.CostPairCheck, int64(len(nodes)-1))
		pc := l.PairCountsOf(target)
		for k, r32 := range pc.Raters {
			rater := int(r32)
			if !high[rater] {
				continue
			}
			cnt := int(pc.Total[k])
			if cnt < g.Thresholds.TN {
				if tracing {
					g.auditEdge(l, target, rater, cnt, obs.GateTN)
				}
				continue
			}
			if float64(pc.Pos[k])/float64(cnt) < g.Thresholds.Ta {
				if tracing {
					g.auditEdge(l, target, rater, cnt, obs.GateTA)
				}
				continue
			}
			if tracing {
				g.auditEdge(l, target, rater, cnt, obs.GateFlagged)
			}
			adj[rater] = append(adj[rater], target)
			radj[target] = append(radj[target], rater)
		}
	}

	// Strongly connected components of size >= 2 are flooding collectives.
	for _, comp := range stronglyConnected(nodes, adj, radj) {
		if len(comp) < 2 {
			continue
		}
		if g.MaxGroupSize > 0 && len(comp) > g.MaxGroupSize {
			continue
		}
		group, suspicious := g.examine(l, comp)
		if suspicious {
			res.Groups = append(res.Groups, group)
			for _, m := range group.Members {
				res.Flagged[m] = true
			}
		}
	}
	sort.Slice(res.Groups, func(i, j int) bool {
		return res.Groups[i].Members[0] < res.Groups[j].Members[0]
	})
	return res
}

// examine applies the generalized outside test (C2) to one flooding
// collective and assembles its evidence.
func (g *GroupDetector) examine(l *reputation.Ledger, comp []int) (Group, bool) {
	members := append([]int(nil), comp...)
	sort.Ints(members)
	inGroup := make(map[int]bool, len(members))
	for _, m := range members {
		inGroup[m] = true
	}
	grp := Group{Members: members}

	outsideTotal, outsidePos := 0, 0
	failing := 0
	n := l.Size()
	for _, m := range members {
		// The outside test conceptually scans m's whole matrix row (charged
		// dense below); only the nonzero elements — m's adjacency —
		// contribute to the sums.
		memberOutTotal, memberOutPos := 0, 0
		pc := l.PairCountsOf(m)
		for k, r32 := range pc.Raters {
			cnt := int(pc.Total[k])
			if inGroup[int(r32)] {
				grp.InsideRatings += cnt
				continue
			}
			memberOutTotal += cnt
			memberOutPos += int(pc.Pos[k])
		}
		g.charge(metrics.CostMatrixScan, int64(n))
		outsideTotal += memberOutTotal
		outsidePos += memberOutPos
		// A member with no outside ratings is maximally suspicious: its
		// whole reputation is internal to the collective.
		memberFails := memberOutTotal == 0 ||
			float64(memberOutPos)/float64(memberOutTotal) < g.Thresholds.Tb
		if memberFails {
			failing++
		}
		if g.Trace.Enabled() {
			g.Trace.Emit("group_member",
				obs.Str("detector", g.Name()),
				obs.Int("node", m),
				obs.Int("out_pos", memberOutPos),
				obs.Int("out_tot", memberOutTotal),
				obs.Float("t_b", g.Thresholds.Tb),
				obs.Bool("fails_outside", memberFails))
		}
	}
	if outsideTotal > 0 {
		grp.OutsidePositiveShare = float64(outsidePos) / float64(outsideTotal)
	}
	suspicious := failing > 0
	if g.Thresholds.StrictReverse {
		suspicious = failing == len(members)
	}
	// Default: at least one member must look propped-up — the same
	// relaxation as the pairwise rule, so a collective that recruited
	// clean-looking members (the compromised-pretrust pattern) is still
	// caught, and every pairwise detection is covered by a group.
	if g.Trace.Enabled() {
		g.Trace.Emit("group_audit",
			obs.Str("detector", g.Name()),
			obs.Str("members", intsString(members)),
			obs.Int("inside_ratings", grp.InsideRatings),
			obs.Float("outside_share", grp.OutsidePositiveShare),
			obs.Int("failing", failing),
			obs.Bool("flagged", suspicious))
	}
	return grp, suspicious
}

// auditEdge emits one group_edge event for a rated candidate flooding
// edge rater→target.
func (g *GroupDetector) auditEdge(l *reputation.Ledger, target, rater, cnt int, gate string) {
	g.Trace.Emit("group_edge",
		obs.Str("detector", g.Name()),
		obs.Int("target", target),
		obs.Int("rater", rater),
		obs.Int("n", cnt),
		obs.Float("a", float64(l.PairPositive(target, rater))/float64(cnt)),
		obs.Str("gate", gate))
}

// intsString renders node indices as a comma-separated list for event
// attributes.
func intsString(xs []int) string {
	var b []byte
	for k, x := range xs {
		if k > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(x), 10)
	}
	return string(b)
}

func (g *GroupDetector) charge(name string, n int64) {
	if g.Meter != nil {
		g.Meter.Add(name, n)
	}
}

// stronglyConnected returns the strongly connected components of the
// directed graph over nodes, using Tarjan's algorithm iteratively.
func stronglyConnected(nodes []int, adj, radj map[int][]int) [][]int {
	// Kosaraju: order by finish time on the forward graph, then collect
	// components on the reverse graph. Iterative to avoid deep recursion.
	visited := make(map[int]bool, len(nodes))
	var order []int
	for _, start := range nodes {
		if visited[start] {
			continue
		}
		// Iterative DFS with explicit post-order.
		type frame struct {
			node int
			next int
		}
		stack := []frame{{node: start}}
		visited[start] = true
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			targets := adj[f.node]
			advanced := false
			for f.next < len(targets) {
				t := targets[f.next]
				f.next++
				if !visited[t] {
					visited[t] = true
					stack = append(stack, frame{node: t})
					advanced = true
					break
				}
			}
			if !advanced && f.next >= len(targets) {
				order = append(order, f.node)
				stack = stack[:len(stack)-1]
			}
		}
	}

	assigned := make(map[int]bool, len(nodes))
	var comps [][]int
	for i := len(order) - 1; i >= 0; i-- {
		root := order[i]
		if assigned[root] {
			continue
		}
		comp := []int{root}
		assigned[root] = true
		stack := []int{root}
		for len(stack) > 0 {
			node := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, p := range radj[node] {
				if !assigned[p] {
					assigned[p] = true
					comp = append(comp, p)
					stack = append(stack, p)
				}
			}
		}
		comps = append(comps, comp)
	}
	return comps
}
