package analysis

import (
	"fmt"
	"io"
	"sort"

	"github.com/p2psim/collusion/internal/trace"
)

// InteractionGraph is the undirected rating-interaction graph of
// Figure 1(d): nodes are users, and an edge connects i and j when their
// combined rating traffic crosses a threshold. Its structure exposes
// collusion groups — the paper's key structural finding (C5) is that
// components are paths and stars, never triangles or larger cliques.
type InteractionGraph struct {
	adj map[trace.NodeID]map[trace.NodeID]bool
}

// GraphOptions controls interaction-graph construction.
type GraphOptions struct {
	// EdgeThreshold is the minimum combined (both directions) rating count
	// for an edge; the paper uses 20.
	EdgeThreshold int
	// RequireMutual additionally demands at least one rating in each
	// direction, isolating genuinely reciprocal relationships.
	RequireMutual bool
}

// BuildInteractionGraph constructs the interaction graph of a trace.
func BuildInteractionGraph(t *trace.Trace, opts GraphOptions) *InteractionGraph {
	if opts.EdgeThreshold < 1 {
		opts.EdgeThreshold = 1
	}
	directed := t.CountPairs()
	g := &InteractionGraph{adj: map[trace.NodeID]map[trace.NodeID]bool{}}
	seen := map[[2]trace.NodeID]bool{}
	for p := range directed {
		a, b := p.Rater, p.Target
		if a > b {
			a, b = b, a
		}
		key := [2]trace.NodeID{a, b}
		if seen[key] {
			continue
		}
		seen[key] = true
		fwd := directed[trace.Pair{Rater: a, Target: b}].Total
		rev := directed[trace.Pair{Rater: b, Target: a}].Total
		if fwd+rev < opts.EdgeThreshold {
			continue
		}
		if opts.RequireMutual && (fwd == 0 || rev == 0) {
			continue
		}
		g.addEdge(a, b)
	}
	return g
}

func (g *InteractionGraph) addEdge(a, b trace.NodeID) {
	if g.adj[a] == nil {
		g.adj[a] = map[trace.NodeID]bool{}
	}
	if g.adj[b] == nil {
		g.adj[b] = map[trace.NodeID]bool{}
	}
	g.adj[a][b] = true
	g.adj[b][a] = true
}

// Nodes returns all nodes with at least one edge, ascending.
func (g *InteractionGraph) Nodes() []trace.NodeID {
	out := make([]trace.NodeID, 0, len(g.adj))
	for id := range g.adj {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Edges returns all undirected edges with endpoints ordered ascending,
// sorted lexicographically.
func (g *InteractionGraph) Edges() [][2]trace.NodeID {
	var out [][2]trace.NodeID
	for a, nbrs := range g.adj {
		for b := range nbrs {
			if a < b {
				out = append(out, [2]trace.NodeID{a, b})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// Components returns connected components, each sorted ascending, ordered
// by their smallest member.
func (g *InteractionGraph) Components() [][]trace.NodeID {
	visited := map[trace.NodeID]bool{}
	var comps [][]trace.NodeID
	for _, start := range g.Nodes() {
		if visited[start] {
			continue
		}
		var comp []trace.NodeID
		stack := []trace.NodeID{start}
		visited[start] = true
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, n)
			//colsimlint:ignore maporder comp and comps are both sorted below, so traversal order cannot be observed
			for nbr := range g.adj[n] {
				if !visited[nbr] {
					visited[nbr] = true
					stack = append(stack, nbr)
				}
			}
		}
		sort.Slice(comp, func(i, j int) bool { return comp[i] < comp[j] })
		comps = append(comps, comp)
	}
	sort.Slice(comps, func(i, j int) bool { return comps[i][0] < comps[j][0] })
	return comps
}

// Triangles counts distinct 3-cliques. The paper's C5 analysis rests on
// this being zero for the suspected-colluder subgraph: colluders pair up
// but never form closed groups.
func (g *InteractionGraph) Triangles() int {
	count := 0
	for a, nbrs := range g.adj {
		for b := range nbrs {
			if b <= a {
				continue
			}
			for c := range g.adj[b] {
				if c <= b {
					continue
				}
				if g.adj[a][c] {
					count++
				}
			}
		}
	}
	return count
}

// MaxDegree returns the largest degree in the graph (0 when empty).
func (g *InteractionGraph) MaxDegree() int {
	max := 0
	for _, nbrs := range g.adj {
		if len(nbrs) > max {
			max = len(nbrs)
		}
	}
	return max
}

// PureParity classifies the structure for the Figure 1(d) narrative.
type PureParity struct {
	// IsolatedPairs counts components that are exactly two nodes — the
	// dominant collusion shape.
	IsolatedPairs int
	// ChainComponents counts components of three or more nodes that are
	// still triangle-free (connected "in a pair-wise manner").
	ChainComponents int
	// ClosedGroups counts components containing at least one triangle —
	// true group collusion, which the paper found to be absent.
	ClosedGroups int
}

// ClassifyStructure buckets every component of the graph.
func (g *InteractionGraph) ClassifyStructure() PureParity {
	var out PureParity
	for _, comp := range g.Components() {
		switch {
		case len(comp) == 2:
			out.IsolatedPairs++
		case g.componentHasTriangle(comp):
			out.ClosedGroups++
		default:
			out.ChainComponents++
		}
	}
	return out
}

func (g *InteractionGraph) componentHasTriangle(comp []trace.NodeID) bool {
	inComp := map[trace.NodeID]bool{}
	for _, n := range comp {
		inComp[n] = true
	}
	for _, a := range comp {
		for b := range g.adj[a] {
			if b <= a || !inComp[b] {
				continue
			}
			for c := range g.adj[b] {
				if c <= b || !inComp[c] {
					continue
				}
				if g.adj[a][c] {
					return true
				}
			}
		}
	}
	return false
}

// WriteDOT renders the interaction graph in Graphviz DOT format, with
// suspected colluders (nodes whose every edge is mutual high-frequency
// rating) drawn filled — the presentation of the paper's Figure 1(d).
// Nodes in pairs or chains can be plotted directly with
// `dot -Tsvg` / `neato -Tsvg`.
func (g *InteractionGraph) WriteDOT(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "graph interactions {"); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, "  node [shape=circle, style=filled, fillcolor=gray25, fontcolor=white];"); err != nil {
		return err
	}
	for _, e := range g.Edges() {
		if _, err := fmt.Fprintf(w, "  n%d -- n%d;\n", e[0], e[1]); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}
