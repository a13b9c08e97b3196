package core

import (
	"fmt"
	"slices"

	"github.com/p2psim/collusion/internal/dht"
	"github.com/p2psim/collusion/internal/metrics"
	"github.com/p2psim/collusion/internal/obs"
	"github.com/p2psim/collusion/internal/reputation"
)

// Kind selects which detection method a manager ring runs.
type Kind int

// Detection method kinds.
const (
	KindBasic Kind = iota
	KindOptimized
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	if k == KindBasic {
		return "unoptimized"
	}
	return "optimized"
}

// ManagerRing distributes the centralized reputation manager's role over a
// set of reputation managers organized in a Chord DHT, as in Sections
// IV-A/B of the paper. The manager of rated node i is the DHT owner of
// hash(i); it holds i's matrix row (all ratings received by i). During
// detection, when a suspicion involves a node managed elsewhere, the
// manager contacts that node's manager through the DHT (the paper's
// Insert(j, msg) step) for the symmetric check; those request/response
// exchanges are charged to metrics.CostManagerMessage and the underlying
// routing hops to metrics.CostDHTMessage. The DHT only routes: every
// manager keeps its rows, and its predecessor's replicas, in ledgers of
// its own.
type ManagerRing struct {
	ring       *dht.Ring
	managers   map[dht.ID]*manager
	population int
	keys       []dht.ID   // DHT key per rated node
	ownerOf    []*manager // manager per rated node
	th         Thresholds
	meter      *metrics.CostMeter

	// Trace, if enabled, receives one manager_audit event per initiated
	// suspicion (the request/response exchange of the distributed
	// protocol), recording the initiating manager, whether the exchange
	// crossed managers, and the outcome.
	Trace *obs.Tracer
	// Spans, if enabled, brackets every Detect pass in a
	// "manager.exchange" span carrying the detected-pair count and the
	// manager-message delta the protocol exchanged — deterministic
	// functions of the recorded ratings.
	Spans *obs.SpanTracer
}

// Observe wires the registry's dht.lookup_hops histogram into the ring so
// every routed lookup records its hop count. A nil registry is a no-op.
func (mr *ManagerRing) Observe(reg *obs.Registry) {
	if reg == nil {
		return
	}
	mr.ring.SetHopObserver(reg.Histogram("dht.lookup_hops"))
}

// manager is one reputation manager: a DHT node, the rated nodes it is
// responsible for, and two population-sized ledgers. rows holds the matrix
// rows of its responsible nodes and nothing else; replicas mirrors the
// rows of its predecessor manager, so that a crash of the predecessor
// loses nothing.
type manager struct {
	node           *dht.Node
	responsible    []int
	rows, replicas *reputation.Ledger
}

// NewManagerRing builds a ring of numManagers reputation managers over a
// rated population of the given size. The meter, if non-nil, receives DHT
// and manager message counts.
func NewManagerRing(numManagers, population int, th Thresholds, meter *metrics.CostMeter) (*ManagerRing, error) {
	if numManagers < 1 {
		return nil, fmt.Errorf("core: numManagers = %d, want >= 1", numManagers)
	}
	if population < 1 {
		return nil, fmt.Errorf("core: population = %d, want >= 1", population)
	}
	if err := th.Validate(); err != nil {
		return nil, err
	}
	ring, err := dht.NewRing(32, meter)
	if err != nil {
		return nil, err
	}
	mr := &ManagerRing{
		ring:       ring,
		managers:   map[dht.ID]*manager{},
		population: population,
		keys:       make([]dht.ID, population),
		ownerOf:    make([]*manager, population),
		th:         th,
		meter:      meter,
	}
	for k := 0; k < numManagers; k++ {
		name := fmt.Sprintf("manager-%d", k)
		node, err := ring.AddNode(name)
		if err != nil {
			// Hash collisions are vanishingly rare in a 32-bit space; retry
			// with a salted name rather than failing setup.
			node, err = ring.AddNode(name + "-salt")
			if err != nil {
				return nil, err
			}
		}
		mr.managers[node.ID()] = &manager{
			node:     node,
			rows:     reputation.NewLedger(population),
			replicas: reputation.NewLedger(population),
		}
	}
	space := ring.Space()
	for i := 0; i < population; i++ {
		mr.keys[i] = space.HashInt(i)
	}
	if err := mr.assign(); err != nil {
		return nil, err
	}
	return mr, nil
}

// assign recomputes which manager is responsible for each rated node from
// the ring's current ownership.
func (mr *ManagerRing) assign() error {
	for _, m := range mr.managers {
		m.responsible = m.responsible[:0]
	}
	for i := 0; i < mr.population; i++ {
		owner, err := mr.ring.Owner(mr.keys[i])
		if err != nil {
			return err
		}
		m := mr.managers[owner.ID()]
		m.responsible = append(m.responsible, i)
		mr.ownerOf[i] = m
	}
	return nil
}

// Managers returns the number of reputation managers on the ring.
func (mr *ManagerRing) Managers() int { return len(mr.managers) }

// ManagerOf returns the name of the manager responsible for rated node i.
func (mr *ManagerRing) ManagerOf(i int) (string, error) {
	if i < 0 || i >= mr.population {
		return "", fmt.Errorf("core: node %d outside population [0,%d)", i, mr.population)
	}
	return mr.ownerOf[i].node.Name(), nil
}

// Record reports one rating: it is routed through the DHT to the target's
// reputation manager, which updates the target's matrix row. Routing hops
// are charged to the meter by the underlying ring.
func (mr *ManagerRing) Record(rater, target, polarity int) error {
	if rater < 0 || rater >= mr.population || target < 0 || target >= mr.population {
		return fmt.Errorf("core: Record(%d, %d) outside population [0,%d)", rater, target, mr.population)
	}
	if rater == target {
		return fmt.Errorf("core: node %d rated itself", rater)
	}
	if polarity < -1 || polarity > 1 {
		return fmt.Errorf("core: polarity %d, want -1, 0 or 1", polarity)
	}
	// Route the rating to the manager (the paper's Insert(ID_i, r_i)).
	owner, _, err := mr.ring.FindSuccessor(nil, mr.keys[target])
	if err != nil {
		return err
	}
	mr.store(mr.managers[owner.ID()], rater, target, polarity, 1)
	return nil
}

// store folds times identical ratings into target's row at its manager m,
// and mirrors them onto the replicas of m's successor so the row survives
// a crash of m (single-manager rings have nobody to mirror to).
func (mr *ManagerRing) store(m *manager, rater, target, polarity, times int) {
	backup := mr.successorManager(m)
	for ; times > 0; times-- {
		m.rows.Record(rater, target, polarity)
		if backup != nil {
			backup.replicas.Record(rater, target, polarity)
		}
	}
}

// successorManager returns the manager following m on the ring, or nil
// when m is the only manager.
func (mr *ManagerRing) successorManager(m *manager) *manager {
	succ := m.node.Successor()
	if succ == nil || succ == m.node {
		return nil
	}
	return mr.managers[succ.ID()]
}

// FailManager crashes the named reputation manager: its DHT node fails,
// responsibility moves to the surviving owners, and the failed manager's
// rows are recovered from the replicas its successor held. It returns an
// error for unknown managers or when it would leave the ring empty.
func (mr *ManagerRing) FailManager(name string) error {
	var victim *manager
	for _, m := range mr.managers {
		if m.node.Name() == name {
			victim = m
			break
		}
	}
	if victim == nil {
		return fmt.Errorf("core: no manager named %q", name)
	}
	if len(mr.managers) == 1 {
		return fmt.Errorf("core: cannot fail the last manager")
	}
	// The successor holds the victim's replicas; capture it before the
	// topology changes.
	backup := mr.successorManager(victim)
	if err := mr.ring.Fail(victim.node.ID()); err != nil {
		return err
	}
	delete(mr.managers, victim.node.ID())
	if err := mr.assign(); err != nil {
		return err
	}
	// Chord hands exactly the victim's keys to its successor, and that
	// successor's replicas are exactly the victim's rows: promote them.
	if err := backup.rows.Merge(backup.replicas); err != nil {
		return err
	}
	// Rebuild every replica set for the new topology.
	for _, m := range mr.managers {
		m.replicas.Reset()
	}
	for _, m := range mr.managers {
		if b := mr.successorManager(m); b != nil {
			m.rows.CloneInto(b.replicas)
		}
	}
	return nil
}

// RecordLedger bulk-loads a full ledger into the managers, charging no
// routing cost; experiments use it to compare centralized and
// decentralized detection on identical data.
func (mr *ManagerRing) RecordLedger(l *reputation.Ledger) error {
	if l.Size() != mr.population {
		return fmt.Errorf("core: ledger size %d != population %d", l.Size(), mr.population)
	}
	for target := 0; target < mr.population; target++ {
		m := mr.ownerOf[target]
		pc := l.PairCountsOf(target)
		for k, r32 := range pc.Raters {
			rater, pos, neg := int(r32), int(pc.Pos[k]), int(pc.Neg[k])
			mr.store(m, rater, target, 1, pos)
			mr.store(m, rater, target, -1, neg)
			mr.store(m, rater, target, 0, int(pc.Total[k])-pos-neg)
		}
	}
	return nil
}

// ResetPeriod clears all manager rows for a new period T.
func (mr *ManagerRing) ResetPeriod() {
	for _, m := range mr.managers {
		m.rows.Reset()
		m.replicas.Reset()
	}
}

// Detect runs the distributed detection protocol with the selected method
// and aggregates every manager's findings.
func (mr *ManagerRing) Detect(kind Kind) Result {
	if !mr.Spans.Enabled() {
		return mr.detect(kind)
	}
	before := mr.managerMessages()
	mr.Spans.Begin("manager.exchange")
	res := mr.detect(kind)
	mr.Spans.End("manager.exchange",
		obs.Int("pairs", len(res.Pairs)),
		obs.I64("messages", mr.managerMessages()-before))
	return res
}

// managerMessages reads the meter's manager-message count (0 without a
// meter), so the manager.exchange span can carry the protocol's exact
// request/response volume.
func (mr *ManagerRing) managerMessages() int64 {
	if mr.meter == nil {
		return 0
	}
	return mr.meter.Get(metrics.CostManagerMessage)
}

// detect is the span-free protocol pass shared by both entry paths.
func (mr *ManagerRing) detect(kind Kind) Result {
	res := Result{Flagged: make([]bool, mr.population)}
	// Deterministic manager order.
	ids := make([]dht.ID, 0, len(mr.managers))
	for id := range mr.managers {
		ids = append(ids, id)
	}
	slices.Sort(ids)

	for _, id := range ids {
		m := mr.managers[id]
		for _, target := range m.responsible {
			if float64(m.rows.SummationScore(target)) < mr.th.TR {
				continue
			}
			mr.scanTarget(kind, m, target, &res)
		}
	}
	mr.associationSweep(&res)
	res.sortPairs()
	return res
}

// associationSweep is the distributed counterpart of the centralized
// sweep: detected colluder identities are published to the managers (their
// reputations are zeroed anyway), and each colluder's manager checks the
// colluder's frequent almost-always-positive raters for reciprocation,
// contacting the rater's manager when it lives elsewhere.
func (mr *ManagerRing) associationSweep(res *Result) {
	if mr.th.StrictReverse {
		return
	}
	queue := res.FlaggedNodes()
	inQueue := make(map[int]bool, len(queue))
	for _, c := range queue {
		inQueue[c] = true
	}
	for len(queue) > 0 {
		c := queue[0]
		queue = queue[1:]
		m := mr.ownerOf[c]
		pc := m.rows.PairCountsOf(c)
		for k, x32 := range pc.Raters {
			x := int(x32)
			if res.HasPair(c, x) {
				continue
			}
			mr.charge(metrics.CostPairCheck, 1)
			ncx := int(pc.Total[k])
			if ncx < mr.th.TN || float64(pc.Pos[k])/float64(ncx) < mr.th.Ta {
				continue
			}
			other := mr.ownerOf[x]
			if other != m {
				mr.routeMessage(m, x)
				mr.charge(metrics.CostManagerMessage, 1)
			}
			nxc := other.rows.PairTotal(x, c)
			reciprocates := nxc >= mr.th.TN && float64(other.rows.PairPositive(x, c))/float64(nxc) >= mr.th.Ta
			if other != m {
				mr.routeMessage(other, c)
				mr.charge(metrics.CostManagerMessage, 1)
			}
			if reciprocates {
				res.insertPair(pairEvidence(m.rows, c, other.rows, x))
				if !inQueue[x] {
					inQueue[x] = true
					queue = append(queue, x)
				}
			}
		}
	}
}

// scanTarget examines every rater of one responsible high-reputed node and
// initiates the symmetric check — local or via a manager-to-manager
// exchange — whenever its own side of the collusion model holds.
func (mr *ManagerRing) scanTarget(kind Kind, m *manager, target int, res *Result) {
	pc := m.rows.PairCountsOf(target)
	for k, r32 := range pc.Raters {
		rater := int(r32)
		mr.charge(metrics.CostPairCheck, 1)
		if !mr.initiates(kind, m.rows, target, int(pc.Total[k]), int(pc.Pos[k])) {
			continue
		}
		// Symmetric check: local if this manager also owns the rater,
		// otherwise a request/response exchange with the rater's manager.
		other := mr.ownerOf[rater]
		if other != m {
			mr.routeMessage(m, rater) // request
			mr.charge(metrics.CostManagerMessage, 1)
		}
		positive := float64(other.rows.SummationScore(rater)) >= mr.th.TR &&
			mr.confirms(kind, other.rows, rater, target)
		if other != m {
			mr.routeMessage(other, target) // response
			mr.charge(metrics.CostManagerMessage, 1)
		}
		if mr.Trace.Enabled() {
			gate := obs.GateFlagged
			if !positive {
				gate = "not_confirmed"
			}
			mr.Trace.Emit("manager_audit",
				obs.Str("manager", m.node.Name()),
				obs.Int("target", target),
				obs.Int("rater", rater),
				obs.Bool("cross_manager", other != m),
				obs.Str("gate", gate))
		}
		if positive {
			res.insertPair(pairEvidence(m.rows, target, other.rows, rater))
		}
	}
}

// initiates reports whether the initiating side of the protocol holds for
// target's row in rows: the rater, whose pair counts are nij and posij, is
// frequent and the manager's own side of the collusion model is satisfied.
func (mr *ManagerRing) initiates(kind Kind, rows *reputation.Ledger, target, nij, posij int) bool {
	if nij < mr.th.TN {
		return false
	}
	recip := float64(posij)/float64(nij) >= mr.th.Ta
	if kind == KindBasic {
		// The unoptimized method computes the outside share for every
		// frequent rater (the cost Formula (2) eliminates): the manager
		// pays a scan of the whole row, read here in O(1) off the totals.
		mr.charge(metrics.CostMatrixScan, int64(len(rows.RatersOf(target))))
		return recip && outsideLow(mr.th.Tb, rows.TotalFor(target)-nij, rows.PositiveFor(target)-posij)
	}
	if !mr.th.StrictReverse && !recip {
		return false
	}
	mr.charge(metrics.CostBoundCheck, 1)
	return mr.th.BoundsHold(float64(rows.SummationScore(target)), rows.TotalFor(target), nij)
}

// confirms reports whether the responding manager, holding node's row in
// rows, validates the reverse direction of a suspicion about node and
// partner. Under the strict (literal) rule it repeats the full one-sided
// test; under the default rule it verifies only frequent,
// almost-always-positive reciprocation.
func (mr *ManagerRing) confirms(kind Kind, rows *reputation.Ledger, node, partner int) bool {
	nji := rows.PairTotal(node, partner)
	if nji < mr.th.TN {
		return false
	}
	posji := rows.PairPositive(node, partner)
	recip := float64(posji)/float64(nji) >= mr.th.Ta
	if kind == KindBasic {
		if !recip {
			return false
		}
		if mr.th.StrictReverse {
			mr.charge(metrics.CostMatrixScan, int64(len(rows.RatersOf(node))))
			return outsideLow(mr.th.Tb, rows.TotalFor(node)-nji, rows.PositiveFor(node)-posji)
		}
		return true
	}
	if mr.th.StrictReverse {
		mr.charge(metrics.CostBoundCheck, 1)
		return mr.th.BoundsHold(float64(rows.SummationScore(node)), rows.TotalFor(node), nji)
	}
	return recip
}

// routeMessage routes a manager-to-manager message through the DHT so the
// hop cost is realistic.
func (mr *ManagerRing) routeMessage(from *manager, aboutNode int) {
	if aboutNode < 0 || aboutNode >= mr.population {
		return
	}
	_, _, _ = mr.ring.FindSuccessor(from.node, mr.keys[aboutNode])
}

func (mr *ManagerRing) charge(name string, n int64) {
	if mr.meter != nil {
		mr.meter.Add(name, n)
	}
}
