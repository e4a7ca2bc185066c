// Package timeslot implements Section 4 of the paper: the assignment of
// transmission time-slots to the nodes of CNet(G) so that the
// collision-free-flooding broadcasts of Section 3 work under the no-
// collision-detection radio model.
//
// Three slot kinds are maintained:
//
//   - b-time-slots, held by backbone nodes that transmit during the
//     backbone flooding step of Algorithm 2 (internal nodes of BT(G));
//   - l-time-slots, held by cluster heads that deliver the payload to
//     their pure members in Algorithm 2's final step;
//   - u-time-slots ("uniform"), held by every internal node of CNet(G),
//     used by the plain Algorithm 1 that floods CNet(G) depth by depth.
//
// Slots are 1-based. A receiver v is guaranteed collision-free reception
// when at least one transmitter it can hear holds a slot that is unique
// among all transmitters v can hear during the same window (Time-Slot
// Conditions 1 and 2). The package supports the paper's literal condition
// (interference restricted to the parent depth, ConditionPaper) and a
// strict condition closing the cross-depth interference gap of Algorithm
// 2's final step (ConditionStrict, the default; see DESIGN.md §5).
//
// Assignment is incremental: OnJoin implements Algorithm 3's local update
// after node-move-in, OnMoveOut re-establishes the conditions after
// node-move-out, and every recalculation is charged its Procedure-1 round
// cost (Lemma 2) so reconfiguration experiments can report maintenance
// rounds.
package timeslot

import (
	"fmt"
	"slices"

	"dynsens/internal/cnet"
	"dynsens/internal/graph"
	"dynsens/internal/obs"
)

// Condition selects which interference sets l-slots must satisfy.
type Condition int

const (
	// ConditionStrict guards a member against every head it can hear,
	// regardless of depth, because in Algorithm 2 all heads transmit to
	// their members inside one shared window.
	ConditionStrict Condition = iota
	// ConditionPaper is the paper's literal Time-Slot Condition 2: only
	// heads at the member's parent depth are considered.
	ConditionPaper
)

// Kind identifies a slot family.
type Kind int

const (
	// B is the backbone-flooding slot.
	B Kind = iota
	// L is the head-to-members slot.
	L
	// U is the uniform CNet-flooding slot of Algorithm 1.
	U
)

// kinds lists every slot family in the order repair visits them.
var kinds = [...]Kind{B, L, U}

// String names the kind.
func (k Kind) String() string {
	switch k {
	case B:
		return "b-time-slot"
	case L:
		return "l-time-slot"
	case U:
		return "u-time-slot"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Assignment binds time-slots to a CNet and keeps them valid across
// topology changes.
type Assignment struct {
	net  *cnet.CNet
	cond Condition
	slot map[Kind]map[graph.NodeID]int

	// rounds is the accumulated maintenance cost in protocol rounds: each
	// Procedure-1 recalculation for node y costs 1 + |C(y)| rounds (one
	// request plus the replies in turn, Lemma 2).
	rounds int
	// recalcs counts slot recalculations.
	recalcs int

	// dirty holds each kind's receivers whose condition may have changed
	// since repair last checked it (see dirtySet), indexed by Kind.
	dirty [len(kinds)]dirtySet

	// Scratch buffers reused across hot-path queries so steady-state
	// condition checks (Designated, Verify, the broadcast planners via
	// AppendInterferenceSet) allocate nothing once warm. setBuf backs
	// Designated; calculate owns audBuf/calcSetBuf/slotBuf/forbidden.
	setBuf     []graph.NodeID
	audBuf     []graph.NodeID
	calcSetBuf []graph.NodeID
	slotBuf    []int
	forbidden  map[int]struct{}
}

// New creates an assignment for net and computes slots for the current
// structure.
func New(net *cnet.CNet, cond Condition) *Assignment {
	a := &Assignment{
		net:  net,
		cond: cond,
		slot: map[Kind]map[graph.NodeID]int{
			B: make(map[graph.NodeID]int),
			L: make(map[graph.NodeID]int),
			U: make(map[graph.NodeID]int),
		},
	}
	a.AssignAll()
	return a
}

// Net returns the bound CNet.
func (a *Assignment) Net() *cnet.CNet { return a.net }

// ConditionMode returns the active condition.
func (a *Assignment) ConditionMode() Condition { return a.cond }

// Rounds returns the accumulated maintenance round cost.
func (a *Assignment) Rounds() int { return a.rounds }

// Recalcs returns the number of slot recalculations performed.
func (a *Assignment) Recalcs() int { return a.recalcs }

// Slot returns the slot of the given kind for id.
func (a *Assignment) Slot(k Kind, id graph.NodeID) (int, bool) {
	s, ok := a.slot[k][id]
	return s, ok
}

// Max returns the largest assigned slot of kind k; the paper's delta is
// Max(B) and Delta is Max(L). Returns 0 when no slots of that kind exist.
func (a *Assignment) Max(k Kind) int {
	m := 0
	for _, s := range a.slot[k] {
		if s > m {
			m = s
		}
	}
	return m
}

// Delta returns the largest l-time-slot (the paper's capital Delta).
func (a *Assignment) Delta() int { return a.Max(L) }

// SmallDelta returns the largest b-time-slot (the paper's small delta).
func (a *Assignment) SmallDelta() int { return a.Max(B) }

// --- transmitter / receiver roles ------------------------------------------

// IsTransmitter reports whether id transmits in the window of kind k.
func (a *Assignment) IsTransmitter(k Kind, id graph.NodeID) bool {
	tr := a.net.Tree()
	st, ok := a.net.Status(id)
	if !ok {
		return false
	}
	switch k {
	case B:
		// Internal nodes of BT(G): backbone nodes with backbone children.
		if st == cnet.Member {
			return false
		}
		for _, c := range tr.Children(id) {
			if cs, _ := a.net.Status(c); cs != cnet.Member {
				return true
			}
		}
		return false
	case L:
		// Heads that own at least one pure member.
		if st != cnet.Head {
			return false
		}
		for _, c := range tr.Children(id) {
			if cs, _ := a.net.Status(c); cs == cnet.Member {
				return true
			}
		}
		return false
	case U:
		// Every internal node of CNet(G).
		return !tr.IsLeaf(id)
	default:
		return false
	}
}

// IsReceiver reports whether id must be able to receive in windows of
// kind k.
func (a *Assignment) IsReceiver(k Kind, id graph.NodeID) bool {
	st, ok := a.net.Status(id)
	if !ok {
		return false
	}
	switch k {
	case B:
		// Every non-root backbone node receives during backbone flooding.
		return st != cnet.Member && id != a.net.Root()
	case L:
		// Every pure member receives in the leaf-delivery window.
		return st == cnet.Member
	case U:
		// Every non-root node receives during plain CNet flooding.
		return id != a.net.Root()
	default:
		return false
	}
}

// InterferenceSet returns the transmitters of kind k that receiver v can
// hear during k's window: for B and U these are transmitters at v's parent
// depth adjacent to v in G (only that depth transmits simultaneously); for
// L it depends on the condition mode — ConditionStrict considers every
// adjacent L-transmitter, ConditionPaper only those at v's parent depth.
// The result is ascending, always contains v's CNet parent when the parent
// transmits in kind k, and is freshly allocated; hot paths should use
// AppendInterferenceSet with a reused buffer instead.
func (a *Assignment) InterferenceSet(k Kind, v graph.NodeID) []graph.NodeID {
	return a.AppendInterferenceSet(nil, k, v)
}

// AppendInterferenceSet appends v's interference set of kind k to dst and
// returns the extended slice — the allocation-free form of InterferenceSet
// used by the per-round broadcast planners.
//
//dynlint:hotpath per receiver per round in the planners
func (a *Assignment) AppendInterferenceSet(dst []graph.NodeID, k Kind, v graph.NodeID) []graph.NodeID {
	depth := a.net.Tree().DepthMap()
	dv, ok := depth[v]
	if !ok {
		return dst
	}
	for _, u := range a.net.Graph().Neighbors(v) {
		if !a.IsTransmitter(k, u) {
			continue
		}
		if k == L && a.cond == ConditionStrict {
			dst = append(dst, u)
			continue
		}
		if depth[u] == dv-1 {
			dst = append(dst, u)
		}
	}
	return dst
}

// Designated returns the transmitter v should tune to: the member of v's
// interference set whose slot is unique within the set (smallest such slot
// on ties). ok is false when the condition is violated for v. Interference
// sets are degree-bounded, so the quadratic uniqueness scan beats a counting
// map and keeps the steady-state receive check allocation-free.
//
//dynlint:hotpath steady-state receive check, reuses setBuf
func (a *Assignment) Designated(k Kind, v graph.NodeID) (u graph.NodeID, slot int, ok bool) {
	a.setBuf = a.AppendInterferenceSet(a.setBuf[:0], k, v)
	set := a.setBuf
	best := -1
	for i, t := range set {
		s := a.slot[k][t]
		unique := true
		for j, o := range set {
			if j != i && a.slot[k][o] == s {
				unique = false
				break
			}
		}
		if unique && (best == -1 || s < best) {
			best = s
			u = t
		}
	}
	if best == -1 {
		return 0, 0, false
	}
	return u, best, true
}

// conditionHolds reports whether receiver v's interference set has a
// unique-slot member.
func (a *Assignment) conditionHolds(k Kind, v graph.NodeID) bool {
	_, _, ok := a.Designated(k, v)
	return ok
}

// --- assignment -------------------------------------------------------------

// appendAudience appends C(y) for Procedure 1 — the receivers of kind k
// whose interference sets contain y — to dst and returns the extended
// slice.
//
//dynlint:hotpath per recalculated node during repair
func (a *Assignment) appendAudience(dst []graph.NodeID, k Kind, y graph.NodeID) []graph.NodeID {
	depth := a.net.Tree().DepthMap()
	dy := depth[y]
	for _, v := range a.net.Graph().Neighbors(y) {
		if !a.IsReceiver(k, v) {
			continue
		}
		if k == L && a.cond == ConditionStrict {
			dst = append(dst, v)
			continue
		}
		if depth[v] == dy+1 {
			dst = append(dst, v)
		}
	}
	return dst
}

// calculate runs Procedure 1 (CalculateB/LTimeSlot) for node y: each
// receiver v in C(y) that cannot already guarantee two distinct unique
// slots without y reports the distinct slots it hears; y takes the
// smallest positive integer avoiding all reports. The round cost
// 1 + |C(y)| is charged. Per-receiver slot lists are degree-bounded, so
// uniqueness uses a quadratic scan over the reused slotBuf instead of a
// counting map; only the forbidden set keeps a (reused) map, since the
// final smallest-free-slot search probes it by key.
func (a *Assignment) calculate(k Kind, y graph.NodeID) {
	if a.forbidden == nil {
		a.forbidden = make(map[int]struct{})
	}
	clear(a.forbidden)
	a.audBuf = a.appendAudience(a.audBuf[:0], k, y)
	aud := a.audBuf
	for _, v := range aud {
		a.calcSetBuf = a.AppendInterferenceSet(a.calcSetBuf[:0], k, v)
		a.slotBuf = a.slotBuf[:0]
		for _, t := range a.calcSetBuf {
			if t == y {
				continue
			}
			a.slotBuf = append(a.slotBuf, a.slot[k][t])
		}
		others := a.slotBuf
		unique := 0
		for i, s := range others {
			if s <= 0 {
				continue
			}
			dup := false
			for j, o := range others {
				if j != i && o == s {
					dup = true
					break
				}
			}
			if !dup {
				unique++
			}
		}
		if unique >= 2 {
			// v stays safe whatever slot y takes.
			continue
		}
		for _, s := range others {
			if s > 0 {
				a.forbidden[s] = struct{}{}
			}
		}
	}
	s := 1
	for {
		if _, bad := a.forbidden[s]; !bad {
			break
		}
		s++
	}
	a.slot[k][y] = s
	a.rounds += 1 + len(aud)
	a.recalcs++
	a.markAround(k, y)
}

// ensure assigns a slot to y if it transmits in kind k and lacks one, and
// clears a stale slot if it no longer transmits.
func (a *Assignment) ensure(k Kind, y graph.NodeID) {
	if a.IsTransmitter(k, y) {
		if _, ok := a.slot[k][y]; !ok {
			a.calculate(k, y)
		}
	} else {
		delete(a.slot[k], y)
	}
}

// --- repair -----------------------------------------------------------------

// dirtySet is one kind's worklist for repair: the receivers whose condition
// may have changed since repair last checked them. A receiver's condition
// reads only its own depth and status and its neighbors' presence, depth,
// transmitter role and slot, so whoever changes one of these for node y
// marks N[y], y's closed neighborhood in G. Every unmarked receiver still
// holds.
//
// A repair pass checks its receivers in ascending ID order; a receiver
// marked while it runs joins that pass if its ID lies above the one being
// checked, and the next pass otherwise. A scan of every receiver per pass
// meets the violated receivers in exactly this order, so both make the
// same recalculations.
type dirtySet struct {
	// pass holds the running pass's receivers, ascending and distinct;
	// pop has handed out pass[:checked]. next collects the receivers of
	// the following pass, in any order and possibly repeated.
	pass, next []graph.NodeID
	checked    int
}

// mark queues v for the running pass or, at or below the receiver being
// checked, for the next one.
func (d *dirtySet) mark(v graph.NodeID) {
	if d.checked == 0 || v <= d.pass[d.checked-1] {
		d.next = append(d.next, v)
	} else if i, found := slices.BinarySearch(d.pass[d.checked:], v); !found {
		d.pass = slices.Insert(d.pass, d.checked+i, v)
	}
}

// begin starts a pass over the receivers marked for it.
func (d *dirtySet) begin() {
	slices.Sort(d.next)
	d.pass, d.next = slices.Compact(d.next), d.pass[:0]
}

// pop returns the pass's next receiver, or false when the pass is over.
func (d *dirtySet) pop() (graph.NodeID, bool) {
	if d.checked == len(d.pass) {
		d.pass, d.checked = d.pass[:0], 0
		return 0, false
	}
	d.checked++
	return d.pass[d.checked-1], true
}

// abort ends the pass at the receiver pop last returned, keeping it and the
// unchecked ones for the next repair.
func (d *dirtySet) abort() {
	d.next = append(d.next, d.pass[d.checked-1:]...)
	d.pass, d.checked = d.pass[:0], 0
}

// markAround marks N[y] dirty for kind k.
func (a *Assignment) markAround(k Kind, y graph.NodeID) {
	d := &a.dirty[k]
	d.mark(y)
	for _, v := range a.net.Graph().Neighbors(y) {
		d.mark(v)
	}
}

// changed marks N[y] dirty for every kind: y's presence, depth, status or
// transmitter roles changed.
func (a *Assignment) changed(y graph.NodeID) {
	for _, k := range kinds {
		a.markAround(k, y)
	}
}

// markAll marks every node dirty for every kind.
func (a *Assignment) markAll() {
	nodes := a.net.Tree().Nodes()
	for k := range a.dirty {
		a.dirty[k].next = append(a.dirty[k].next[:0], nodes...)
	}
}

// repair re-establishes the conditions of the dirty receivers by
// recalculating the slots of offending transmitters until a fixpoint.
// Procedure 1's post-condition guarantees each recalculation fixes all of
// its audience without breaking receivers outside it, so the loop
// converges; the bound guards against bugs.
func (a *Assignment) repair() error {
	limit := 3*a.net.Size() + 10
	for iter := 0; iter < limit; iter++ {
		fixed := false
		for _, k := range kinds {
			d := &a.dirty[k]
			d.begin()
			for v, ok := d.pop(); ok; v, ok = d.pop() {
				if !a.IsReceiver(k, v) || a.conditionHolds(k, v) {
					continue
				}
				// Recalculate v's parent if it is in the set, else the
				// first transmitter v hears.
				set := a.InterferenceSet(k, v)
				if len(set) == 0 {
					d.abort()
					return fmt.Errorf("timeslot: receiver %d hears no %v transmitter", v, k)
				}
				target := set[0]
				if p, ok := a.net.Tree().Parent(v); ok {
					for _, t := range set {
						if t == p {
							target = p
							break
						}
					}
				}
				a.calculate(k, target)
				fixed = true
			}
		}
		if !fixed {
			return nil
		}
	}
	return fmt.Errorf("timeslot: repair did not converge within %d iterations", limit)
}

// AssignAll recomputes every slot from scratch: transmitters are processed
// in BFS order (top-down) with Procedure 1, then every receiver's
// condition is checked and repaired. Use after bulk construction or a root
// rebuild.
func (a *Assignment) AssignAll() {
	a.assignTopDown()
	a.markAll()
	if err := a.repair(); err != nil {
		//lint:ignore dynlint/panics Procedure 1's post-condition (Lemma 2) makes repair converge on any valid CNet; failure is a bug, not an input error
		panic(err)
	}
}

// assignTopDown drops every slot and runs Procedure 1 for every
// transmitter, parents before children.
func (a *Assignment) assignTopDown() {
	for _, k := range kinds {
		a.slot[k] = make(map[graph.NodeID]int)
	}
	tr := a.net.Tree()
	for _, id := range tr.Subtree(tr.Root()) { // preorder: parents first
		for _, k := range kinds {
			if a.IsTransmitter(k, id) {
				a.calculate(k, id)
			}
		}
	}
}

// OnJoin updates slots after node-move-in of id (Algorithm 3). The fast
// path — the new leaf can already hear a unique transmitter — costs
// nothing; otherwise the parent (and, when it turned from leaf to internal
// node, the grandparent) recalculates per Procedure 1, followed by a
// repair pass for the corner cases the paper's case analysis leaves open.
func (a *Assignment) OnJoin(id graph.NodeID) error {
	if err := a.join(id); err != nil {
		return err
	}
	return a.repair()
}

// join is OnJoin up to its repair. The move-in added id, gave its parent a
// child and may have promoted the parent from member to gateway, which
// changes the grandparent's child roles: all three changed.
func (a *Assignment) join(id graph.NodeID) error {
	tr := a.net.Tree()
	if !tr.Contains(id) {
		return fmt.Errorf("timeslot: OnJoin for unknown node %d", id)
	}
	a.changed(id)
	w, hasParent := tr.Parent(id)
	if hasParent {
		a.changed(w)
		// The parent may have gained a transmitter role (leaf -> internal,
		// or first member child / first backbone child).
		for _, k := range kinds {
			a.ensure(k, w)
		}
		// A promoted member (now gateway) must newly satisfy the backbone
		// receive condition; the grandparent may need a b-slot for that.
		if gp, ok := tr.Parent(w); ok {
			a.changed(gp)
			for _, k := range kinds {
				a.ensure(k, gp)
			}
		}
	}
	// Algorithm 3's check: can the new leaf hear a unique slot?
	for _, k := range kinds {
		if a.IsReceiver(k, id) && !a.conditionHolds(k, id) && hasParent {
			a.calculate(k, w)
		}
	}
	return nil
}

// OnMoveOut updates slots after node-move-out (Section 5.2 Step 0/3): the
// departed node's slots are dropped, re-inserted nodes are replayed through
// OnJoin in their re-insertion order, slots are given to or taken from the
// nodes whose transmitter role changed, and the conditions are repaired —
// mirroring the paper's recalculation of the P(x) sets along the Euler
// tour.
func (a *Assignment) OnMoveOut(rec cnet.MoveOutRecord) error {
	if rec.RootChanged {
		// The structure was rebuilt from a new sink; start over.
		a.AssignAll()
		return nil
	}
	for _, k := range kinds {
		delete(a.slot[k], rec.Removed)
		for _, x := range rec.Reinserted {
			delete(a.slot[k], x)
		}
	}
	// What changed: lev's neighbors lost a neighbor, lev's parent lost a
	// child, and each re-inserted node, its new parent and grandparent
	// changed as in join. Of these, only lev's parent and the re-insertion
	// chains can have gained or lost a transmitter role (e.g. a head whose
	// only member left), so they alone get ensure, in ascending order as
	// a pass over every node would reach them: ensure is a no-op elsewhere.
	for _, v := range rec.Neighbors {
		for k := range a.dirty {
			a.dirty[k].mark(v)
		}
	}
	tr := a.net.Tree()
	touched := []graph.NodeID{rec.Parent}
	for _, x := range rec.Reinserted {
		touched = append(touched, x)
		if w, ok := tr.Parent(x); ok {
			touched = append(touched, w)
			if gp, ok := tr.Parent(w); ok {
				touched = append(touched, gp)
			}
		}
	}
	slices.Sort(touched)
	for _, id := range slices.Compact(touched) {
		a.changed(id)
		for _, k := range kinds {
			a.ensure(k, id)
		}
	}
	for _, x := range rec.Reinserted {
		if err := a.OnJoin(x); err != nil {
			return err
		}
	}
	return a.repair()
}

// OnCrash updates slots after a non-graceful repair (cnet.RemoveCrashed):
// entries of departed nodes are purged, re-attached orphans replayed, and
// the conditions of every receiver repaired. A replaced sink triggers a
// full reassignment.
func (a *Assignment) OnCrash(rec cnet.CrashRecord) error {
	if rec.RootReplaced {
		a.AssignAll()
		return nil
	}
	tr := a.net.Tree()
	for _, k := range kinds {
		for id := range a.slot[k] {
			if !tr.Contains(id) {
				delete(a.slot[k], id)
			}
		}
	}
	for _, id := range tr.Nodes() {
		for _, k := range kinds {
			a.ensure(k, id)
		}
	}
	a.markAll()
	for _, x := range rec.Reinserted {
		if err := a.OnJoin(x); err != nil {
			return err
		}
	}
	return a.repair()
}

// Verify checks that every receiver of every kind satisfies its condition,
// that only transmitters hold slots, and that all slots are positive.
func (a *Assignment) Verify() error {
	for _, k := range kinds {
		for id, s := range a.slot[k] {
			if s <= 0 {
				return fmt.Errorf("timeslot: %v of %d is %d", k, id, s)
			}
			if !a.IsTransmitter(k, id) {
				return fmt.Errorf("timeslot: non-transmitter %d holds a %v", id, k)
			}
		}
		for _, id := range a.net.Tree().Nodes() {
			if a.IsTransmitter(k, id) {
				if _, ok := a.slot[k][id]; !ok {
					return fmt.Errorf("timeslot: transmitter %d lacks a %v", id, k)
				}
			}
			if a.IsReceiver(k, id) && !a.conditionHolds(k, id) {
				return fmt.Errorf("timeslot: condition %v violated for receiver %d", k, id)
			}
		}
	}
	return nil
}

// Metric names recorded by Record.
const (
	// MetricTimeslotMax is the gauge of the largest assigned slot per
	// kind (labels kind="b"|"l"|"u").
	MetricTimeslotMax = "dynsens_timeslot_max_slot"
	// MetricTimeslotBound is the gauge of the Lemma 2/3 slot bound per
	// kind: d(d+1)/2+1 for b-slots, D(D+1)/2+1 for l- and u-slots.
	MetricTimeslotBound = "dynsens_timeslot_slot_bound"
	// MetricTimeslotRounds is the accumulated Procedure-1 maintenance
	// cost in protocol rounds.
	MetricTimeslotRounds = "dynsens_timeslot_maintenance_rounds"
	// MetricTimeslotRecalcs is the accumulated slot-recalculation count.
	MetricTimeslotRecalcs = "dynsens_timeslot_recalcs"
)

// kindLabel is the metric label value for a slot kind.
func kindLabel(k Kind) string {
	switch k {
	case B:
		return "b"
	case L:
		return "l"
	default:
		return "u"
	}
}

// Record exports the assignment's slot maxima against their Lemma 2/3
// bounds, plus accumulated maintenance cost, as gauges in reg — the live
// view of how close a deployment runs to the paper's worst case.
func (a *Assignment) Record(reg *obs.Registry) {
	for _, k := range kinds {
		lbl := obs.L("kind", kindLabel(k))
		reg.Gauge(MetricTimeslotMax, "Largest assigned time-slot.", lbl).Set(int64(a.Max(k)))
		bound := a.BoundL()
		if k == B {
			bound = a.BoundB()
		}
		reg.Gauge(MetricTimeslotBound, "Lemma 2/3 slot bound for the kind.", lbl).Set(int64(bound))
	}
	reg.Gauge(MetricTimeslotRounds, "Accumulated Procedure-1 maintenance rounds.").Set(int64(a.Rounds()))
	reg.Gauge(MetricTimeslotRecalcs, "Accumulated slot recalculations.").Set(int64(a.Recalcs()))
}

// BoundB returns Lemma 3's bound on b-time-slots, d(d+1)/2 + 1, where d is
// the max degree of G(V_BT).
func (a *Assignment) BoundB() int {
	d := a.net.InducedBackboneGraph().MaxDegree()
	return d*(d+1)/2 + 1
}

// BoundL returns Lemma 3's bound on l-time-slots, D(D+1)/2 + 1, where D is
// the max degree of G.
func (a *Assignment) BoundL() int {
	d := a.net.Graph().MaxDegree()
	return d*(d+1)/2 + 1
}

// CheckBounds verifies Lemma 3: no assigned slot exceeds its bound.
func (a *Assignment) CheckBounds() error {
	if m, b := a.Max(B), a.BoundB(); m > b {
		return fmt.Errorf("timeslot: max b-slot %d exceeds bound %d", m, b)
	}
	if m, b := a.Max(L), a.BoundL(); m > b {
		return fmt.Errorf("timeslot: max l-slot %d exceeds bound %d", m, b)
	}
	if m, b := a.Max(U), a.BoundL(); m > b {
		return fmt.Errorf("timeslot: max u-slot %d exceeds bound %d", m, b)
	}
	return nil
}
