package rounds

import (
	"sort"

	"dynsens/internal/graph"
)

// Link is an undirected link, normalized so U <= V.
type Link struct{ U, V graph.NodeID }

// MkLink normalizes an endpoint pair into a Link.
func MkLink(u, v graph.NodeID) Link {
	if u > v {
		u, v = v, u
	}
	return Link{U: u, V: v}
}

// Schedule is the failure schedule of a run — which nodes die and which
// links are cut, at the start of which round — bucketed by round so a round
// with no failures costs one map lookup instead of a rescan, with the
// per-round buckets sorted for deterministic event emission. The kernel
// builds one from the FailNodeAt/FailLinkAt inputs and grows it at run time
// via Kill when a node host reports a node crashed mid-round (a remote node
// that missed a barrier or died), which keeps such crashes on exactly the
// failure-schedule semantics of a scripted death.
type Schedule struct {
	nodeFail map[graph.NodeID]int
	nodeAt   map[int][]graph.NodeID
	linkAt   map[int][]Link
}

// NewSchedule copies the failure maps (round values are 1-based and
// inclusive: the node is dead during its failure round) into a bucketed
// schedule. Failure rounds < 1 mean dead/cut from the start: no event is
// ever emitted for them, matching the engines' emission rule.
func NewSchedule(nodeFail map[graph.NodeID]int, linkFail map[Link]int) *Schedule {
	s := &Schedule{
		nodeFail: make(map[graph.NodeID]int, len(nodeFail)),
		nodeAt:   make(map[int][]graph.NodeID, len(nodeFail)),
		linkAt:   make(map[int][]Link, len(linkFail)),
	}
	for id, r := range nodeFail {
		s.nodeFail[id] = r
		if r >= 1 {
			s.nodeAt[r] = append(s.nodeAt[r], id)
		}
	}
	for lk, r := range linkFail {
		if r >= 1 {
			s.linkAt[r] = append(s.linkAt[r], lk)
		}
	}
	for _, ids := range s.nodeAt {
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	}
	for _, lks := range s.linkAt {
		sort.Slice(lks, func(i, j int) bool {
			if lks[i].U != lks[j].U {
				return lks[i].U < lks[j].U
			}
			return lks[i].V < lks[j].V
		})
	}
	return s
}

// NodeFails returns the nodes that die at the start of round r, ascending.
func (s *Schedule) NodeFails(r int) []graph.NodeID { return s.nodeAt[r] }

// LinkFails returns the links cut at the start of round r, sorted by
// (U, V).
func (s *Schedule) LinkFails(r int) []Link { return s.linkAt[r] }

// Kill schedules id to die at the start of round r, unless an earlier (or
// equal) death is already on record — the earliest death wins, like the
// engine's FailNodeAt overwritten by a smaller round. Used by the kernel to
// fold host-reported crashes into the same schedule the scripted failures
// live in.
func (s *Schedule) Kill(id graph.NodeID, r int) {
	if old, ok := s.nodeFail[id]; ok {
		if old <= r {
			return
		}
		if old >= 1 {
			bucket := s.nodeAt[old]
			for i, b := range bucket {
				if b == id {
					s.nodeAt[old] = append(bucket[:i], bucket[i+1:]...)
					break
				}
			}
		}
	}
	s.nodeFail[id] = r
	if r >= 1 {
		bucket := s.nodeAt[r]
		i := sort.Search(len(bucket), func(i int) bool { return bucket[i] >= id })
		bucket = append(bucket, 0)
		copy(bucket[i+1:], bucket[i:])
		bucket[i] = id
		s.nodeAt[r] = bucket
	}
}
