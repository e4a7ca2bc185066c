// Package dist is the distributed actor runtime: it hosts the repository's
// unmodified radio.Program implementations as isolated message-passing
// nodes — goroutines behind in-memory pipes by default, separate OS
// processes (cmd/dnode) or TCP peers when asked — speaking the
// length-prefixed frame protocol of internal/netio/frame.
//
// The round loop is the radio kernel's own: the Coordinator is a
// radio.NodeHost, so the kernel resolves audibility, loss coins,
// partitions and the failure schedule, emits every event, and times the
// run (radio.Perf) exactly as it does for in-process Programs. The
// coordinator only moves frames: each shard's act and finish phases
// become one barrier over the shard's node range. For a fixed seed and
// scenario, a distributed run's trace, recording and Result are therefore
// byte-identical to the kernel's. What only a distributed runtime can make
// honest — a node process that dies, or stops answering its barrier — is
// absorbed as a crash with FailNodeAt's semantics.
package dist

import (
	"fmt"
	"io"

	"dynsens/internal/graph"
	"dynsens/internal/netio/frame"
	"dynsens/internal/radio"
)

// ServeNode hosts prog as the actor for node id over rw: it introduces
// itself with a Hello (node ID plus the program's initial Done bit), then
// answers the coordinator's round barriers — Act with the program's action,
// Finish (applying the optional delivery) with the program's Done bit —
// until a Halt frame or EOF ends the run. The loop is the remote half of
// the kernel's act and finish phases and carries the same determinism
// obligations, statically enforced by dynlint: no event sinks, no global
// rand, nothing but the program's own node-local state.
//
//dynlint:shardsafe node hosts run concurrently; a host may touch only its frames and its own Program
func ServeNode(rw io.ReadWriter, id graph.NodeID, prog radio.Program) error {
	enc := frame.NewEncoder(rw)
	dec := frame.NewDecoder(rw)
	if err := enc.Encode(&frame.Frame{Kind: frame.KindHello, Node: id, Done: prog.Done()}); err != nil {
		return fmt.Errorf("dist: node %d: sending hello: %w", id, err)
	}
	var f frame.Frame
	for {
		if err := dec.Decode(&f); err != nil {
			if err == io.EOF {
				return nil
			}
			return fmt.Errorf("dist: node %d: %w", id, err)
		}
		switch f.Kind {
		case frame.KindAct:
			a := prog.Act(f.Round)
			if err := enc.Encode(&frame.Frame{Kind: frame.KindAction, Round: f.Round, Action: a}); err != nil {
				return fmt.Errorf("dist: node %d: sending action: %w", id, err)
			}
		case frame.KindFinish:
			if f.HasMsg {
				prog.Deliver(f.Round, f.Msg)
			}
			if err := enc.Encode(&frame.Frame{Kind: frame.KindStatus, Round: f.Round, Done: prog.Done()}); err != nil {
				return fmt.Errorf("dist: node %d: sending status: %w", id, err)
			}
		case frame.KindHalt:
			return nil
		default:
			return fmt.Errorf("dist: node %d: unexpected %v frame from coordinator", id, f.Kind)
		}
	}
}
