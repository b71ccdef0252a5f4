package icnt

import (
	"fmt"
	"math"
	"slices"

	"ebm/internal/mem"
)

// PktState is one in-flight message: its delivery time and the request by
// value. Requests are duplicated on restore; the engine's message-passing
// discipline only ever reads value fields of networked requests, so fresh
// copies are behaviorally identical to the originals.
type PktState struct {
	ReadyAt uint64
	Req     mem.Request
}

// NetworkState is one crossbar direction's serializable snapshot.
type NetworkState struct {
	SrcFree  []uint64
	Queues   [][]PktState // per destination, FIFO order
	PortFree []uint64
}

// State returns the network's snapshot.
func (n *Network) State() NetworkState {
	st := NetworkState{
		SrcFree:  append([]uint64(nil), n.srcFree...),
		Queues:   make([][]PktState, len(n.queues)),
		PortFree: append([]uint64(nil), n.portFree...),
	}
	for d := range n.queues {
		q := &n.queues[d]
		live := q.items[q.head:]
		if len(live) == 0 {
			continue
		}
		ps := make([]PktState, len(live))
		for i, p := range live {
			ps[i] = PktState{ReadyAt: p.readyAt, Req: *p.req}
		}
		st.Queues[d] = ps
	}
	return st
}

// SetState restores the network from a snapshot taken on an identically
// configured network.
func (n *Network) SetState(st NetworkState) error {
	if len(st.SrcFree) != len(n.srcFree) || len(st.Queues) != len(n.queues) || len(st.PortFree) != len(n.portFree) {
		return fmt.Errorf("icnt: state has %d/%d ports, network has %d/%d",
			len(st.SrcFree), len(st.Queues), len(n.srcFree), len(n.queues))
	}
	copy(n.srcFree, st.SrcFree)
	copy(n.portFree, st.PortFree)
	for d := range n.queues {
		n.queues[d] = fifo{}
		n.head[d] = math.MaxUint64
		if len(st.Queues[d]) > 0 {
			n.head[d] = st.Queues[d][0].ReadyAt
		}
		for _, p := range st.Queues[d] {
			req := new(mem.Request)
			*req = p.Req
			n.queues[d].push(pkt{readyAt: p.ReadyAt, req: req})
		}
	}
	n.next = slices.Min(n.head)
	return nil
}
