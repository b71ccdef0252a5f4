// Package icnt models the on-chip crossbar connecting GPU cores to the
// memory partitions (Table I: one crossbar per direction).
//
// The model captures the two properties that matter for the paper's
// contention study: a fixed traversal latency, and per-port serialization —
// each input port sends and each output port delivers one flit per cycle,
// so data-bearing messages (write requests, read replies) occupy a port for
// several cycles and back-pressure builds when many cores target the same
// partition. Switch-internal arbitration (iSLIP) is abstracted away; the
// output port is the bottleneck it converges to.
package icnt

import (
	"fmt"
	"math"
	"slices"

	"ebm/internal/mem"
)

type pkt struct {
	readyAt uint64
	req     *mem.Request
}

// fifo is a slice-backed queue with an explicit head index so dequeues are
// O(1) without losing the backing array.
type fifo struct {
	items []pkt
	head  int
}

func (f *fifo) push(p pkt) { f.items = append(f.items, p) }

func (f *fifo) len() int { return len(f.items) - f.head }

func (f *fifo) peek() *pkt {
	if f.len() == 0 {
		return nil
	}
	return &f.items[f.head]
}

func (f *fifo) pop() pkt {
	p := f.items[f.head]
	f.items[f.head].req = nil // release for GC
	f.head++
	if f.head == len(f.items) {
		f.items = f.items[:0]
		f.head = 0
	} else if f.head > 1024 && f.head*2 > len(f.items) {
		n := copy(f.items, f.items[f.head:])
		f.items = f.items[:n]
		f.head = 0
	}
	return p
}

// Network is one direction of the crossbar: any of the srcs input ports
// to any of the dsts output ports.
type Network struct {
	latency   int
	flitBytes int
	lineBytes int
	srcFree   []uint64 // per source, first cycle the port may send
	queues    []fifo   // per destination, ordered by readyAt
	portFree  []uint64 // per destination, first cycle the port is free

	// head[d] is the readyAt of port d's head message (MaxUint64 when
	// the port is empty), and next the earliest of them. Every mutation
	// keeps both exact: Push sets them when the message becomes its
	// port's head, Pop advances the port's head and rescans head when it
	// popped the minimum, and SetState recomputes them.
	head []uint64
	next uint64
}

// New builds one crossbar direction with srcs input and dsts output ports.
// latency is the zero-load traversal time in cycles; flitBytes and
// lineBytes size the occupancy of data-bearing messages.
func New(srcs, dsts, latency, flitBytes, lineBytes int) *Network {
	if srcs <= 0 || dsts <= 0 || latency < 0 || flitBytes <= 0 || lineBytes <= 0 {
		panic(fmt.Sprintf("icnt: invalid parameters srcs=%d dsts=%d latency=%d flit=%d line=%d",
			srcs, dsts, latency, flitBytes, lineBytes))
	}
	n := &Network{
		latency:   latency,
		flitBytes: flitBytes,
		lineBytes: lineBytes,
		srcFree:   make([]uint64, srcs),
		queues:    make([]fifo, dsts),
		portFree:  make([]uint64, dsts),
		head:      make([]uint64, dsts),
		next:      math.MaxUint64,
	}
	for d := range n.head {
		n.head[d] = math.MaxUint64
	}
	return n
}

// CanSend reports whether input port src has serialized its last message
// by cycle now, so that it may Push again.
func (n *Network) CanSend(src int, now uint64) bool { return now >= n.srcFree[src] }

// Push injects req from input port src toward output port dst at cycle
// now. The message occupies src for one cycle per flit. Delivery time
// accounts for traversal latency and for serialization behind earlier
// traffic to the same output port. Push must be called with
// non-decreasing now, and only when CanSend(src, now) holds.
func (n *Network) Push(src, dst int, req *mem.Request, now uint64) {
	flits := uint64(req.Flits(n.flitBytes, n.lineBytes))
	n.srcFree[src] = now + flits
	arrive := now + uint64(n.latency)
	start := arrive
	if n.portFree[dst] > start {
		start = n.portFree[dst]
	}
	done := start + flits - 1
	n.portFree[dst] = done + 1
	q := &n.queues[dst]
	if q.len() == 0 {
		n.head[dst] = done
		n.next = min(n.next, done)
	}
	q.push(pkt{readyAt: done, req: req})
}

// Pop removes and returns the next message available at output port dst by
// cycle now, or nil if none has arrived yet.
func (n *Network) Pop(dst int, now uint64) *mem.Request {
	if n.head[dst] > now {
		return nil // empty, or its head not yet arrived
	}
	q := &n.queues[dst]
	p := q.pop()
	n.head[dst] = math.MaxUint64
	if h := q.peek(); h != nil {
		n.head[dst] = h.readyAt
	}
	if p.readyAt == n.next {
		n.next = slices.Min(n.head)
	}
	return p.req
}

// Ready reports whether output port dst holds a message deliverable by
// cycle now, that is, whether Pop(dst, now) would return one.
func (n *Network) Ready(dst int, now uint64) bool { return n.head[dst] <= now }

// NextReady returns the earliest cycle at which some output port has a
// message to deliver, or math.MaxUint64 when the network is empty. Every
// Pop before that cycle returns nil.
func (n *Network) NextReady() uint64 { return n.next }

// Pending returns the number of messages queued for output port dst.
func (n *Network) Pending(dst int) int { return n.queues[dst].len() }
