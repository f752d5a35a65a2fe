package main

import (
	"context"
	"fmt"
	"net"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"edgefabric/internal/bgp"
	"edgefabric/internal/sflow"
)

// flowSink is the generator side of the sFlow path: every datagram
// leaves through one UDP socket (sflow.UDPSink) toward the collector's
// listener. It holds back while the collector is flowWindow datagrams
// behind, so loopback delivery is lossless and any datagram
// the collector never counts is a real failure. It is driven from one
// goroutine (the dataplane tick or the demand encoder).
type flowSink struct {
	udp     *sflow.UDPSink
	counted func() uint64 // datagrams the collector has seen, malformed included

	sent     uint64
	sendTime time.Duration // time spent inside traced sends, cumulative

	rec    *recorder
	tr     *tracer
	parent int // span the sends are children of
	id     uint64
}

// flowWindow bounds datagrams in flight: well under what a default
// loopback socket buffer holds, so the kernel never drops one.
const flowWindow = 32

func newFlowSink(addr string, counted func() uint64) (*flowSink, error) {
	udp, err := sflow.NewUDPSink(addr)
	if err != nil {
		return nil, fmt.Errorf("sflow sink: %w", err)
	}
	return &flowSink{udp: udp, counted: counted, rec: newRecorder(), parent: -1}, nil
}

// under points the sink's samples and spans at the current iteration.
func (s *flowSink) under(rec *recorder, tr *tracer, parent int, id uint64) {
	s.rec, s.tr, s.parent, s.id = rec, tr, parent, id
}

// SendDatagram implements sflow.Sink.
func (s *flowSink) SendDatagram(b []byte) error {
	for i := 0; s.sent-s.counted() >= flowWindow; i++ {
		if i < 64 {
			runtime.Gosched()
		} else {
			time.Sleep(20 * time.Microsecond)
		}
	}
	if !s.tr.active() {
		s.sent++
		return s.udp.SendDatagram(b)
	}
	t0 := time.Now()
	err := s.udp.SendDatagram(b)
	t1 := time.Now()
	s.tr.record("sflow.send", s.parent, s.id, t0, t1)
	s.sent++
	s.sendTime += t1.Sub(t0)
	s.rec.sample("sflow.send_us", float64(t1.Sub(t0))/1e3)
	return err
}

// drain waits until the collector has counted every datagram sent, or
// the timeout passes, and returns how many it never counted.
func (s *flowSink) drain(timeout time.Duration) uint64 {
	deadline := time.Now().Add(timeout)
	for i := 0; s.counted() < s.sent; i++ {
		if time.Now().After(deadline) {
			return s.sent - s.counted()
		}
		if i < 64 {
			runtime.Gosched()
		} else {
			time.Sleep(20 * time.Microsecond)
		}
	}
	return 0
}

func (s *flowSink) Close() error { return s.udp.Close() }

// wireTap wraps the controller's iBGP dial conns. It counts the bytes
// the controller writes, keeps per router the override set the
// session carried on the wire (decoded from the UPDATEs actually
// written), and, when armed, swallows exactly one UPDATE — the control
// arm that proves the decision check catches a router that never
// received what the controller believes it installed.
type wireTap struct {
	bytes   atomic.Uint64
	armed   atomic.Bool
	dropped atomic.Uint64

	mu  sync.Mutex
	adj map[netip.Addr]overrideSet
}

// bgpUpdate is the BGP message type octet of an UPDATE (RFC 4271 §4.1).
const bgpUpdate = 2

type tapConn struct {
	net.Conn
	tap    *wireTap
	router netip.Addr
}

// Write sees exactly one BGP message per call: the session writes
// each marshalled message with a single Write.
func (c *tapConn) Write(b []byte) (int, error) {
	isUpdate := len(b) >= bgp.HeaderLen && b[bgp.HeaderLen-1] == bgpUpdate
	if isUpdate && c.tap.armed.CompareAndSwap(true, false) {
		c.tap.dropped.Add(1)
		return len(b), nil
	}
	n, err := c.Conn.Write(b)
	c.tap.bytes.Add(uint64(n))
	if isUpdate && err == nil {
		c.tap.carry(c.router, b)
	}
	return n, err
}

// carry applies one written UPDATE to the router's wire view. The
// controller negotiates four-octet AS numbers on every session.
func (t *wireTap) carry(router netip.Addr, b []byte) {
	m, err := bgp.Decode(b, &bgp.CodecOptions{AS4: true})
	u, ok := m.(*bgp.Update)
	t.mu.Lock()
	defer t.mu.Unlock()
	adj := t.adj[router]
	if err != nil || !ok {
		// An UPDATE the benchmark cannot read poisons the view, so the
		// next check fails instead of passing on stale state.
		adj[netip.Prefix{}] = netip.Addr{}
		return
	}
	applyUpdate(adj, u)
}

// wireView returns a copy of what the router's session carried.
func (t *wireTap) wireView(router netip.Addr) overrideSet {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(overrideSet, len(t.adj[router]))
	for p, nh := range t.adj[router] {
		out[p] = nh
	}
	return out
}

// routers lists the routers whose sessions the tap has seen.
func (t *wireTap) routers() []netip.Addr {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]netip.Addr, 0, len(t.adj))
	for r := range t.adj {
		out = append(out, r)
	}
	return out
}

// onWire reports whether every router's session carried exactly want.
func (t *wireTap) onWire(want overrideSet) bool {
	for _, r := range t.routers() {
		if !t.wireView(r).equal(want) {
			return false
		}
	}
	return true
}

// dialer returns a TCP dial function for the injection session toward
// router whose conn goes through the tap. A new session starts with an
// empty view: the router dropped everything with the old one.
func (t *wireTap) dialer(router netip.Addr, addr string) func(ctx context.Context) (net.Conn, error) {
	return func(ctx context.Context) (net.Conn, error) {
		var d net.Dialer
		c, err := d.DialContext(ctx, "tcp", addr)
		if err != nil {
			return nil, err
		}
		t.mu.Lock()
		if t.adj == nil {
			t.adj = make(map[netip.Addr]overrideSet)
		}
		t.adj[router] = make(overrideSet)
		t.mu.Unlock()
		return &tapConn{Conn: c, tap: t, router: router}, nil
	}
}

// applyUpdate applies an UPDATE's withdrawals and announcements to an
// Adj-RIB-In view.
func applyUpdate(adj overrideSet, u *bgp.Update) {
	for _, p := range u.Withdrawn {
		delete(adj, p)
	}
	if u.Attrs.MPUnreach != nil {
		for _, p := range u.Attrs.MPUnreach.Withdrawn {
			delete(adj, p)
		}
	}
	for _, p := range u.NLRI {
		adj[p] = u.Attrs.NextHop
	}
	if u.Attrs.MPReach != nil {
		for _, p := range u.Attrs.MPReach.NLRI {
			adj[p] = u.Attrs.MPReach.NextHop
		}
	}
}

// tcpDialer returns a plain TCP dial function (BMP feeds).
func tcpDialer(addr string) func(ctx context.Context) (net.Conn, error) {
	return func(ctx context.Context) (net.Conn, error) {
		var d net.Dialer
		return d.DialContext(ctx, "tcp", addr)
	}
}
