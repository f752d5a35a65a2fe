package main

import (
	"bufio"
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/netip"
	"sync"
	"time"

	"edgefabric/internal/bgp"
	"edgefabric/internal/bmp"
	"edgefabric/internal/core"
	"edgefabric/internal/exp"
	"edgefabric/internal/netsim"
	"edgefabric/internal/rib"
	"edgefabric/internal/sflow"
)

// tableScale is one controller over a 100k-prefix table with no
// dataplane: routes arrive as a BMP dump over loopback TCP, each cycle
// brings a burst of transit re-announcements as BMP route monitoring,
// evening-peak demand is encoded by per-router sFlow agents and sent
// over loopback UDP, and overrides go over loopback TCP to one iBGP
// receiver whose Adj-RIB-In the benchmark checks.
type tableScale struct {
	common
	group
	seed int64

	cancel context.CancelFunc
	clock  *evening
	demand *netsim.DemandModel
	in     *ingest
	ctrl   *core.Controller
	rx     *receiver
	rxSpk  *bgp.Speaker

	feeds   []*bmpFeed
	agents  []*sflow.Agent
	encode  []encodeEntry // one per demand prefix
	churn   []churnAnn    // IPv4 transit announcements the bursts draw from
	rng     *rand.Rand
	expect  int
	feedsBy map[string]*bmpFeed
}

// Table-scale inputs: 100k prefixes (about 290k routes) at the PoP's
// 400 Gbps evening peak; a few hundred transit re-announcements per
// cycle.
const (
	tablePrefixes = 100_000
	tableChurn    = 300
)

// bmpFeed is the router side of one BMP stream the benchmark exports.
type bmpFeed struct {
	router string
	ln     net.Listener
	conn   net.Conn
	bw     *bufio.Writer
	exp    *bmp.Exporter
}

// encodeEntry routes one prefix's demand to the sFlow agent of the
// router its first announcing peer sits on.
type encodeEntry struct {
	pi    *netsim.PrefixInfo
	agent *sflow.Agent
	ifID  int
}

// churnAnn is a transit announcement a burst can re-announce with a
// toggled MED.
type churnAnn struct {
	peer    *netsim.Peer
	ann     netsim.Announcement
	toggled bool
}

func (w *tableScale) setup() error {
	sc, err := netsim.Synthesize(netsim.SynthConfig{Seed: w.seed, Prefixes: tablePrefixes, PeakBps: popPeakBps})
	if err != nil {
		return err
	}
	w.demand, err = sc.NewDemand(netsim.DemandConfig{PeakBps: popPeakBps})
	if err != nil {
		return err
	}
	w.clock = newEvening()
	w.rng = rand.New(rand.NewSource(w.seed))
	ctx, cancel := context.WithCancel(context.Background())
	w.cancel = cancel

	mapper := &lateMapper{}
	w.in, err = startIngest(ctx, &w.group, mapper, w.clock.Now)
	if err != nil {
		return err
	}
	agentOf := make(map[string]*sflow.Agent, len(sc.Topo.Routers))
	for i, r := range sc.Topo.Routers {
		a := sflow.NewAgent(sflow.AgentConfig{
			Agent: r.RouterID, SamplingRate: popSampling, Seed: w.seed + int64(i), Sink: w.in.sink,
		})
		agentOf[r.Name] = a
		w.agents = append(w.agents, a)
	}
	firstPeer := make(map[netip.Prefix]*netsim.Peer, tablePrefixes)
	for i := range sc.Topo.Peers {
		p := &sc.Topo.Peers[i]
		for _, ann := range p.Announces {
			if _, ok := firstPeer[ann.Prefix]; !ok {
				firstPeer[ann.Prefix] = p
			}
			if p.Class == rib.ClassTransit && ann.Prefix.Addr().Is4() {
				w.churn = append(w.churn, churnAnn{peer: p, ann: ann})
			}
		}
		w.expect += len(p.Announces)
	}
	for _, pi := range w.demand.Prefixes() {
		if p := firstPeer[pi.Prefix]; p != nil {
			w.encode = append(w.encode, encodeEntry{pi: pi, agent: agentOf[p.Router], ifID: p.InterfaceID})
		}
	}

	inv, err := exp.InventoryFromTopology(sc.Topo)
	if err != nil {
		return err
	}
	w.ctrl, err = newController(inv, w.in.col, sc.Topo.LocalAS, w.clock.Now)
	if err != nil {
		return err
	}
	mapper.m.Store(w.ctrl.Store())

	// The iBGP receiver: one router's speaker, reached over loopback TCP.
	routerIP := netip.AddrFrom4([4]byte{10, 255, 0, 10})
	ctrlIP := netip.AddrFrom4([4]byte{10, 255, 0, 100})
	w.rx = newReceiver()
	w.rxSpk, err = bgp.NewSpeaker(bgp.SpeakerConfig{LocalAS: sc.Topo.LocalAS, RouterID: routerIP})
	if err != nil {
		return err
	}
	if _, err := w.rxSpk.AddPeer(bgp.PeerConfig{PeerAddr: ctrlIP, PeerAS: sc.Topo.LocalAS, Handler: w.rx}); err != nil {
		return err
	}
	injLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.serve(func() error {
		defer injLn.Close()
		stop := context.AfterFunc(ctx, func() { injLn.Close() })
		defer stop()
		for {
			c, err := injLn.Accept()
			if err != nil {
				return err
			}
			_ = w.rxSpk.ServeConn(ctrlIP, c) // a second dial is refused; the first session stays
		}
	})
	if err := w.ctrl.AddInjectionSessionDialer(routerIP, w.tap.dialer(routerIP, injLn.Addr().String())); err != nil {
		return err
	}

	// BMP: the benchmark is every router's exporter; the controller
	// dials each feed like a remote-mode daemon.
	w.feedsBy = make(map[string]*bmpFeed)
	for _, r := range sc.Topo.Routers {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		f := &bmpFeed{router: r.Name, ln: ln}
		w.feeds = append(w.feeds, f)
		w.feedsBy[r.Name] = f
		w.ctrl.AddBMPFeedDialer(r.Name, tcpDialer(ln.Addr().String()))
	}
	dumpStart := time.Now()
	errs := make(chan error, len(w.feeds))
	for _, f := range w.feeds {
		go func() { errs <- f.dump(sc.Topo, w.clock.Now) }()
	}
	for range w.feeds {
		if err := <-errs; err != nil {
			return err
		}
	}
	rctx, rcancel := context.WithTimeout(ctx, 120*time.Second)
	defer rcancel()
	if err := w.ctrl.WaitReady(rctx, w.expect); err != nil {
		return err
	}
	w.rec.set("bmp.dump_routes_per_s", float64(w.expect)/time.Since(dumpStart).Seconds())
	w.rec.attempt("bmp_routes", w.expect)
	if got := w.ctrl.Store().Table().RouteCount(); got != w.expect {
		w.rec.fail("bmp_routes", 1)
	}
	w.iterate(0)
	return nil
}

// dump accepts the controller's dial and streams the router's whole
// Adj-RIB-In: Peer Up per neighbor, then every announcement.
func (f *bmpFeed) dump(topo *netsim.Topology, now func() time.Time) error {
	if tl, ok := f.ln.(*net.TCPListener); ok {
		_ = tl.SetDeadline(time.Now().Add(30 * time.Second)) // bounds a controller that never dials
	}
	conn, err := f.ln.Accept()
	f.ln.Close()
	if err != nil {
		return fmt.Errorf("bmp %s accept: %w", f.router, err)
	}
	f.conn = conn
	f.bw = bufio.NewWriterSize(conn, 256<<10)
	f.exp, err = bmp.NewExporter(f.bw, f.router, now)
	if err != nil {
		return err
	}
	for _, p := range topo.PeersOnRouter(f.router) {
		if err := f.exp.PeerUp(p.Addr, p.AS, netip.Addr{}, netip.Addr{}); err != nil {
			return err
		}
		for _, u := range netsim.BuildAnnouncements(p) {
			if err := f.exp.Route(p.Addr, p.AS, u); err != nil {
				return err
			}
		}
	}
	return f.bw.Flush()
}

func (w *tableScale) handler() http.Handler { return singleAPI(w.ctrl) }

// control arms the control arm: demand doubles, so the next cycles
// announce new overrides, and the tap swallows the first UPDATE.
func (w *tableScale) control() {
	surge(w.demand, w.clock.Now())
	w.tap.armed.Store(true)
}

func (w *tableScale) faults() uint64 { return w.tap.dropped.Load() }

// iterate runs one closed-loop cycle: a BMP churn burst lands in the
// controller's table, the demand encoder exports the tick's sFlow, the
// collector drains it, virtual time advances, the controller cycles,
// and the loop waits until the receiver holds the installed set.
func (w *tableScale) iterate(seq uint64) {
	rec, tr := w.rec, w.tr
	t0 := time.Now()
	root := tr.begin("loop", -1, seq)
	w.clock.wrap()

	h := tr.begin("bmp.churn", root, seq)
	written, ok := w.churnBurst()
	tr.end(h)
	rec.attempt("bmp_routes", tableChurn)
	if !ok {
		rec.fail("bmp_routes", tableChurn)
	}
	rec.sample("bmp.churn_ms", ms(time.Since(written)))

	h = tr.begin("sflow.export", root, seq)
	sink := w.in.sink
	sink.under(rec, tr, h, seq)
	sent0 := sink.sent
	now := w.clock.Now()
	secs := tickLen.Seconds()
	for _, e := range w.encode {
		bytes := uint64(w.demand.Rate(e.pi, now) * secs / 8)
		_ = e.agent.ObserveBytes(e.pi.RepAddr, e.ifID, bytes) // send errors show up as lost datagrams
	}
	for _, a := range w.agents {
		_ = a.Tick(uint32(tickLen / time.Millisecond))
	}
	tr.end(h)
	rec.add("sflow.datagrams", float64(sink.sent-sent0))

	h = tr.begin("sflow.drain", root, seq)
	td := time.Now()
	sink.drain(2 * time.Second)
	rec.sample("sflow.drain_ms", ms(time.Since(td)))
	tr.end(h)
	w.clock.Advance(tickLen)

	w.cycleAndApply(w.ctrl, root, seq, func(want overrideSet) bool { return w.rx.wait(want, w.applyTimeout) })
	tr.end(root)
	rec.sample("round_ms", ms(time.Since(t0)))
}

// churnBurst re-announces tableChurn transit routes with their MED
// toggled, then waits until the controller's table holds the last
// re-announcement of every feed (BMP streams apply in order). It
// returns when the burst was written and whether it landed in time.
func (w *tableScale) churnBurst() (time.Time, bool) {
	last := make(map[*bmpFeed]*churnAnn)
	for i := 0; i < tableChurn; i++ {
		c := &w.churn[w.rng.Intn(len(w.churn))]
		c.toggled = !c.toggled
		f := w.feedsBy[c.peer.Router]
		u := &bgp.Update{
			Attrs: bgp.PathAttrs{
				HasOrigin: true,
				ASPath:    bgp.Sequence(c.ann.Path...),
				NextHop:   c.peer.Addr,
			},
			NLRI: []netip.Prefix{c.ann.Prefix},
		}
		u.Attrs.MED, u.Attrs.HasMED = c.med(), c.med() != 0
		if err := f.exp.Route(c.peer.Addr, c.peer.AS, u); err != nil {
			return time.Now(), false
		}
		last[f] = c
	}
	for f := range last {
		if err := f.bw.Flush(); err != nil {
			return time.Now(), false
		}
	}
	written := time.Now()
	tab := w.ctrl.Store().Table()
	ctx, cancel := context.WithTimeout(context.Background(), w.applyTimeout)
	defer cancel()
	for {
		ver := tab.Version()
		landed := true
		for _, c := range last {
			if !c.landed(tab) {
				landed = false
				break
			}
		}
		if landed {
			return written, true
		}
		if err := tab.WaitChange(ctx, ver); err != nil {
			return written, false
		}
	}
}

func (c *churnAnn) med() uint32 {
	if c.toggled {
		return c.ann.MED + 10
	}
	return c.ann.MED
}

// landed reports whether the table holds the announcement's current
// MED from its peer.
func (c *churnAnn) landed(t *rib.Table) bool {
	for _, r := range t.Routes(c.ann.Prefix) {
		if r.PeerAddr == c.peer.Addr {
			return r.MED == c.med()
		}
	}
	return false
}

func (w *tableScale) finish() {
	w.in.finish(w.rec)
	w.rec.set("rib.routes", float64(w.ctrl.Store().Table().RouteCount()))
	w.rec.set("bgp.bytes_out", float64(w.tap.bytes.Load()))
}

func (w *tableScale) close() {
	if w.ctrl != nil {
		w.ctrl.Close()
	}
	if w.rxSpk != nil {
		w.rxSpk.Close()
	}
	if w.cancel != nil {
		w.cancel()
	}
	for _, f := range w.feeds {
		f.ln.Close()
		if f.conn != nil {
			f.conn.Close()
		}
	}
	w.in.close()
	w.wg.Wait()
}

// receiver is the iBGP router the table-scale controller injects into:
// it keeps the Adj-RIB-In of the controller session (prefix → next hop)
// and wakes waiters on every UPDATE.
type receiver struct {
	bgp.NopHandler

	mu      sync.Mutex
	adj     overrideSet
	changed chan struct{} // closed and replaced on every UPDATE
}

func newReceiver() *receiver {
	return &receiver{adj: make(overrideSet), changed: make(chan struct{})}
}

// HandleUpdate implements bgp.SessionHandler.
func (r *receiver) HandleUpdate(_ *bgp.Peer, u *bgp.Update) {
	r.mu.Lock()
	defer r.mu.Unlock()
	applyUpdate(r.adj, u)
	close(r.changed)
	r.changed = make(chan struct{})
}

// HandleDown implements bgp.SessionHandler: a dropped session
// withdraws everything it carried.
func (r *receiver) HandleDown(*bgp.Peer, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.adj = make(overrideSet)
	close(r.changed)
	r.changed = make(chan struct{})
}

// wait blocks until the Adj-RIB-In equals want or the timeout passes.
func (r *receiver) wait(want overrideSet, timeout time.Duration) bool {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		r.mu.Lock()
		same := r.adj.equal(want)
		ch := r.changed
		r.mu.Unlock()
		if same {
			return true
		}
		select {
		case <-ch:
		case <-deadline.C:
			return false
		}
	}
}
