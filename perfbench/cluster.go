package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/node"
	"repro/internal/proxy"
	"repro/internal/selector"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Defaults copied from the cmd/plsd and cmd/plsproxy flag defaults, so
// the benchmark runs the deployment a user gets without tuning.
const (
	rpcTimeout     = 5 * time.Second
	repairInterval = 30 * time.Second
	snapInterval   = 5 * time.Minute
	proxyTTL       = 2 * time.Second
)

// daemon is one in-process plsd: a node with durable state, its peer
// client stack, its repair daemon and its TCP server.
type daemon struct {
	node   *node.Node
	dur    *node.Durability
	peers  *transport.Client
	repair *node.Repairer
	srv    *transport.Server
}

// cluster is n daemons on loopback TCP plus the client stack that
// cmd/plsproxy builds for its backend.
type cluster struct {
	daemons []*daemon
	addrs   []string

	client *transport.Client
	svc    *core.Service
	clSel  *telemetry.SelectorMetrics

	// walReg holds the one WALMetrics every daemon logs into.
	walReg *telemetry.Registry
	wal    *telemetry.WALMetrics

	// Set only for the proxy workload.
	px     *pxTier
	pxConn *transport.Client
}

// pxTier is an in-process plsproxy: its own backend client stack,
// service and cache, served over TCP.
type pxTier struct {
	client *transport.Client
	svc    *core.Service
	proxy  *proxy.Proxy
	srv    *transport.Server
	pm     *telemetry.ProxyMetrics
	lm     *telemetry.LookupMetrics
	sm     *telemetry.SelectorMetrics
}

// startCluster boots numServers daemons wired as cmd/plsd wires them
// by default (durable with fsync=batch, selector-observed and
// instrumented peer client with DefaultMuxConns, repair daemon on) and
// the direct client service. tr, when non-nil, inserts the timing
// wrappers at the public Caller and Handler boundaries.
func startCluster(dir string, pop *population, seed uint64, tr *tracer) (*cluster, error) {
	c := &cluster{walReg: telemetry.NewRegistry()}
	c.wal = telemetry.NewWALMetrics(c.walReg)
	rng := stats.NewRNG(seed)
	for i := 0; i < numServers; i++ {
		d := &daemon{node: node.New(i, rng.Split())}
		c.daemons = append(c.daemons, d)
		d.node.Instrument(telemetry.NewNodeMetrics(telemetry.NewRegistry(), numServers))
		dataDir := filepath.Join(dir, fmt.Sprintf("node%d", i))
		if err := os.MkdirAll(dataDir, 0o755); err != nil {
			c.close()
			return nil, err
		}
		dur, err := d.node.OpenDurability(dataDir, store.SyncBatch, snapInterval, c.wal)
		if err != nil {
			c.close()
			return nil, fmt.Errorf("open durability %d: %w", i, err)
		}
		d.dur = dur
		var h transport.Handler = d.node
		if tr != nil {
			h = tr.handler(h, endpointNode(i))
		}
		d.srv = transport.NewServer(h)
		addr, err := d.srv.Listen("127.0.0.1:0")
		if err != nil {
			c.close()
			return nil, err
		}
		c.addrs = append(c.addrs, addr)
	}
	for i, d := range c.daemons {
		reg := telemetry.NewRegistry()
		tm := telemetry.NewTransportMetrics(reg, "peer", numServers)
		d.peers = transport.NewClient(c.addrs,
			transport.WithTimeout(rpcTimeout),
			transport.WithMuxConns(transport.DefaultMuxConns),
			transport.WithClientMetrics(tm))
		sel := selector.New(numServers, selector.Options{Metrics: telemetry.NewSelectorMetrics(reg)})
		peer := transport.Instrument(selector.Observe(d.peers, sel), tm)
		if tr != nil {
			peer = tr.caller(peer, i, endpointNode)
		}
		d.node.Attach(peer)
		d.repair = node.NewRepairer(d.node, node.RepairOptions{
			Interval: repairInterval,
			Health:   sel,
			Metrics:  telemetry.NewRepairMetrics(reg),
		})
		d.repair.Start()
	}

	var err error
	c.client, c.svc, _, c.clSel, err = newBackendService(c.addrs, seed, tr, originClient,
		core.WithClassifier(func(key string) (core.Config, bool) { return pop.configOf(key) }))
	if err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

// newBackendService builds the client stack cmd/plsproxy builds for its
// backend: transport.Client -> Instrument -> core.Service with the
// selector, the lookup policy and lookup metrics.
func newBackendService(addrs []string, seed uint64, tr *tracer, origin int, opts ...core.Option) (*transport.Client, *core.Service, *telemetry.LookupMetrics, *telemetry.SelectorMetrics, error) {
	reg := telemetry.NewRegistry()
	tm := telemetry.NewTransportMetrics(reg, "backend", len(addrs))
	lm := telemetry.NewLookupMetrics(reg)
	sm := telemetry.NewSelectorMetrics(reg)
	client := transport.NewClient(addrs,
		transport.WithTimeout(rpcTimeout),
		transport.WithMuxConns(transport.DefaultMuxConns),
		transport.WithClientMetrics(tm))
	sel := selector.New(len(addrs), selector.Options{Metrics: sm})
	caller := transport.Instrument(client, tm)
	if tr != nil {
		caller = tr.caller(caller, origin, endpointNode)
	}
	opts = append([]core.Option{
		core.WithSeed(seed),
		core.WithLookupMetrics(lm),
		core.WithLookupPolicy(core.LookupPolicy{Timeout: rpcTimeout, MaxAttempts: 1}),
		core.WithSelector(sel),
	}, opts...)
	svc, err := core.NewService(caller, opts...)
	if err != nil {
		client.Close()
		return nil, nil, nil, nil, err
	}
	return client, svc, lm, sm, nil
}

// startProxy puts an in-process plsproxy in front of the cluster, wired
// as cmd/plsproxy wires it with its default scheme set to cfg, and
// dials it with a one-server client.
func (c *cluster) startProxy(cfg wire.Config, cacheEntries int, seed uint64, tr *tracer) error {
	t := &pxTier{pm: telemetry.NewProxyMetrics(telemetry.NewRegistry())}
	var err error
	t.client, t.svc, t.lm, t.sm, err = newBackendService(c.addrs, seed^0x70726f7879, tr, originProxy,
		core.WithDefaultConfig(cfg),
		core.WithUpdateHook(func(key string) {
			if t.proxy != nil {
				t.proxy.InvalidateKey(key)
			}
		}))
	if err != nil {
		return err
	}
	c.px = t
	t.proxy = proxy.New(t.svc, proxy.Options{
		CacheEntries: cacheEntries,
		TTL:          proxyTTL,
		Metrics:      t.pm,
		Maintenance:  t.client,
	})
	var h transport.Handler = t.proxy
	if tr != nil {
		h = tr.handler(h, endpointProxy)
	}
	t.srv = transport.NewServer(h)
	addr, err := t.srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	c.pxConn = transport.NewClient([]string{addr},
		transport.WithTimeout(rpcTimeout),
		transport.WithMuxConns(transport.DefaultMuxConns))
	return nil
}

// close stops every server, client and background loop and flushes the
// durable state, in cmd/plsd's shutdown order.
func (c *cluster) close() error {
	var errs []error
	if c.pxConn != nil {
		c.pxConn.Close()
	}
	if c.px != nil {
		if c.px.srv != nil {
			errs = append(errs, c.px.srv.Close())
		}
		c.px.client.Close()
	}
	if c.client != nil {
		c.client.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, d := range c.daemons {
		if d.srv != nil {
			errs = append(errs, d.srv.Shutdown(ctx))
		}
	}
	for _, d := range c.daemons {
		if d.repair != nil {
			d.repair.Stop()
		}
		if d.peers != nil {
			d.peers.Close()
		}
		if d.dur != nil {
			errs = append(errs, d.dur.Close())
		}
	}
	return errors.Join(errs...)
}

// entryCount is Σ node.EntryCount() over the cluster.
func (c *cluster) entryCount() int {
	total := 0
	for _, d := range c.daemons {
		total += d.node.EntryCount()
	}
	return total
}

// localLen is Σ node.LocalLen(key) over the cluster: the copies of the
// key's entries the cluster stores.
func (c *cluster) localLen(key string) int {
	total := 0
	for _, d := range c.daemons {
		total += d.node.LocalLen(key)
	}
	return total
}
