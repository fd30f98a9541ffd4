package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"fastcc"
	"fastcc/internal/gen"
	"fastcc/internal/server"
)

// serveCases are build-bound contractions with small outputs, so the shard
// cache decides a request's latency and the output path does little.
var serveCases = []struct {
	tensor string
	modes  []int
}{
	{"vast", []int{0, 1, 4}},
	{"uber", []int{1, 2, 3}},
}

// serveTenants lists each tenant's operands as indexes into serveCases;
// every operand is generated at its own seed. The per-tenant shard quota
// holds the operands of tenants 0 and 1, so they stay resident and hit.
// Tenants 2 and 3 own two large operands each, twice the quota, so each
// of their requests ends with the quota evicting the tenant's other
// operand to the spill tier.
var serveTenants = [][]int{{1}, {0, 1}, {0, 0}, {0, 0}}

// servePattern is the order requests take the operands in, as indexes into
// serveChurn.operands (tenant-major). The spill budget holds one large
// image, so a churning tenant's second request reloads the image its first
// request spilled, while its first request finds its image dropped by the
// other churning tenant's spill and rebuilds. Per pass: six hits, two
// reloads, two rebuilds, which puts the median in the band of resident
// large operands and the tail in the rebuilds, away from a band boundary.
var servePattern = []int{3, 0, 1, 4, 2, 0, 5, 1, 6, 0}

type serveOperand struct {
	kase   string
	tenant string
	t      *fastcc.Tensor
	req    server.ContractRequest // Left/Right filled per session
	ref    digest
}

// serveChurn drives an in-process server on loopback with one closed-loop
// client per CPU, each running contract, fetch and delete.
type serveChurn struct {
	g        gate
	scale    float64
	dir      string
	operands []serveOperand
	// Sized from the largest operand's shard footprint: see serveTenants
	// and servePattern. The cache budget holds every operand, so only the
	// quota evicts and the mix does not depend on thread timing.
	cacheBudget, quota, spillBudget int64
}

func prepareServeChurn(cfg config) (bench, error) {
	b := &serveChurn{scale: frosttScale * cfg.scale, dir: cfg.out}
	var total, largest int64
	for k, cases := range serveTenants {
		for _, j := range cases {
			c := serveCases[j]
			spec, err := gen.FrosttByName(c.tensor)
			if err != nil {
				return nil, err
			}
			seed := mix(cfg.seed + uint64(len(b.operands)))
			t, err := spec.Scaled(b.scale).Generate(seed)
			if err == nil {
				t, err = canonical(t)
			}
			if err != nil {
				return nil, fmt.Errorf("generating %s: %w", c.tensor, err)
			}
			name := gen.ContractionName(c.tensor, c.modes)
			ref, err := reference(t, t, fastcc.Spec{CtrLeft: c.modes, CtrRight: c.modes}, seed)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			n, err := shardBytes(t, c.modes)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			total += n
			largest = max(largest, n)
			b.operands = append(b.operands, serveOperand{
				kase: name, tenant: fmt.Sprintf("tenant-%d", k), t: t, ref: ref,
				req: server.ContractRequest{CtrLeft: c.modes, CtrRight: c.modes},
			})
		}
	}
	// A vast-014 spill image is about 0.37 of its resident shard, so half
	// the largest shard holds one image and not two.
	b.cacheBudget, b.quota, b.spillBudget = total, largest*3/2, largest/2
	return b, nil
}

// canonical round-trips t through the BTNS wire format, which sorts its
// elements. The server contracts that form, and the order of the elements
// sets the order of the floating-point sums, so the reference digest must
// come from it too.
func canonical(t *fastcc.Tensor) (*fastcc.Tensor, error) {
	var buf bytes.Buffer
	if err := fastcc.WriteBTNS(&buf, t); err != nil {
		return nil, err
	}
	return fastcc.ReadBTNS(&buf)
}

// shardBytes is the tile-shard footprint of a self-contraction's operand.
func shardBytes(t *fastcc.Tensor, modes []int) (int64, error) {
	sh, err := fastcc.Preshard(t, modes)
	if err != nil {
		return 0, err
	}
	defer sh.Drop()
	if _, _, err := fastcc.ContractPrepared(sh, sh, fastcc.WithThreads(1), fastcc.WithShardBudget(-1)); err != nil {
		return 0, err
	}
	return sh.SizeBytes(), nil
}

func (b *serveChurn) gate() *gate { return &b.g }

func (b *serveChurn) scales() map[string]float64 { return map[string]float64{"frostt": b.scale} }

// open starts a server whose contractions use threads workers, and uploads
// every operand through its tenant's client.
func (b *serveChurn) open(threads int, tr *tracer) (_ session, err error) {
	if err := os.MkdirAll(b.dir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(b.dir, "spill-")
	if err != nil {
		return nil, err
	}
	nproc := runtime.NumCPU()
	srv, err := server.New(server.Config{
		Threads:     threads,
		CacheBudget: b.cacheBudget,
		TenantQuota: b.quota,
		SpillDir:    dir,
		SpillBudget: b.spillBudget,
		// One contraction at a time keeps the cache's accesses in request
		// order; the other client's request waits in the queue.
		Inflight: 1,
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		fastcc.ConfigureSpill("", 0, false)
		os.RemoveAll(dir)
		return nil, err
	}
	s := &serveSession{
		b: b, srv: srv, dir: dir,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
		hc:     &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: nproc, MaxConnsPerHost: nproc}},
		ops:    append([]serveOperand(nil), b.operands...),
		n:      nproc,
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	base := "http://" + ln.Addr().String()
	s.byTenant = map[string]*server.Client{}
	for i := range s.ops {
		o := &s.ops[i]
		cl := s.byTenant[o.tenant]
		if cl == nil {
			cl = server.NewClient(base, o.tenant, s.hc)
			s.byTenant[o.tenant] = cl
		}
		start := time.Now()
		hash, err := cl.Upload(context.Background(), o.t)
		tr.add(tr.req(), 0, "client.Upload", o.kase, start, time.Now(), nil)
		if err != nil {
			return nil, fmt.Errorf("uploading %s for %s: %w", o.kase, o.tenant, err)
		}
		o.req.Left, o.req.Right = hash, hash
	}
	return s, nil
}

type serveSession struct {
	b        *serveChurn
	srv      *server.Server
	dir      string
	hs       *http.Server
	served   chan error
	hc       *http.Client
	byTenant map[string]*server.Client
	ops      []serveOperand
	n        int
	// ticket orders requests across clients along servePattern.
	ticket atomic.Int64
}

func (s *serveSession) clients() int { return s.n }

func (s *serveSession) cycle() int { return len(servePattern) }

// single replaces the server with one whose contractions use one worker.
func (s *serveSession) single(tr *tracer) (session, error) {
	if err := s.close(); err != nil {
		return nil, err
	}
	return s.b.open(1, tr)
}

// close stops the listener, then the server, whose Close reports any shard
// or output memory the run leaked; the spill tier is switched off before
// its directory is removed.
func (s *serveSession) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.hc.CloseIdleConnections()
	if cerr := s.srv.Close(); err == nil {
		err = cerr
	}
	if serr := fastcc.ConfigureSpill("", 0, false); err == nil {
		err = serr
	}
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// do runs one request: contract, fetch, check, delete. Its latency is the
// three calls' time; the check runs between them, outside it.
func (s *serveSession) do(_, _ int, tr *tracer) op {
	o := &s.ops[servePattern[(s.ticket.Add(1)-1)%int64(len(servePattern))]]
	cl := s.byTenant[o.tenant]
	ctx := context.Background()
	res := op{kase: o.kase}
	req := tr.req()

	var before fastcc.CacheStats
	if tr != nil {
		before = fastcc.ShardCacheStats()
	}
	t0 := time.Now()
	resp, err := cl.Contract(ctx, &o.req)
	t1 := time.Now()
	res.contract = t1.Sub(t0)
	if tr != nil {
		id := tr.add(req, 0, "client.Contract", o.kase, t0, t1, cacheDelta(before, fastcc.ShardCacheStats()))
		if resp != nil {
			eng := tr.add(req, id, "server.engine", "", t0, t0.Add(time.Duration(resp.TotalNS)), nil)
			tr.children(req, eng, t0, []string{"build", "contract"},
				[]time.Duration{time.Duration(resp.BuildNS), time.Duration(resp.ContractNS)})
		}
	}
	if err != nil {
		var ae *server.APIError
		res.rejected = errors.As(err, &ae) && ae.Code == "queue_full"
		res.err, res.lat = err, res.contract
		return res
	}
	res.resp = resp

	t2 := time.Now()
	out, err := cl.Fetch(ctx, resp.ResultID)
	t3 := time.Now()
	res.fetch = t3.Sub(t2)
	tr.add(req, 0, "client.Fetch", o.kase, t2, t3, nil)
	if err == nil {
		res.wrong = !s.b.g.ok(out, o.ref)
	}

	t4 := time.Now()
	derr := cl.DeleteResult(ctx, resp.ResultID)
	t5 := time.Now()
	tr.add(req, 0, "client.DeleteResult", o.kase, t4, t5, nil)
	res.lat = res.contract + res.fetch + t5.Sub(t4)
	res.err = errors.Join(err, derr)
	return res
}
