package server

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"

	"fastcc"
)

// TestServerSoakManyTenants is the PR's acceptance soak: 64 concurrent
// tenants with distinct operands hammer one server whose shard cache is
// deliberately far too small for the combined working set, under per-tenant
// quotas. Every response must be bit-identical to a direct contraction of
// the same canonical operands, per-tenant charges must respect the quotas
// at quiescence, and shutting the server down must leave every leak gauge
// at its baseline. Run it under -race (the CI gate does).
func TestServerSoakManyTenants(t *testing.T) {
	const (
		tenants     = 64
		runsEach    = 3
		cacheBudget = 64 << 10 // bytes; far below 64 tenants' working sets
		tenantQuota = 16 << 10
	)

	srv, err := New(Config{
		Threads:     2,
		CacheBudget: cacheBudget,
		TenantQuota: tenantQuota,
		Inflight:    8,
		Queue:       2 * tenants,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	hs := httptest.NewServer(srv.Handler())

	hammerTenants(t, hs.URL, tenants)

	// Quiescent: every tenant's run-exit enforcement has settled, so no
	// account may exceed its quota (pins are all released).
	for _, ts := range fastcc.AllTenantCacheStats() {
		if ts.Bytes > tenantQuota {
			t.Errorf("tenant %s holds %d bytes at quiescence, quota %d", ts.ID, ts.Bytes, ts.QuotaBytes)
		}
	}
	cs := fastcc.ShardCacheStats()
	if cs.Evictions == 0 {
		t.Error("soak produced no evictions — cache budget was not under pressure")
	}

	// Clean shutdown: HTTP listener first, then the Server's own leak check
	// (shard cache and drain segments back to the New-time baseline).
	hs.Close()
	if err := srv.Close(); err != nil {
		t.Errorf("leak check at shutdown: %v", err)
	}
}

// TestServerSoakSpillChurn is the disk-tier soak: 128 concurrent tenants
// against a shard cache so small that almost every working set spills, with
// a spill directory big enough to keep the evicted shards on disk. Every
// response must still be bit-identical to a direct contraction (the reload
// path is on the hot serving path here), and after shutdown both the leak
// gauges and the spill directory itself must be empty — a surviving .fspl
// file is a disk leak the server Close reports. Run under -race (the CI
// gate does).
func TestServerSoakSpillChurn(t *testing.T) {
	const (
		tenants     = 128
		cacheBudget = 32 << 10 // bytes of RAM tier; forces constant eviction
		spillBudget = 64 << 20 // disk tier holds what RAM cannot
		tenantQuota = 16 << 10
	)
	spillDir := t.TempDir()
	// Spill config is process-global; restore the no-spill default so later
	// tests (and other packages' tests in this binary) are unaffected.
	defer func() {
		if err := fastcc.ConfigureSpill("", 0, false); err != nil {
			t.Errorf("disabling spill: %v", err)
		}
	}()
	base := fastcc.ShardCacheStats()

	srv, err := New(Config{
		Threads:     2,
		CacheBudget: cacheBudget,
		TenantQuota: tenantQuota,
		Inflight:    8,
		Queue:       2 * tenants,
		SpillDir:    spillDir,
		SpillBudget: spillBudget,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	hs := httptest.NewServer(srv.Handler())

	hammerTenants(t, hs.URL, tenants)

	cs := fastcc.ShardCacheStats()
	if cs.SpillWrites-base.SpillWrites == 0 {
		t.Error("soak produced no spill writes — the disk tier was never exercised")
	}

	hs.Close()
	// Close's leak check covers the spill-file gauge (SpillPersist is off);
	// the on-disk check below catches anything the gauge missed.
	if err := srv.Close(); err != nil {
		t.Errorf("leak check at shutdown: %v", err)
	}
	ents, err := os.ReadDir(spillDir)
	if err != nil {
		t.Fatalf("reading spill dir after shutdown: %v", err)
	}
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".fspl") {
			t.Errorf("spill file %s survived shutdown", e.Name())
		}
	}
}

// hammerTenants runs n concurrent tenant lives (soakTenant) against baseURL
// and reports every failure.
func hammerTenants(t *testing.T, baseURL string, n int) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := soakTenant(baseURL, i); err != nil {
				errs <- fmt.Errorf("tenant %d: %w", i, err)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// soakTenant is one tenant's life: upload two distinct operands, contract
// them repeatedly (cold and warm passes), verify each download against a
// direct local contraction, then clean up via the API.
func soakTenant(baseURL string, i int) error {
	ctx := context.Background()
	c := NewClient(baseURL, fmt.Sprintf("soak-tenant-%03d", i), nil)
	rng := rand.New(rand.NewSource(int64(1000 + i)))

	// Distinct shapes and content per tenant: dims vary with the tenant
	// index so no two tenants dedup onto the same registry entry.
	d1 := uint64(20 + i%7)
	d2 := uint64(15 + i%5)
	d3 := uint64(10 + i%3)
	l := canonTensor(randTensor(rng, []uint64{d1, d2}, 200))
	r := canonTensor(randTensor(rng, []uint64{d2, d3}, 150))

	want, _, err := fastcc.Contract(l, r,
		fastcc.Spec{CtrLeft: []int{1}, CtrRight: []int{0}}, fastcc.WithThreads(2))
	if err != nil {
		return fmt.Errorf("direct contraction: %w", err)
	}

	lh, err := c.Upload(ctx, l)
	if err != nil {
		return fmt.Errorf("upload left: %w", err)
	}
	rh, err := c.Upload(ctx, r)
	if err != nil {
		return fmt.Errorf("upload right: %w", err)
	}

	for run := 0; run < runsEachSoak; run++ {
		resp, err := c.Contract(ctx, &ContractRequest{Left: lh, Right: rh, Expr: "ik,kl->il"})
		if err != nil {
			return fmt.Errorf("run %d: %w", run, err)
		}
		got, err := c.Fetch(ctx, resp.ResultID)
		if err != nil {
			return fmt.Errorf("run %d fetch: %w", run, err)
		}
		if !fastcc.Equal(got, want) {
			return fmt.Errorf("run %d: result differs from direct contraction", run)
		}
		if err := c.DeleteResult(ctx, resp.ResultID); err != nil {
			return fmt.Errorf("run %d delete: %w", run, err)
		}
	}

	if err := c.Release(ctx, lh); err != nil {
		return fmt.Errorf("release left: %w", err)
	}
	if err := c.Release(ctx, rh); err != nil {
		return fmt.Errorf("release right: %w", err)
	}
	return nil
}

const runsEachSoak = 3

// canonTensor is canon without a *testing.T, for use off the test goroutine.
func canonTensor(x *fastcc.Tensor) *fastcc.Tensor {
	var buf bytes.Buffer
	if err := fastcc.WriteBTNS(&buf, x); err != nil {
		panic(err)
	}
	c, err := fastcc.ReadBTNS(&buf)
	if err != nil {
		panic(err)
	}
	return c
}
