package query

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dcert/internal/obs"
	"dcert/internal/workload"
)

// Regression for the old FIFO cache's retention behavior: under sustained
// churn of distinct requests, cached bytes must stay inside the configured
// budget — the previous entry-count bound let large responses pin unbounded
// memory.
func TestResponseCacheBytesBoundedUnderChurn(t *testing.T) {
	const budget = 4096
	c := NewResponseCache(budget)
	payload := bytes.Repeat([]byte("x"), 300)
	for i := 0; i < 10_000; i++ {
		key := fmt.Sprintf("req-%05d", i)
		c.Do(key, func() []byte { return payload })
		if c.Bytes() > budget {
			t.Fatalf("after %d inserts cache holds %dB > budget %dB", i+1, c.Bytes(), budget)
		}
	}
	if c.Len() == 0 {
		t.Fatal("cache should retain recent entries")
	}
	// Entry accounting matches byte accounting.
	wantBytes := c.Len() * (len("req-00000") + len(payload))
	if c.Bytes() != wantBytes {
		t.Fatalf("byte accounting drifted: %dB held, %d entries × %dB = %dB",
			c.Bytes(), c.Len(), len("req-00000")+len(payload), wantBytes)
	}
	_, _, _, evictions := c.Stats()
	if evictions == 0 {
		t.Fatal("churn past the budget must evict")
	}
}

func TestResponseCacheLRUKeepsHotKeys(t *testing.T) {
	// Budget fits ~4 entries; key "hot" is touched between every insert and
	// must survive while cold keys cycle out.
	c := NewResponseCache(4 * (3 + 64))
	val := bytes.Repeat([]byte("v"), 64)
	c.Do("hot", func() []byte { return val })
	for i := 0; i < 50; i++ {
		c.Do(fmt.Sprintf("c%02d", i), func() []byte { return val })
		if _, ok := c.Get("hot"); !ok {
			t.Fatalf("hot key evicted after %d cold inserts", i+1)
		}
	}
	if _, ok := c.Get("c00"); ok {
		t.Fatal("cold key c00 should have been evicted")
	}
}

func TestResponseCacheOversizedResponseNotCached(t *testing.T) {
	c := NewResponseCache(100)
	big := bytes.Repeat([]byte("b"), 200)
	got, outcome := c.Do("huge", func() []byte { return big })
	if outcome != CacheComputed || !bytes.Equal(got, big) {
		t.Fatal("oversized response must still be computed and served")
	}
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Fatal("oversized response must not enter the cache")
	}
}

// Singleflight: M concurrent identical queries on a cold key run the
// computation exactly once; every caller gets byte-identical verified
// responses, and the collapse counter accounts for the other M-1.
func TestResponseCacheSingleflightCollapses(t *testing.T) {
	r := newRig(t, workload.KVStore)
	r.advance(t, 4, 12)
	tip := r.sp.Node().Tip()
	key := writtenKeys(t, r, 1)[0]

	reg := obs.NewRegistry()
	c := NewResponseCache(DefaultCacheBytes)
	c.Instrument(reg, "sp-0")

	var computations atomic.Uint64
	gate := make(chan struct{})
	compute := func() []byte {
		<-gate // hold every caller at the cold-key moment
		computations.Add(1)
		res, err := r.sp.StateQuery(key)
		if err != nil {
			t.Errorf("StateQuery: %v", err)
			return nil
		}
		return res.Marshal()
	}

	const m = 100
	results := make([][]byte, m)
	var wg sync.WaitGroup
	wg.Add(m)
	for i := 0; i < m; i++ {
		go func(i int) {
			defer wg.Done()
			resp, _ := c.Do("q", compute)
			results[i] = resp
		}(i)
	}
	// Resolve the flight only once every other caller has joined it inside
	// Do; releasing earlier lets late callers arrive after the flight and
	// count as cache hits instead.
	for deadline := time.Now().Add(10 * time.Second); c.waiters("q") < m-1; {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d callers joined the flight", c.waiters("q"), m-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	if n := computations.Load(); n != 1 {
		t.Fatalf("%d-way burst ran the computation %d times, want 1", m, n)
	}
	for i := 1; i < m; i++ {
		if !bytes.Equal(results[0], results[i]) {
			t.Fatalf("caller %d received different bytes", i)
		}
	}
	// Every caller's response verifies against the certified tip.
	sr, err := UnmarshalStateResult(results[0])
	if err != nil {
		t.Fatalf("UnmarshalStateResult: %v", err)
	}
	if err := VerifyState(&tip.Header, sr); err != nil {
		t.Fatalf("VerifyState: %v", err)
	}

	hits, misses, collapsed, _ := c.Stats()
	if misses != 1 {
		t.Fatalf("misses = %d, want 1", misses)
	}
	if hits+collapsed != m-1 {
		t.Fatalf("hits+collapsed = %d, want %d", hits+collapsed, m-1)
	}
	if collapsed == 0 {
		t.Fatal("a gated 100-way burst must collapse at least one caller")
	}
	// The obs counter mirrors the collapse accounting (registry lookups are
	// identity-stable: same name+labels returns the same instrument).
	obsCollapsed := reg.Counter("dcert_sp_cache_outcomes_total",
		"Response cache lookups by outcome.", obs.L("sp", "sp-0"), obs.L("outcome", "collapsed"))
	if got := obsCollapsed.Value(); got != collapsed {
		t.Fatalf("obs collapsed counter = %d, cache reports %d", got, collapsed)
	}
}
