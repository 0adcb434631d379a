package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"dcert"
)

// maxStaleRetries is the stale-tip rule's retry budget. A state proof
// carries no height, so a replica that has already applied a block the
// client has not yet seen certified answers with a proof the client's tip
// cannot verify. On a verification failure the client refreshes its tip
// (RequestLatestBundle + ValidateChain) and asks again, at most this many
// times; a response that still does not verify counts as failed.
const maxStaleRetries = 2

// zipfTheta is the key-popularity skew: rank k (from 0) is asked with
// weight (1+k)^-zipfTheta. It is YCSB's zipfian constant (0.99, the
// request distribution of the Yahoo! Cloud Serving Benchmark's core
// workloads; Cooper et al., SoCC 2010).
const zipfTheta = 0.99

// zipfian draws ranks in [0, n) with weight (1+k)^-theta for any theta in
// (0, 1), by the method of Gray et al., "Quickly generating billion-record
// synthetic databases" (SIGMOD 1994), as YCSB's ZipfianGenerator does.
// (math/rand's Zipf needs an exponent above 1.)
type zipfian struct {
	rng                      *rand.Rand
	n                        float64
	theta, alpha, zetan, eta float64
}

func newZipfian(rng *rand.Rand, n int, theta float64) *zipfian {
	zeta := func(n int) float64 {
		s := 0.0
		for i := 1; i <= n; i++ {
			s += math.Pow(float64(i), -theta)
		}
		return s
	}
	z := &zipfian{rng: rng, n: float64(n), theta: theta, alpha: 1 / (1 - theta), zetan: zeta(n)}
	z.eta = (1 - math.Pow(2/z.n, 1-theta)) / (1 - zeta(2)/z.zetan)
	return z
}

func (z *zipfian) next() int {
	u := z.rng.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+math.Pow(0.5, z.theta) {
		return 1
	}
	return min(int(z.n*math.Pow(z.eta*u-z.eta+1, z.alpha)), int(z.n)-1)
}

// keyPicker draws keys with a Zipf skew over a seeded permutation of the
// keys the workload wrote, so the hot keys differ from seed to seed.
type keyPicker struct {
	keys []string
	zipf *zipfian
}

func newKeyPicker(keys []string, seed int64) *keyPicker {
	rng := rand.New(rand.NewSource(seed))
	perm := make([]string, len(keys))
	for i, j := range rng.Perm(len(keys)) {
		perm[i] = keys[j]
	}
	return &keyPicker{keys: perm, zipf: newZipfian(rng, len(keys), zipfTheta)}
}

func (p *keyPicker) next() string { return p.keys[p.zipf.next()] }

// writtenKeys replays KVStore "set" transactions into the state keys they
// write (the KVStore contract stores key k of contract c at ct/c/kv/k) and
// their latest values.
type writtenKeys struct {
	order  []string // first-write order
	values map[string][]byte
}

func newWrittenKeys() *writtenKeys { return &writtenKeys{values: make(map[string][]byte)} }

func (w *writtenKeys) add(blk *dcert.Block) {
	for _, tx := range blk.Txs {
		if tx.Method != "set" || len(tx.Args) != 2 {
			continue
		}
		k := "ct/" + tx.Contract + "/kv/" + string(tx.Args[0])
		if _, seen := w.values[k]; !seen {
			w.order = append(w.order, k)
		}
		w.values[k] = tx.Args[1]
	}
}

// queryTotals counts one client's queries over a phase.
type queryTotals struct {
	attempted, verified, failed int
	// retries counts stale-tip retries.
	retries    int
	proofBytes int64
	// latUs holds each verified query's latency, send to verified, by the
	// tailWindow of the phase in which the query completed.
	latUs [][]float64
}

// tailWindow is the stretch of a phase over which a windowed query tail is
// taken (see workload.windowedTail).
const tailWindow = 2 * time.Second

// all returns every latency of the phase.
func (t *queryTotals) all() []float64 {
	var out []float64
	for _, w := range t.latUs {
		out = append(out, w...)
	}
	return out
}

// add merges the totals of a client that ran in the same phase: window i
// of both covers the same stretch of time.
func (t *queryTotals) add(o queryTotals) {
	t.attempted += o.attempted
	t.verified += o.verified
	t.failed += o.failed
	t.retries += o.retries
	t.proofBytes += o.proofBytes
	for i, w := range o.latUs {
		if i == len(t.latUs) {
			t.latUs = append(t.latUs, nil)
		}
		t.latUs[i] = append(t.latUs[i], w...)
	}
}

// extend appends the totals of a later phase, whose windows follow t's.
func (t *queryTotals) extend(o queryTotals) {
	latUs := append(t.latUs, o.latUs...)
	o.latUs = nil
	t.add(o)
	t.latUs = latUs
}

// queryClient is one closed-loop verifying client: it sends a state read
// over the dcert/query RPC route, parses the answer and verifies its proof
// against the certified header it holds.
type queryClient struct {
	id     uint64
	rpc    func(*dcert.QueryRequest) (*dcert.QueryResponse, error)
	bundle func() (*dcert.CertBundle, error)
	slc    *dcert.SuperlightClient
	tip    *dcert.Header
	pick   *keyPicker
	// expect, when set, holds the exact value every key must have: the
	// chain does not move while the client reads.
	expect map[string][]byte
	tr     *tracer

	seq uint64
	// phaseStart anchors the latency windows of the current phase, which
	// lasts phaseLen.
	phaseStart time.Time
	phaseLen   time.Duration
	tot        queryTotals
	lastErr    error
}

// newQueryClient attaches a verifying client to a wire connection and
// adopts the node's latest certified header.
func newQueryClient(id uint64, c *dcert.WireClient, pick *keyPicker, tr *tracer) (*queryClient, error) {
	slc, err := dcert.NewRemoteSuperlightClient(c)
	if err != nil {
		return nil, err
	}
	q := &queryClient{
		id:         id,
		rpc:        func(req *dcert.QueryRequest) (*dcert.QueryResponse, error) { return dcert.RequestQuery(c, req) },
		bundle:     func() (*dcert.CertBundle, error) { return dcert.RequestLatestBundle(c) },
		slc:        slc,
		pick:       pick,
		tr:         tr,
		phaseStart: time.Now(),
	}
	if err := q.refresh(); err != nil {
		return nil, err
	}
	return q, nil
}

// span records a child span of the current query.
func (q *queryClient) span(name string, start time.Time) {
	q.tr.span(name, "query", q.id<<40|q.seq, start, time.Now())
}

// refresh fetches the node's latest certificate bundle and, when it is newer
// than the client's tip, validates and adopts it.
func (q *queryClient) refresh() error {
	t0 := time.Now()
	defer q.span("query.refresh", t0)
	b, err := q.bundle()
	if err != nil {
		return err
	}
	if b == nil {
		return errors.New("node has no certified block")
	}
	if q.tip != nil && b.Header.Height <= q.tip.Height {
		return nil
	}
	t1 := time.Now()
	err = q.slc.ValidateChain(b.Header, b.Cert)
	q.span("core.client_validate", t1)
	if err != nil {
		return fmt.Errorf("validate bundle at height %d: %w", b.Header.Height, err)
	}
	q.tip = b.Header
	return nil
}

// one runs a single query to completion and accounts for it.
func (q *queryClient) one() {
	q.seq++
	t0 := time.Now()
	q.tot.attempted++
	key := q.pick.next()
	if err := q.ask(key); err != nil {
		q.tot.failed++
		q.lastErr = fmt.Errorf("key %s: %w", key, err)
		return
	}
	end := time.Now()
	q.tot.verified++
	// A query that finishes after the deadline joins the phase's last
	// window rather than opening a window of a few samples.
	w := int(min(end.Sub(q.phaseStart), q.phaseLen-1) / tailWindow)
	for len(q.tot.latUs) <= w {
		q.tot.latUs = append(q.tot.latUs, nil)
	}
	q.tot.latUs[w] = append(q.tot.latUs[w], us(end.Sub(t0)))
	q.tr.span("query", "", q.id<<40|q.seq, t0, end)
}

// ask sends one state read and verifies the answer under the stale-tip rule.
func (q *queryClient) ask(key string) error {
	req := dcert.NewRemoteStateRequest(key)
	var verr error
	for attempt := 0; attempt <= maxStaleRetries; attempt++ {
		if attempt > 0 {
			q.tot.retries++
			if err := q.refresh(); err != nil {
				return fmt.Errorf("refresh tip: %w", err)
			}
		}
		t := time.Now()
		resp, err := q.rpc(req)
		q.span("transport.rpc", t)
		if err != nil {
			return err
		}
		t = time.Now()
		res, err := dcert.ParseStateResult(resp)
		q.span("query.parse", t)
		if err != nil {
			return err
		}
		if res.Key != key {
			return fmt.Errorf("answer is for key %q", res.Key)
		}
		t = time.Now()
		verr = dcert.VerifyState(q.tip, res)
		q.span("query.verify", t)
		if verr != nil {
			continue
		}
		if q.expect != nil && !bytes.Equal(res.Value, q.expect[key]) {
			return fmt.Errorf("verified value %q, the chain wrote %q", res.Value, q.expect[key])
		}
		if q.expect == nil && res.Value == nil {
			return errors.New("verified absent, but the key was written")
		}
		q.tot.proofBytes += int64(res.EncodedSize())
		return nil
	}
	return fmt.Errorf("no verification after %d tip refreshes: %w", maxStaleRetries, verr)
}

// take hands back the client's totals since the last take.
func (q *queryClient) take() queryTotals {
	t := q.tot
	q.tot = queryTotals{}
	return t
}

// runQueries runs every client closed loop, each on its own goroutine,
// until d has passed.
func runQueries(clients []*queryClient, d time.Duration) {
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for _, q := range clients {
		q.phaseStart, q.phaseLen = start, d
		wg.Add(1)
		go func(q *queryClient) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				q.one()
			}
		}(q)
	}
	wg.Wait()
}
