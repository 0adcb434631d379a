package main

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"dcert"
)

// Self-tests of the harness: the benchmark's own rules, checked against a
// small in-memory deployment where the program is needed.

// tailLadder holds the percentiles a tail may be reported at. Each workload
// fixes its tails as the highest rung that leaves minBeyond samples beyond
// it at the workload's nominal sample count. Above p99 the rungs go by
// decades: a rung between them, such as p99.95, lands among the few dozen
// multi-millisecond scheduling stalls of a 2-core host, whose count and
// length move from run to run by more than the metrics' bounds.
var tailLadder = []float64{50, 75, 80, 85, 90, 95, 99, 99.9, 99.99}

// tailFor returns the highest ladder percentile that leaves at least
// minBeyond of n samples beyond it (0 when n is too small for any rung).
func tailFor(n int) float64 {
	best := 0.0
	for _, p := range tailLadder {
		if samplesBeyond(n, p) >= minBeyond {
			best = p
		}
	}
	return best
}

func TestTailPercentilesFollowRule(t *testing.T) {
	for _, w := range workloads {
		if got := tailFor(w.nominalBlocks); got != w.blockTail {
			t.Errorf("%s: block tail p%g, but %d nominal samples allow p%g", w.name, w.blockTail, w.nominalBlocks, got)
		}
		if got := tailFor(w.nominalQueries); got != w.queryTail {
			t.Errorf("%s: query tail p%g, but %d nominal samples allow p%g", w.name, w.queryTail, w.nominalQueries, got)
		}
	}
	cases := []struct {
		n    int
		want float64
	}{{9, 0}, {20, 50}, {40, 75}, {99, 85}, {100, 90}, {1000, 99}, {10000, 99.9}, {100000, 99.99}}
	for _, c := range cases {
		if got := tailFor(c.n); got != c.want {
			t.Errorf("tailFor(%d) = p%g, want p%g", c.n, got, c.want)
		}
		if c.want > 0 && samplesBeyond(c.n, c.want) < minBeyond {
			t.Errorf("p%g of %d leaves %d samples beyond", c.want, c.n, samplesBeyond(c.n, c.want))
		}
	}
	samples := make([]float64, 100)
	for i := range samples {
		samples[i] = float64(100 - i) // 1..100, unsorted
	}
	if got := percentile(samples, 90); got != 90 {
		t.Errorf("p90 of 1..100 = %g, want 90", got)
	}
	if got := percentile(samples, 85); got != 85 || samplesBeyond(100, 85) != 15 {
		t.Errorf("p85 of 1..100 = %g with %d beyond", got, samplesBeyond(100, 85))
	}
}

func TestWindowedTailSkipsWindowsTooSmallForTheRule(t *testing.T) {
	window := func(n int, slow float64) []float64 {
		w := make([]float64, n)
		for i := range w {
			w[i] = 1
		}
		for i := 0; i < 40; i++ {
			w[i] = slow // more than the 30 samples beyond p99.9 of 30000
		}
		return w
	}
	b := &bench{w: &workload{queryTail: 99.9, windowedTail: true}}
	// The last window only holds the few queries that finished after the
	// deadline; every one of them is slow, and none may set the tail.
	q := queryTotals{latUs: [][]float64{window(30000, 3), window(30000, 5), window(30000, 4), {900, 900}}}
	if got := b.queryTail(q); got != 4 {
		t.Fatalf("windowed tail %g, want the median of the full windows' tails, 4", got)
	}
}

func TestPhasesOfOneNameAddUp(t *testing.T) {
	now := time.Now()
	b := &bench{phases: []*phase{
		{name: "audit", dur: 3 * time.Second, p1: probe{cpu: time.Second},
			q: queryTotals{attempted: 3, verified: 3, latUs: [][]float64{{1, 2}, {3}}}},
		{name: "ingest", dur: time.Second, blocks: []blockSample{{height: 2, followed: now}}},
		{name: "audit", dur: 2 * time.Second, p0: probe{cpu: time.Second}, p1: probe{cpu: 3 * time.Second},
			q: queryTotals{attempted: 1, verified: 1, latUs: [][]float64{{4}}}},
	}}
	s := b.named([]string{"audit"})
	if s.dur != 5*time.Second || s.cpu != 3*time.Second || len(s.blocks) != 0 {
		t.Fatalf("audit phases: %v wall, %v CPU, %d blocks; want 5s, 3s, 0", s.dur, s.cpu, len(s.blocks))
	}
	// Each phase keeps its own windows: a later phase's first window is not
	// an earlier one's.
	if s.q.attempted != 4 || s.q.verified != 4 || len(s.q.latUs) != 3 || s.q.latUs[2][0] != 4 {
		t.Fatalf("audit queries: %+v", s.q)
	}
	if s := b.named([]string{"ingest", "audit"}); len(s.blocks) != 1 || s.dur != 6*time.Second {
		t.Fatalf("ingest and audit: %d blocks over %v", len(s.blocks), s.dur)
	}
}

func TestOpenLoopMeasuresFromDueTime(t *testing.T) {
	const interval = 20 * time.Millisecond
	const stall = 90 * time.Millisecond
	var h uint64
	g := &ingestor{next: 1}
	g.call = func() (uint64, error) {
		h++
		if h == 1 {
			time.Sleep(stall) // the first block stalls the generator
		}
		return h, nil
	}
	out := g.openLoop(5*interval, interval)
	if len(out) != 5 {
		t.Fatalf("%d blocks, want 5", len(out))
	}
	t0 := out[0].due
	for i, s := range out {
		if want := t0.Add(time.Duration(i) * interval); !s.due.Equal(want) {
			t.Errorf("block %d due %v after start, want %v", i, s.due.Sub(t0), want.Sub(t0))
		}
		if s.certifyMs() != ms(s.end.Sub(s.due)) || s.followerMs() != ms(s.followed.Sub(s.due)) {
			t.Errorf("block %d: latencies not measured from the due time", i)
		}
		if s.failed() {
			t.Errorf("block %d failed", i)
		}
	}
	// Every block queued behind the stall carries the wait it imposed.
	for i := 1; i < len(out); i++ {
		if wait := stall - time.Duration(i)*interval; wait > 0 && out[i].certifyMs() < ms(wait) {
			t.Errorf("block %d: latency %.1f ms hides the %.1f ms it waited behind the stall", i, out[i].certifyMs(), ms(wait))
		}
	}
}

// miniNode is a small in-memory deployment behind the wire, with a
// verifying query client attached at height 2.
type miniNode struct {
	dep  *dcert.Deployment
	conn *dcert.WireClient
	q    *queryClient
}

func newMiniNode(t *testing.T) *miniNode {
	t.Helper()
	dep, err := dcert.NewDeployment(dcert.Config{Difficulty: 2, Seed: 7, KeySpace: 30, Contracts: 4, Accounts: 8})
	if err != nil {
		t.Fatal(err)
	}
	written := newWrittenKeys()
	for i := 0; i < 2; i++ {
		blk, _, err := dep.MineAndCertify(20)
		if err != nil {
			t.Fatal(err)
		}
		written.add(blk)
	}
	srv, err := dep.ServeWire(dcert.WireServerConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	conn, err := dcert.DialWire(srv.Addr(), dcert.WireClientConfig{Name: "self-test"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	q, err := newQueryClient(0, conn, newKeyPicker(written.order, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	q.expect = written.values
	return &miniNode{dep: dep, conn: conn, q: q}
}

// failedOpsRatio accounts a client's queries the way a run does.
func failedOpsRatio(q *queryClient) float64 {
	b := &bench{phases: []*phase{{q: q.take()}}}
	attempted, failed := b.tally()
	return ratio(float64(failed), float64(attempted))
}

func TestHonestResponsesVerify(t *testing.T) {
	n := newMiniNode(t)
	for i := 0; i < 20; i++ {
		n.q.one()
	}
	if n.q.lastErr != nil {
		t.Fatal(n.q.lastErr)
	}
	if r := failedOpsRatio(n.q); r != 0 {
		t.Fatalf("failed_ops_ratio %g on honest responses", r)
	}
}

func TestFlippedProofByteIsRejected(t *testing.T) {
	n := newMiniNode(t)
	honest := n.q.rpc
	n.q.rpc = func(req *dcert.QueryRequest) (*dcert.QueryResponse, error) {
		resp, err := honest(req)
		if err != nil {
			return nil, err
		}
		body := append([]byte(nil), resp.Body...)
		body[len(body)-8] ^= 0x01 // inside the trailing proof bytes
		resp.Body = body
		return resp, nil
	}
	const queries = 10
	for i := 0; i < queries; i++ {
		n.q.one()
	}
	if n.q.tot.verified != 0 || n.q.tot.failed != queries {
		t.Fatalf("verified %d, failed %d of %d tampered responses", n.q.tot.verified, n.q.tot.failed, queries)
	}
	if r := failedOpsRatio(n.q); r != 1 {
		t.Fatalf("failed_ops_ratio %g, want 1", r)
	}
}

func TestCertificateForWrongHeaderIsRejected(t *testing.T) {
	n := newMiniNode(t)
	// The chain moves on, so the client's tip no longer verifies new
	// proofs and it must refresh — from a node that pairs the new
	// certificate with a header it does not cover.
	if _, _, err := n.dep.MineAndCertify(20); err != nil {
		t.Fatal(err)
	}
	n.q.expect = nil
	honest := n.q.bundle
	n.q.bundle = func() (*dcert.CertBundle, error) {
		b, err := honest()
		if err != nil {
			return nil, err
		}
		forged := *b.Header
		forged.Time++
		return &dcert.CertBundle{Header: &forged, Cert: b.Cert}, nil
	}
	n.q.one()
	if n.q.tot.failed != 1 || n.q.lastErr == nil {
		t.Fatalf("failed %d (err %v): the forged bundle was accepted", n.q.tot.failed, n.q.lastErr)
	}
	if hdr, _ := n.q.slc.Latest(); hdr.Height != 2 {
		t.Fatalf("client adopted height %d from a forged bundle", hdr.Height)
	}
	if r := failedOpsRatio(n.q); r != 1 {
		t.Fatalf("failed_ops_ratio %g, want 1", r)
	}

	// With the honest bundle the same client recovers through the
	// stale-tip rule.
	n.q.bundle = honest
	n.q.one()
	if n.q.tot.verified != 1 || n.q.tot.retries != 1 {
		t.Fatalf("honest refresh: verified %d after %d retries (last error %v)", n.q.tot.verified, n.q.tot.retries, n.q.lastErr)
	}
}

func TestFollowerRejectionCountsAsFailure(t *testing.T) {
	b := &bench{phases: []*phase{{blocks: []blockSample{
		{height: 5, followed: time.Now()},
		{height: 6, followed: time.Now()},
	}}}, refused: 1}
	if attempted, failed := b.tally(); attempted != 2 || failed != 1 {
		t.Fatalf("tally = %d attempted, %d failed; want 2, 1", attempted, failed)
	}
	b.refused = 0
	b.phases[0].blocks[1].err = errors.New("certify failed")
	if _, failed := b.tally(); failed != 1 {
		t.Fatalf("a failed ingest call tallied %d failures", failed)
	}
}

func TestOnlyUnexplainedRefusalsCount(t *testing.T) {
	cases := []struct {
		stats []dcert.FollowerStats
		want  uint64
	}{
		// Each follower refuses the duplicate that one re-request brought.
		{[]dcert.FollowerStats{{Rejected: 1, Rerequests: 1}, {Rejected: 1}}, 0},
		// No re-request explains a refusal: the bundle did not verify.
		{[]dcert.FollowerStats{{Rejected: 1}, {}}, 1},
		// Two refusals, one re-published bundle: one is unexplained.
		{[]dcert.FollowerStats{{Rejected: 2}, {Rejected: 1, Rerequests: 1}}, 1},
	}
	for i, c := range cases {
		if got := refusedBeyondDuplicates(c.stats); got != c.want {
			t.Errorf("case %d: %d refusals count as failures, want %d", i, got, c.want)
		}
	}
}

func TestZipfianFollowsItsWeights(t *testing.T) {
	const n, draws = 50, 400000
	z := newZipfian(rand.New(rand.NewSource(1)), n, zipfTheta)
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[z.next()]++
	}
	norm := 0.0
	for k := 0; k < n; k++ {
		norm += math.Pow(float64(k+1), -zipfTheta)
	}
	// Gray et al.'s method is exact for the two hottest ranks and
	// approximates the rest; the head of the distribution is what sets the
	// cache hit ratio.
	for k := 0; k < 5; k++ {
		want := math.Pow(float64(k+1), -zipfTheta) / norm
		got := float64(counts[k]) / draws
		if math.Abs(got-want) > 0.15*want {
			t.Errorf("rank %d drawn %.4f of the time, want %.4f", k, got, want)
		}
	}
}
