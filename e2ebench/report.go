package main

import (
	"fmt"
	"slices"
	"sort"
	"time"
)

// reporter collects metrics in print order.
type reporter struct {
	res   *result
	order []string
}

func (rp *reporter) add(name string, value float64, unit string) {
	rp.res.Metrics[name] = metric{Value: value, Unit: unit}
	rp.order = append(rp.order, name)
}

func (rp *reporter) print() {
	for _, n := range rp.order {
		m := rp.res.Metrics[n]
		fmt.Printf("metric %-32s %14.4f %s\n", n, m.Value, m.Unit)
	}
}

// stretch is the union of some of a run's phases: their blocks and queries
// together, their wall and CPU times added.
type stretch struct {
	dur, cpu time.Duration
	blocks   []blockSample
	q        queryTotals
}

// merge joins the phases keep selects.
func (b *bench) merge(keep func(ph *phase) bool) stretch {
	var s stretch
	for _, ph := range b.phases {
		if !keep(ph) {
			continue
		}
		s.dur += ph.dur
		s.cpu += ph.p1.cpu - ph.p0.cpu
		s.blocks = append(s.blocks, ph.blocks...)
		s.q.extend(ph.q)
	}
	return s
}

// named joins every phase whose name is listed.
func (b *bench) named(names []string) stretch {
	return b.merge(func(ph *phase) bool { return slices.Contains(names, ph.name) })
}

// okBlocks keeps the blocks every follower validated.
func okBlocks(samples []blockSample) []blockSample {
	var out []blockSample
	for _, s := range samples {
		if !s.failed() {
			out = append(out, s)
		}
	}
	return out
}

// tally counts the blocks and queries the run attempted and those that
// failed. A certificate bundle a follower refused, beyond the duplicates its
// re-requests explain, counts as a failed block.
func (b *bench) tally() (attempted, failed int) {
	for _, ph := range b.phases {
		for _, s := range ph.blocks {
			attempted++
			if s.failed() {
				failed++
			}
		}
		attempted += ph.q.attempted
		failed += ph.q.failed
	}
	return attempted, min(attempted, failed+int(b.refused))
}

func (b *bench) report() *result {
	res := &result{Metrics: make(map[string]metric)}
	for _, ph := range b.phases {
		for _, s := range ph.blocks {
			if s.failed() {
				fmt.Printf("failure block %d: err=%v followed=%v\n", s.height, s.err, !s.followed.IsZero())
			}
		}
	}
	for _, q := range b.clients {
		if q.lastErr != nil {
			fmt.Printf("failure query client %d (last): %v\n", q.id, q.lastErr)
		}
	}
	if b.refused > 0 {
		fmt.Printf("failure followers refused %d certificate bundles beyond duplicates\n", b.refused)
	}
	for i, st := range b.follow {
		fmt.Printf("info follower %d: %d bundles accepted, %d refused, %d stall re-requests\n",
			i, st.Accepted, st.Rejected, st.Rerequests)
	}
	for _, ph := range b.phases {
		fmt.Printf("info phase %s (traced %v): %.3f s, %d blocks, %d queries\n",
			ph.name, ph.traced, ph.dur.Seconds(), len(ph.blocks), ph.q.attempted)
	}
	res.Attempted, res.Failed = b.tally()
	res.Correct = res.Failed == 0
	fmt.Printf("info failed_ops_ratio %.6f ratio (%d of %d blocks and queries)\n",
		ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted)

	rp := &reporter{res: res}
	if b.traced {
		b.perLayer(rp)
	} else {
		b.endToEnd(rp)
	}
	rp.print()
	return res
}

func (b *bench) endToEnd(rp *reporter) {
	var setups []float64
	for _, d := range b.setupTimes {
		setups = append(setups, d.Seconds())
	}
	setup := median(setups)
	preload := b.named([]string{"preload"}).dur
	fmt.Printf("info setup: stand-ups %v (median %.3f s) + preload %v\n", b.setupTimes, setup, preload)
	rp.add("setup_s", setup+preload.Seconds(), "s")

	bp := b.named(b.w.blockPhases)
	blocks := okBlocks(bp.blocks)
	var certify, follow []float64
	for _, s := range blocks {
		certify = append(certify, s.certifyMs())
		follow = append(follow, s.followerMs())
	}
	b.checkTail("blocks", len(blocks), b.w.blockTail)
	rp.add("certified_blocks_per_s", float64(len(blocks))/bp.dur.Seconds(), "1/s")
	rp.add("certify_ms_p50", median(certify), "ms")
	rp.add("certify_ms_tail", percentile(certify, b.w.blockTail), "ms")
	rp.add("follower_ms_p50", median(follow), "ms")
	rp.add("follower_ms_tail", percentile(follow, b.w.blockTail), "ms")
	cp := b.named(b.w.cpuPhases)
	rp.add("cpu_ms_per_block", ratio(ms(cp.cpu), float64(len(okBlocks(cp.blocks)))), "ms")

	qp := b.named(b.w.queryPhases)
	lat := qp.q.all()
	rp.add("verified_queries_per_s", float64(qp.q.verified)/qp.dur.Seconds(), "1/s")
	rp.add("query_us_p50", median(lat), "us")
	rp.add("query_us_tail", b.queryTail(qp.q), "us")
	rp.add("query_proof_bytes_mean", ratio(float64(qp.q.proofBytes), float64(qp.q.verified)), "bytes")
	rp.add("max_rss_mb", maxRSSMB(), "MB")
	if b.r.fleet != nil {
		if rep, err := b.r.fleet.Replica("sp-0"); err == nil {
			fmt.Printf("info working set: %d keys; response cache holds %d responses in %d bytes\n",
				len(b.written.order), rep.Cache().Len(), rep.Cache().Bytes())
		}
	}
	fmt.Printf("info tails: blocks p%g over %d samples (phases %v), queries p%g over %d samples (phases %v, windowed %v)\n",
		b.w.blockTail, len(blocks), b.w.blockPhases, b.w.queryTail, len(lat), b.w.queryPhases, b.w.windowedTail)
}

// queryTail is the workload's query tail: the percentile over the whole
// phase, or, for a windowed tail, the median over the phase's full
// tailWindows of the percentile within each window.
func (b *bench) queryTail(q queryTotals) float64 {
	if !b.w.windowedTail {
		lat := q.all()
		b.checkTail("queries", len(lat), b.w.queryTail)
		return percentile(lat, b.w.queryTail)
	}
	var tails []float64
	for _, w := range q.latUs {
		// The window a phase ends in holds only the queries that finished
		// after its deadline: the tail rule keeps it out.
		if samplesBeyond(len(w), b.w.queryTail) >= minBeyond {
			tails = append(tails, percentile(w, b.w.queryTail))
		}
	}
	if len(tails) < len(q.latUs)-1 {
		fmt.Printf("warning %d of %d query windows have fewer than %d samples beyond p%g\n",
			len(q.latUs)-len(tails), len(q.latUs), minBeyond, b.w.queryTail)
	}
	return median(tails)
}

// checkTail warns when a run produced too few samples for its fixed tail.
func (b *bench) checkTail(what string, n int, p float64) {
	if k := samplesBeyond(n, p); k < minBeyond {
		fmt.Printf("warning %s tail p%g has only %d of %d samples beyond it (rule: %d)\n", what, p, k, n, minBeyond)
	}
}

// perLayer reports the ledger of the traced phases. Every row is measured
// from outside the program: spans around the benchmark's own calls, and
// deltas of accumulators the program already exposes.
func (b *bench) perLayer(rp *reporter) {
	var (
		blocks                                  []blockSample
		certifySec, certifyN                    float64
		exec, overhead                          time.Duration
		ecalls, bytesIn                         uint64
		appends, fsyncs, stBytes, fsyncSec, fsN float64
		published, delivered                    float64
		frames, slowDrops                       uint64
		allocBlocks, allocQueries               uint64
		hits, misses, collapsed                 uint64
		queryDur                                time.Duration
		q                                       queryTotals
		last                                    probe
	)
	for _, ph := range b.phases {
		if !ph.traced {
			continue
		}
		a, z := ph.p0, ph.p1
		last = z
		slowDrops += z.wire.SlowDrops - a.wire.SlowDrops
		if len(ph.blocks) > 0 {
			blocks = append(blocks, okBlocks(ph.blocks)...)
			certifySec += regDelta(a, z, "dcert_issuer_certify_seconds_sum")
			certifyN += regDelta(a, z, "dcert_issuer_certify_seconds_count")
			exec += z.exec - a.exec
			overhead += z.overhead - a.overhead
			ecalls += z.ecalls - a.ecalls
			bytesIn += z.bytesIn - a.bytesIn
			appends += regDelta(a, z, "dcert_storage_appends_total")
			fsyncs += regDelta(a, z, "dcert_storage_fsyncs_total")
			stBytes += regDelta(a, z, "dcert_storage_bytes_total")
			fsyncSec += regDelta(a, z, "dcert_storage_fsync_seconds_sum")
			fsN += regDelta(a, z, "dcert_storage_fsync_seconds_count")
			published += regDelta(a, z, "dcert_net_published_total")
			delivered += regDelta(a, z, "dcert_net_delivered_total")
			frames += z.wire.MessagesSent - a.wire.MessagesSent
			allocBlocks += z.alloc - a.alloc
		}
		if ph.q.attempted > 0 {
			q.add(ph.q)
			queryDur += ph.dur
			hits += z.hits - a.hits
			misses += z.misses - a.misses
			collapsed += z.collapsed - a.collapsed
			allocQueries += z.alloc - a.alloc
		}
	}
	nb := float64(len(blocks))
	nq := float64(q.attempted)
	var notes []string
	if nb == 0 {
		notes = append(notes, "every per-block row: no block was certified in the traced phases")
	} else if certifyN != nb {
		notes = append(notes, fmt.Sprintf("core.certify_ms: the registry saw %.0f certifications for %.0f blocks", certifyN, nb))
	}
	if nq == 0 {
		notes = append(notes, "every per-query row: no query ran in the traced phases")
	}
	if b.r.fleet == nil {
		notes = append(notes, "query.cache_hit_ratio and query.cache_misses_per_s: this workload reads through the default door, which has no response cache")
	}

	var ingest, wait []float64
	for _, s := range blocks {
		ingest = append(ingest, ms(s.end.Sub(s.start)))
		wait = append(wait, ms(s.start.Sub(s.due)))
	}
	ingestMs := mean(ingest)
	certifyMs := ratio(certifySec*1000, nb)
	execMs := ratio(ms(exec), nb)
	overheadMs := ratio(ms(overhead), nb)
	outsideMs := certifyMs - execMs - overheadMs
	otherMs := ingestMs - certifyMs

	rp.add("dcert.ingest_ms", ingestMs, "ms")
	rp.add("dcert.ingest_wait_ms", mean(wait), "ms")
	rp.add("core.certify_ms", certifyMs, "ms")
	rp.add("core.outside_ms", outsideMs, "ms")
	rp.add("enclave.inside_exec_ms", execMs, "ms")
	rp.add("enclave.overhead_ms", overheadMs, "ms")
	rp.add("enclave.ecalls_per_block", ratio(float64(ecalls), nb), "count")
	rp.add("enclave.bytes_in_per_block", ratio(float64(bytesIn), nb), "bytes")
	rp.add("dcert.ingest_other_ms", otherMs, "ms")
	rp.add("storage.appends_per_block", ratio(appends, nb), "count")
	rp.add("storage.fsyncs_per_block", ratio(fsyncs, nb), "count")
	rp.add("storage.bytes_per_block", ratio(stBytes, nb), "bytes")
	rp.add("storage.fsync_ms_mean", ratio(fsyncSec*1000, fsN), "ms")
	rp.add("network.published_per_block", ratio(published, nb), "count")
	rp.add("network.delivered_per_block", ratio(delivered, nb), "count")
	rp.add("transport.frames_sent_per_block", ratio(float64(frames), nb), "count")
	rp.add("transport.slow_drops", float64(slowDrops), "count")

	spanUs := func(name string, per float64) float64 {
		_, total := b.tr.total(name)
		return ratio(us(total), per)
	}
	nv, _ := b.tr.total("core.client_validate")
	if nv == 0 {
		notes = append(notes, "core.client_validate_us: no tip refresh adopted a new header in the traced phases")
	}
	rp.add("core.client_validate_us", spanUs("core.client_validate", float64(nv)), "us")
	rpcUs := spanUs("transport.rpc", nq)
	parseUs := spanUs("query.parse", nq)
	verifyUs := spanUs("query.verify", nq)
	refreshUs := spanUs("query.refresh", nq)
	nQuery, _ := b.tr.total("query")
	queryUs := spanUs("query", float64(nQuery))
	rp.add("transport.rpc_us", rpcUs, "us")
	rp.add("query.parse_us", parseUs, "us")
	rp.add("query.verify_us", verifyUs, "us")
	rp.add("query.refresh_us", refreshUs, "us")
	lookups := float64(hits + misses + collapsed)
	rp.add("query.cache_hit_ratio", ratio(float64(hits+collapsed), lookups), "ratio")
	rp.add("query.cache_misses_per_s", ratio(float64(misses), queryDur.Seconds()), "1/s")
	rp.add("query.stale_retry_ratio", ratio(float64(q.retries), nq), "ratio")
	unexplained := 100 * ratio(queryUs-(rpcUs+parseUs+verifyUs+refreshUs), queryUs)
	rp.add("ledger.query_unexplained_pct", unexplained, "%")

	rp.add("go.alloc_kb_per_block", ratio(float64(allocBlocks)/1024, nb), "KiB")
	rp.add("go.alloc_kb_per_query", ratio(float64(allocQueries)/1024, nq), "KiB")
	rp.add("go.gc_cpu_fraction", last.gcCPU, "ratio")
	rp.add("bench.tracing_overhead_pct", b.tracingOverhead(), "%")
	rp.add("bench.late_ms_tail", percentile(wait, b.w.blockTail), "ms")
	rp.add("bench.failed_ops_ratio", ratio(float64(rp.res.Failed), float64(rp.res.Attempted)), "ratio")

	fmt.Printf("ledger per block (%d traced blocks): core.outside %.3f + enclave.inside_exec %.3f + enclave.overhead %.3f + dcert.ingest_other %.3f = dcert.ingest %.3f ms\n",
		len(blocks), outsideMs, execMs, overheadMs, otherMs, ingestMs)
	fmt.Printf("ledger per query (%d traced queries): transport.rpc %.2f + query.parse %.2f + query.verify %.2f + query.refresh %.2f = %.2f of query %.2f us; unexplained %.2f%% (tolerance %g%%)\n",
		q.attempted, rpcUs, parseUs, verifyUs, refreshUs, rpcUs+parseUs+verifyUs+refreshUs, queryUs, unexplained, queryTolerancePct)
	if unexplained > queryTolerancePct || unexplained < -queryTolerancePct {
		fmt.Printf("warning per-query ledger leaves %.2f%% unexplained, beyond the %g%% tolerance\n", unexplained, queryTolerancePct)
	}
	sort.Strings(notes)
	for _, n := range notes {
		fmt.Println("not measured:", n)
	}
}

// queryTolerancePct is how much of a query's time the per-query rows may
// leave unexplained: key choice, request building and the benchmark's own
// bookkeeping sit between the spans.
const queryTolerancePct = 10.0

// tracingOverhead compares the untraced and traced halves of the run on the
// workload's closed-loop rate: verified queries per second where the halves
// read, blocks per second where they only ingest. Positive means tracing
// slowed the run.
func (b *bench) tracingOverhead() float64 {
	rate := func(traced bool) float64 {
		s := b.merge(func(ph *phase) bool { return ph.name == b.w.name && ph.traced == traced })
		if s.dur == 0 {
			return 0
		}
		if s.q.verified > 0 {
			return float64(s.q.verified) / s.dur.Seconds()
		}
		return float64(len(okBlocks(s.blocks))) / s.dur.Seconds()
	}
	off, on := rate(false), rate(true)
	return 100 * ratio(off-on, on)
}
