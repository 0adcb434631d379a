package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"dcert"
)

// workload fixes one traffic mix. Every workload reports every metric; the
// README says which phases each one comes from.
type workload struct {
	name string
	opts rigOpts
	// preload is the number of blocks certified during set-up, before the
	// measured phases, so queries have a working set to read.
	preload int
	// blockPhases and queryPhases name the phases of an untraced run that
	// the end-to-end block and query metrics come from; a name may recur,
	// and every phase of a listed name counts. cpuPhases are the ones
	// cpu_ms_per_block comes from: closed-loop ingest with no reader beside
	// it, whose process CPU is the blocks' own.
	blockPhases, queryPhases, cpuPhases []string
	// blockTail and queryTail are the fixed tail percentiles: the highest
	// ladder rung leaving minBeyond samples beyond it at the nominal sample
	// counts below (at the default --seconds).
	blockTail, queryTail float64
	// windowedTail takes the query tail within each tailWindow and reports
	// the median over the windows. Where the slowest queries come from
	// scheduling and GC noise, a whole-run tail moves with a few bad
	// milliseconds; mixed keeps the whole-run tail because its slowest
	// queries are the ones parked by each block's epoch swap.
	windowedTail bool
	// nominalBlocks and nominalQueries are the sample counts one tail is
	// taken over (a run, or one tailWindow for windowed tails) at the
	// default --seconds on the reference host (2-core Xeon): the basis of
	// the tails.
	nominalBlocks, nominalQueries int
	measure                       func(b *bench) error
}

// defaultSeconds is the measured time BENCHMARK.json gives a run.
const defaultSeconds = 36

// mixedInterval is the mixed workload's open-loop block interval: about
// half the closed-loop ingest capacity of the reference host.
const mixedInterval = 500 * time.Millisecond

// ingestPerSecond sizes the ingest workload's fixed work: it certifies this
// many blocks per second of --seconds, which at the reference host's
// closed-loop rate takes about --seconds. The count is fixed so that every
// run, on every commit, ends on the same chain: with a timed phase, memory
// and the audit's trie would grow with throughput.
const ingestPerSecond = 4.5

// ingestRounds is how many rounds of ingest-then-audit the ingest workload
// runs. The host's speed drifts in regimes of tens of seconds; spreading
// both the blocks and the audit's reads over the whole run averages the
// regimes a run meets instead of measuring each row in one of them.
const ingestRounds = 3

// auditTime is how long each of ingest's audits reads: about three tenths of
// --seconds over all rounds, in whole tail windows, so no window of the
// audit's query tail is a short remnant.
func (b *bench) auditTime() time.Duration {
	per := b.seconds.Seconds() * 3 / 10 / ingestRounds
	return max(1, time.Duration(math.Round(per/tailWindow.Seconds()))) * tailWindow
}

// warmupBlocks are certified untimed before ingest's first round, and
// warmupReads is how long the query workload reads untimed before its
// measured phase, while the response cache fills. A start-up transient
// measured on the clock would take a larger share of a slow run than of a
// fast one.
const (
	warmupBlocks = 3
	warmupReads  = 3 * time.Second
)

var workloads = map[string]*workload{
	"ingest": {
		name: "ingest", opts: rigOpts{followers: 2},
		blockPhases: []string{"ingest"}, queryPhases: []string{"audit"}, cpuPhases: []string{"ingest"},
		blockTail: 90, queryTail: 99.9, windowedTail: true, nominalBlocks: 162, nominalQueries: 31000,
		measure: measureIngest,
	},
	// query's blocks are the preload and a trailer of as many blocks after
	// the reads, so its block rows, too, span the run.
	"query": {
		name: "query", opts: rigOpts{followers: 2, fleet: true}, preload: 48,
		blockPhases: []string{"preload", "trailer"}, queryPhases: []string{"query"}, cpuPhases: []string{"preload", "trailer"},
		blockTail: 85, queryTail: 99.9, windowedTail: true, nominalBlocks: 96, nominalQueries: 44000,
		measure: measureQuery,
	},
	// mixed is not in BENCHMARK.json (see README.md): it runs on demand.
	"mixed": {
		name: "mixed", opts: rigOpts{followers: 1, fleet: true}, preload: 48,
		blockPhases: []string{"mixed"}, queryPhases: []string{"mixed"}, cpuPhases: []string{"preload"},
		blockTail: 85, queryTail: 99.99, nominalBlocks: 72, nominalQueries: 360000,
		measure: measureMixed,
	},
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// phase is one measured stretch of a run.
type phase struct {
	name   string
	traced bool
	dur    time.Duration
	blocks []blockSample
	q      queryTotals
	p0, p1 probe
}

// bench is one run of one workload.
type bench struct {
	w       *workload
	seed    int64
	seconds time.Duration
	traced  bool
	dir     string

	r       *rig
	tr      *tracer // nil until the traced half of a traced run
	ing     *ingestor
	clients []*queryClient
	written *writtenKeys

	setupTimes []time.Duration
	phases     []*phase
	// follow holds the followers' counters at the end of the run; refused
	// counts the bundles they refused that are not explained as duplicates.
	follow  []dcert.FollowerStats
	refused uint64
}

func (b *bench) run() (*result, error) {
	fmt.Println("host", hostLine(b))
	r, times, err := setUp(b.dir, b.seed, b.w.opts)
	if err != nil {
		return nil, err
	}
	b.r, b.setupTimes = r, times
	defer r.close()
	b.ing = newIngestor(r)
	first, err := r.dep.Miner().Store().AtHeight(1)
	if err != nil {
		return nil, err
	}
	b.written = newWrittenKeys()
	b.written.add(first)
	if b.w.preload > 0 {
		if err := b.measurePhase("preload", b.certify(b.w.preload)); err != nil {
			return nil, err
		}
	}
	if err := b.w.measure(b); err != nil {
		return nil, err
	}
	b.follow = r.followerStats()
	b.refused = refusedBeyondDuplicates(b.follow)
	if b.tr != nil {
		dump := filepath.Join(".bench_build", "e2ebench", "spans", fmt.Sprintf("%s-seed%d.jsonl", b.w.name, b.seed))
		if err := b.tr.dump(dump); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
	}
	if err := r.close(); err != nil {
		return nil, fmt.Errorf("tear down: %w", err)
	}
	return b.report(), nil
}

// recordWrites adds the keys the given blocks wrote to the working set.
func (b *bench) recordWrites(samples []blockSample) {
	for _, s := range samples {
		if s.err != nil {
			continue
		}
		if blk, err := b.r.dep.Miner().Store().AtHeight(s.height); err == nil {
			b.written.add(blk)
		}
	}
}

// startClients attaches verifying query clients to the connections from
// index first on; static clients expect the exact values the chain wrote.
func (b *bench) startClients(first int, static bool) error {
	b.clients = nil
	for i := first; i < len(b.r.conns); i++ {
		pick := newKeyPicker(b.written.order, b.seed*1000+int64(i))
		q, err := newQueryClient(uint64(i), b.r.conns[i], pick, b.tr)
		if err != nil {
			return fmt.Errorf("query client %d: %w", i, err)
		}
		if static {
			q.expect = b.written.values
		}
		b.clients = append(b.clients, q)
	}
	return nil
}

// measurePhase runs body as one phase, probing before and after.
func (b *bench) measurePhase(name string, body func(ph *phase)) error {
	ph := &phase{name: name, traced: b.tr != nil}
	// Every phase starts from a collected heap, so garbage the previous
	// phase left behind is not collected on this phase's time.
	runtime.GC()
	var err error
	if ph.p0, err = takeProbe(b.r); err != nil {
		return err
	}
	t0 := time.Now()
	body(ph)
	ph.dur = time.Since(t0)
	if ph.p1, err = takeProbe(b.r); err != nil {
		return err
	}
	for _, q := range b.clients {
		ph.q.add(q.take())
	}
	b.phases = append(b.phases, ph)
	return nil
}

// enableTracing turns on the program's observability plane and the
// benchmark's spans. Callers invoke it between phases, while nothing runs.
func (b *bench) enableTracing() {
	b.r.dep.EnableObservability(nil)
	b.tr = newTracer()
	b.ing.tr = b.tr
	for _, q := range b.clients {
		q.tr = b.tr
	}
}

// certify returns a phase body that certifies n blocks closed loop and adds
// the keys they wrote to the working set.
func (b *bench) certify(n int) func(ph *phase) {
	return func(ph *phase) {
		ph.blocks = b.ing.closedLoop(n)
		b.recordWrites(ph.blocks)
	}
}

// read returns a phase body that runs the query clients closed loop for d.
func (b *bench) read(d time.Duration) func(ph *phase) {
	return func(ph *phase) { runQueries(b.clients, d) }
}

// ingest: closed-loop certification of a fixed number of blocks with two
// remote followers, in rounds; after each round a short audit reads back,
// over the default query door, the state the run has certified so far. A
// traced run traces from the middle block on.
func measureIngest(b *bench) error {
	n := int(b.seconds.Seconds() * ingestPerSecond)
	if err := b.measurePhase("warmup", b.certify(warmupBlocks)); err != nil {
		return err
	}
	for r := 0; r < ingestRounds; r++ {
		// Round r certifies blocks n*r/R up to n*(r+1)/R.
		k := n*(r+1)/ingestRounds - n*r/ingestRounds
		if b.traced && r == ingestRounds/2 {
			// Tracing starts halfway through the blocks, so the untraced
			// and traced halves certify as many blocks.
			half := n/2 - n*r/ingestRounds
			if err := b.measurePhase("ingest", b.certify(half)); err != nil {
				return err
			}
			b.enableTracing()
			k -= half
		}
		if err := b.measurePhase("ingest", b.certify(k)); err != nil {
			return err
		}
		// Fresh clients pick from every key written so far.
		if err := b.startClients(0, true); err != nil {
			return err
		}
		if err := b.measurePhase("audit", b.read(b.auditTime())); err != nil {
			return err
		}
	}
	return nil
}

// query: two closed-loop verifying clients read a Zipf-skewed working set
// through the one-replica fleet while the chain stands still; then a
// trailer certifies as many blocks as the preload did. A traced run traces
// the second half of the reads and the trailer.
func measureQuery(b *bench) error {
	if err := b.startClients(0, true); err != nil {
		return err
	}
	if err := b.measurePhase("warmup", b.read(warmupReads)); err != nil {
		return err
	}
	if !b.traced {
		if err := b.measurePhase("query", b.read(b.seconds)); err != nil {
			return err
		}
	} else {
		if err := b.measurePhase("query", b.read(b.seconds/2)); err != nil {
			return err
		}
		b.enableTracing()
		if err := b.measurePhase("query", b.read(b.seconds-b.seconds/2)); err != nil {
			return err
		}
	}
	return b.measurePhase("trailer", b.certify(b.w.preload))
}

// mixed: open-loop ingest at a fixed interval with one follower, beside one
// closed-loop verifying query client.
func measureMixed(b *bench) error {
	if err := b.startClients(1, false); err != nil {
		return err
	}
	both := func(d time.Duration) func(ph *phase) {
		return func(ph *phase) {
			done := make(chan struct{})
			go func() {
				defer close(done)
				runQueries(b.clients, d)
			}()
			ph.blocks = b.ing.openLoop(d, mixedInterval)
			<-done
		}
	}
	if !b.traced {
		return b.measurePhase("mixed", both(b.seconds))
	}
	if err := b.measurePhase("mixed", both(b.seconds/2)); err != nil {
		return err
	}
	b.enableTracing()
	return b.measurePhase("mixed", both(b.seconds-b.seconds/2))
}
