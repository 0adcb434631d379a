package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dcert/internal/attest"
	"dcert/internal/chain"
	"dcert/internal/chash"
	"dcert/internal/enclave"
	"dcert/internal/node"
	"dcert/internal/obs"
	"dcert/internal/statedb"
)

// Issuer is the SGX-enabled Certificate Issuer (CI) of §3.2: a full node
// equipped with an enclave that certifies every block (Alg. 1) and,
// optionally, authenticated indexes (Alg. 4 / Alg. 5).
//
// Issuer is not safe for concurrent use: blocks are certified strictly in
// chain order.
type Issuer struct {
	node   *node.FullNode
	encl   *enclave.Enclave
	prog   *TrustedProgram
	report *attest.Report

	// pipelining guards against two concurrent Pipelines on one issuer.
	pipelining atomic.Bool

	// met holds the instrumentation hooks (all no-ops until Instrument).
	met issuerObs

	mu             sync.RWMutex
	lastCertAt     time.Time
	lastCert       *Certificate
	certs          map[chash.Hash]*Certificate            // block hash → block cert
	indexCerts     map[string]map[chash.Hash]*Certificate // index → block hash → cert
	indexRoots     map[string]chash.Hash                  // index → last certified root
	lastIndexBlock map[string]chash.Hash                  // index → block hash of last cert
	lastSegHeaders []*chain.Header                        // headers under lastCert's digest
	segs           []*SegmentCert                         // ordered certified-segment history
}

// CostBreakdown reports where one certificate construction spent its time,
// matching the Fig. 8 decomposition.
type CostBreakdown struct {
	// OutsideExec is the untrusted pre-processing time: transaction
	// execution and read/write-set computation (comp_data_set).
	OutsideExec float64
	// OutsideProof is the untrusted Merkle-proof generation time
	// (get_update_proof).
	OutsideProof float64
	// InsideExec is the real execution time of trusted code.
	InsideExec float64
	// InsideOverhead is the simulated SGX overhead (transitions, copies,
	// compute factor, paging).
	InsideOverhead float64
}

// Total is the end-to-end construction time in seconds.
func (c CostBreakdown) Total() float64 {
	return c.OutsideExec + c.OutsideProof + c.InsideExec + c.InsideOverhead
}

// NewIssuer initializes a CI: the trusted program is loaded into an enclave
// on the given platform, generates its sealed key pair, and obtains the
// attestation report rep from the authority (§3.3 initialization).
func NewIssuer(n *node.FullNode, authority *attest.Authority, platform *attest.Platform, cost enclave.CostModel) (*Issuer, error) {
	return newIssuer(n, authority, platform, cost, nil)
}

// NewIssuerFromSeed is NewIssuer with a deterministically derived sealed
// enclave key, for equivalence testing: two issuers built from the same seed
// (on the same seeded platform/authority) emit byte-identical certificates.
func NewIssuerFromSeed(n *node.FullNode, authority *attest.Authority, platform *attest.Platform, cost enclave.CostModel, seed []byte) (*Issuer, error) {
	if len(seed) == 0 {
		return nil, fmt.Errorf("core: issuer seed must be non-empty")
	}
	return newIssuer(n, authority, platform, cost, seed)
}

func newIssuer(n *node.FullNode, authority *attest.Authority, platform *attest.Platform, cost enclave.CostModel, seed []byte) (*Issuer, error) {
	genesis, err := n.Store().Get(n.Store().Genesis())
	if err != nil {
		return nil, fmt.Errorf("core: issuer genesis: %w", err)
	}
	prog := NewTrustedProgram(genesis.Hash(), authority.PublicKey(), n.Params(), n.Registry())
	var encl *enclave.Enclave
	if seed != nil {
		encl, err = enclave.NewFromSeed(prog.ID(), platform, cost, seed)
	} else {
		encl, err = enclave.New(prog.ID(), platform, cost)
	}
	if err != nil {
		return nil, fmt.Errorf("core: issuer enclave: %w", err)
	}
	quote, err := encl.Quote()
	if err != nil {
		return nil, fmt.Errorf("core: issuer quote: %w", err)
	}
	report, err := authority.Attest(quote)
	if err != nil {
		return nil, fmt.Errorf("core: issuer attestation: %w", err)
	}
	return &Issuer{
		node:           n,
		encl:           encl,
		prog:           prog,
		report:         report,
		certs:          make(map[chash.Hash]*Certificate),
		indexCerts:     make(map[string]map[chash.Hash]*Certificate),
		indexRoots:     make(map[string]chash.Hash),
		lastIndexBlock: make(map[string]chash.Hash),
	}, nil
}

// Node exposes the CI's full-node core.
func (ci *Issuer) Node() *node.FullNode {
	return ci.node
}

// Enclave exposes the CI's enclave (for cost accounting in benchmarks).
func (ci *Issuer) Enclave() *enclave.Enclave {
	return ci.encl
}

// Program exposes the trusted program (to register index updaters before
// certification starts).
func (ci *Issuer) Program() *TrustedProgram {
	return ci.prog
}

// Report returns the CI's attestation report.
func (ci *Issuer) Report() *attest.Report {
	return ci.report
}

// Measurement returns the CI enclave's measurement, which superlight
// clients pin.
func (ci *Issuer) Measurement() chash.Hash {
	return ci.encl.Measurement()
}

// CertFor returns the block certificate for a block hash.
func (ci *Issuer) CertFor(blockHash chash.Hash) (*Certificate, bool) {
	ci.mu.RLock()
	defer ci.mu.RUnlock()
	c, ok := ci.certs[blockHash]
	return c, ok
}

// IndexCertFor returns the index certificate for (index, block hash).
func (ci *Issuer) IndexCertFor(index string, blockHash chash.Hash) (*Certificate, bool) {
	ci.mu.RLock()
	defer ci.mu.RUnlock()
	c, ok := ci.indexCerts[index][blockHash]
	return c, ok
}

// LatestCert returns the newest block certificate (nil before the first
// certified block).
func (ci *Issuer) LatestCert() *Certificate {
	ci.mu.RLock()
	defer ci.mu.RUnlock()
	return ci.lastCert
}

// certifiedTip atomically snapshots the certified tip: the tip block, its
// certificate, and the headers that certificate's digest covers (nil before
// the first certificate). Reading them separately races against a
// concurrent adoptSegment: the tip can advance between the reads, pairing
// block i with cert i-1 — which corrupts checkpoints and makes the recursive
// Ecall verify the wrong predecessor. All readers that need a consistent
// triple go through here; adoptSegment publishes all three under the same
// lock.
func (ci *Issuer) certifiedTip() (*chain.Block, *Certificate, []*chain.Header) {
	ci.mu.RLock()
	defer ci.mu.RUnlock()
	return ci.node.Tip(), ci.lastCert, ci.lastSegHeaders
}

// newCert assembles a certificate from the enclave's outputs (Alg. 1
// lines 5-7).
func (ci *Issuer) newCert(digest chash.Hash, sig []byte) *Certificate {
	return &Certificate{
		PubKey: ci.encl.PublicKey().Marshal(),
		Report: ci.report,
		Digest: digest,
		Sig:    sig,
	}
}

// prepare runs the untrusted pre-processing of Alg. 1 lines 2-3 and returns
// the update proof plus the block's write set.
func (ci *Issuer) prepare(blk *chain.Block, bd *CostBreakdown) (*statedb.UpdateProof, *statedb.ExecResult, error) {
	execTimer := startTimer()
	res, err := ci.node.State().ExecuteBlock(ci.node.Registry(), blk.Txs)
	if err != nil {
		return nil, nil, fmt.Errorf("core: comp_data_set: %w", err)
	}
	bd.OutsideExec += execTimer()

	proofTimer := startTimer()
	proof, err := ci.node.State().UpdateProofFor(res)
	if err != nil {
		return nil, nil, fmt.Errorf("core: get_update_proof: %w", err)
	}
	bd.OutsideProof += proofTimer()
	return proof, res, nil
}

// ecallInputSize estimates the bytes marshalled through the enclave
// boundary for a certification Ecall: the previous certificate and the
// headers it covers (which end at prev; prev's header alone when there are
// none), then every block and its update proof.
func ecallInputSize(prev *chain.Block, prevHeaders []*chain.Header, prevCert *Certificate, blks []*chain.Block, proofs []*statedb.UpdateProof) int {
	size := 0
	if len(prevHeaders) == 0 {
		size += prev.Header.EncodedSize()
	}
	for _, h := range prevHeaders {
		size += h.EncodedSize()
	}
	for i := range blks {
		size += len(blks[i].Marshal()) + proofs[i].EncodedSize()
	}
	if prevCert != nil {
		size += prevCert.EncodedSize()
	}
	return size
}

// ecall runs one trusted entry that yields a signature and accounts it: the
// inside time (real execution and simulated overhead) lands in bd, count
// counts the entry and inside observes its in-enclave time. Every
// certification Ecall goes through here.
func (ci *Issuer) ecall(count *obs.Counter, inside *obs.Histogram, inputBytes int, bd *CostBreakdown, trusted func(ctx *enclave.Context) ([]byte, error)) ([]byte, error) {
	var sig []byte
	before := ci.encl.Stats()
	err := ci.encl.Ecall(inputBytes, func(ctx *enclave.Context) error {
		var err error
		sig, err = trusted(ctx)
		return err
	})
	after := ci.encl.Stats()
	bd.InsideExec += (after.ExecTime - before.ExecTime).Seconds()
	bd.InsideOverhead += (after.OverheadTime - before.OverheadTime).Seconds()
	count.Inc()
	inside.Observe((after.InsideTime() - before.InsideTime()).Seconds())
	return sig, err
}

// ProcessBlock runs Alg. 1 (gen_cert) for a block extending the CI's tip: it
// certifies the block as a one-block segment, whose certificate is exactly
// the single-block certificate (SegmentDigest of one header is BlockDigest).
// The returned breakdown feeds Figs. 8-9.
func (ci *Issuer) ProcessBlock(blk *chain.Block) (*Certificate, CostBreakdown, error) {
	seg, bd, err := ci.ProcessSegment([]*chain.Block{blk})
	if err != nil {
		return nil, bd, err
	}
	return seg.Cert, bd, nil
}
