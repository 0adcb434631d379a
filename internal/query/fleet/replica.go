package fleet

import (
	"sync"

	"dcert/internal/chain"
	"dcert/internal/obs"
	"dcert/internal/query"
)

// Replica is one serving shard: a full SP (own state replica and indexes)
// behind a read-write lock and a byte-bounded singleflight response cache.
//
// Readers share the lock; the writer advances heights under the exclusive
// lock, mutating the SP and re-sealing it (pre-hashing every lazily-hashed
// structure so reads stay pure) before any reader sees it. A pending writer
// parks new readers, so at any instant every active reader sees one
// fully-hashed height; a query never observes a half-applied block.
type Replica struct {
	name  string
	mu    sync.RWMutex // guards sp's height
	sp    *query.ServiceProvider
	cache *query.ResponseCache
	met   replicaObs
}

// NewReplica wraps a freshly built SP as a serving shard. The SP must not
// be used directly afterwards — all access goes through the replica.
func NewReplica(name string, sp *query.ServiceProvider, cacheBytes int) (*Replica, error) {
	if err := sp.Seal(); err != nil {
		return nil, err
	}
	return &Replica{name: name, sp: sp, cache: query.NewResponseCache(cacheBytes)}, nil
}

// Name returns the replica's router identity.
func (r *Replica) Name() string {
	return r.name
}

// Cache exposes the replica's response cache.
func (r *Replica) Cache() *query.ResponseCache {
	return r.cache
}

// ProcessBlock advances the replica one height. Callers must serialize
// ProcessBlock (one block pipeline per deployment); queries may run
// concurrently throughout and wait out the advance.
func (r *Replica) ProcessBlock(blk *chain.Block) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.sp.ProcessBlock(blk); err != nil {
		return err // serve the last good height
	}
	err := r.sp.Seal()
	// Cached responses prove against the pre-block roots; flush them so the
	// new height never replays a stale proof.
	r.cache.Reset()
	return err
}

// Execute answers one request against the replica's current sealed height,
// collapsing concurrent identical questions (by semantic key, ignoring the
// per-attempt request ID) onto one computation.
func (r *Replica) Execute(req *query.Request) *query.Response {
	r.met.served.Inc()
	raw, _ := r.cache.Do(req.SemanticKey(), func() []byte {
		r.mu.RLock()
		defer r.mu.RUnlock()
		canon := *req
		canon.ID = 0
		return query.Execute(r.sp, &canon).Marshal()
	})
	resp, err := query.UnmarshalResponse(raw)
	if err != nil {
		// Impossible for bytes we just marshaled; fail loudly per request.
		return &query.Response{ID: req.ID, Err: "fleet: corrupt cached response"}
	}
	resp.ID = req.ID
	return resp
}

// Tip returns the replica's current sealed chain tip header.
func (r *Replica) Tip() *chain.Header {
	r.mu.RLock()
	defer r.mu.RUnlock()
	hdr := r.sp.Node().Tip().Header
	return &hdr
}

// replicaObs bundles per-replica serving instruments.
type replicaObs struct {
	served     *obs.Counter
	queueDepth *obs.Gauge
}

// Instrument attaches the replica (and its cache) to a metrics registry.
func (r *Replica) Instrument(reg *obs.Registry) {
	r.met = replicaObs{
		served: reg.Counter("dcert_fleet_requests_total",
			"Requests served by this replica.", obs.L("replica", r.name)),
		queueDepth: reg.Gauge("dcert_fleet_queue_depth",
			"Requests waiting in this replica's serving queue.", obs.L("replica", r.name)),
	}
	r.cache.Instrument(reg, r.name)
}
