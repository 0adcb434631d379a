package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"dcert"
)

// Deployment constants shared by every workload.
const (
	// blockTxs is the block size: 200-tx KVStore blocks, the small scale of
	// the paper's evaluation.
	blockTxs = 200
	// fsyncInterval is the storage engine's group-commit window.
	fsyncInterval = 5 * time.Millisecond
	// setupRepeats is how many times a run stands the deployment up; setup_s
	// reports the median, and the last deployment is the one measured.
	setupRepeats = 5
	// followTimeout bounds how long a remote follower may take to validate
	// a certified block before the block counts as failed.
	followTimeout = 10 * time.Second
	// clientConns is the number of remote wire connections: one per core of
	// the reference host.
	clientConns = 2
)

// rigOpts shapes one deployment.
type rigOpts struct {
	// followers is how many of the connections carry a certificate
	// follower (the first ones).
	followers int
	// fleet serves dcert/query through StartFleet(1) instead of the
	// default door (see README.md: the default door races ingest).
	fleet bool
}

// rig is one complete deployment standing in this process: durable storage
// with group commit, a one-issuer certification plane, the wire server on
// loopback and remote clients attached over TCP.
type rig struct {
	dir       string
	dep       *dcert.Deployment
	plane     *dcert.CertPlane
	fleet     *dcert.QueryFleet
	srv       *dcert.WireServer
	conns     []*dcert.WireClient
	followers []*dcert.CertFollower
	// next is the height the next ingested block will have.
	next   uint64
	closed bool
}

// standUp builds a deployment in dir and certifies its first block, which
// every follower must have validated before standUp returns.
func standUp(dir string, seed int64, o rigOpts) (r *rig, err error) {
	r = &rig{dir: dir}
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	r.dep, err = dcert.NewDeployment(dcert.Config{
		Workload:    dcert.KVStore,
		EnclaveCost: dcert.DefaultEnclaveCostModel(),
		Seed:        seed,
		Storage:     &dcert.StorageConfig{Dir: dir, FsyncInterval: fsyncInterval},
	})
	if err != nil {
		return r, err
	}
	if r.plane, err = r.dep.StartCertPlane(1); err != nil {
		return r, err
	}
	if o.fleet {
		if r.fleet, err = r.dep.StartFleet(1); err != nil {
			return r, err
		}
	}
	if r.srv, err = r.dep.ServeWire(dcert.WireServerConfig{Addr: "127.0.0.1:0"}); err != nil {
		return r, err
	}
	for i := 0; i < clientConns; i++ {
		c, err := dcert.DialWire(r.srv.Addr(), dcert.WireClientConfig{Name: fmt.Sprintf("client-%d", i)})
		if err != nil {
			return r, err
		}
		r.conns = append(r.conns, c)
	}
	for i := 0; i < o.followers; i++ {
		slc, err := dcert.NewRemoteSuperlightClient(r.conns[i])
		if err != nil {
			return r, err
		}
		r.followers = append(r.followers, dcert.FollowCertsOver(r.conns[i], slc, dcert.FollowerConfig{
			Name: fmt.Sprintf("follower-%d", i),
		}))
	}
	blk, err := r.plane.MineAndBroadcast(blockTxs)
	if err != nil {
		return r, err
	}
	r.next = blk.Header.Height + 1
	for _, f := range r.followers {
		if err := f.WaitForHeight(blk.Header.Height, followTimeout); err != nil {
			return r, err
		}
	}
	return r, nil
}

// setUp stands the deployment up setupRepeats times, tearing down all but
// the last, and returns the last with every stand-up's wall time.
func setUp(base string, seed int64, o rigOpts) (*rig, []time.Duration, error) {
	var times []time.Duration
	for i := 0; ; i++ {
		t0 := time.Now()
		r, err := standUp(filepath.Join(base, fmt.Sprintf("data-%d", i)), seed, o)
		if err != nil {
			return nil, nil, fmt.Errorf("stand-up %d: %w", i, err)
		}
		times = append(times, time.Since(t0))
		if i == setupRepeats-1 {
			return r, times, nil
		}
		if err := r.close(); err != nil {
			return nil, nil, fmt.Errorf("tear down stand-up %d: %w", i, err)
		}
	}
}

// followerStats snapshots every follower's counters.
func (r *rig) followerStats() []dcert.FollowerStats {
	var out []dcert.FollowerStats
	for _, f := range r.followers {
		out = append(out, f.Stats())
	}
	return out
}

// refusedBeyondDuplicates counts the certificate bundles the followers
// refused beyond those explained as duplicates. A follower re-requests the
// latest bundle whenever the stream stays silent for its stall deadline
// (200 ms by default), and the issuer's answer can repeat a bundle a
// follower already holds, which the follower refuses as not extending its
// tip. Each re-request brings at most one re-published bundle to every
// follower, so each follower may refuse at most as many bundles as all
// followers re-requested.
func refusedBeyondDuplicates(stats []dcert.FollowerStats) uint64 {
	var rerequests, n uint64
	for _, st := range stats {
		rerequests += st.Rerequests
	}
	for _, st := range stats {
		if st.Rejected > rerequests {
			n += st.Rejected - rerequests
		}
	}
	return n
}

// close stops every client and server goroutine, closes storage and removes
// the data directory. Closing twice is a no-op.
func (r *rig) close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	for _, f := range r.followers {
		f.Stop()
	}
	for _, c := range r.conns {
		c.Close()
	}
	var errs []error
	if r.srv != nil {
		errs = append(errs, r.srv.Close())
	}
	if r.plane != nil {
		r.plane.Stop()
	}
	if r.dep != nil {
		errs = append(errs, r.dep.Close())
	}
	errs = append(errs, os.RemoveAll(r.dir))
	return errors.Join(errs...)
}
