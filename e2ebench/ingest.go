package main

import (
	"fmt"
	"time"

	"dcert"
)

// blockSample is one ingested block's timeline.
type blockSample struct {
	height uint64
	// due is when the block should have started: the previous call's
	// return in a closed loop, the schedule slot in an open loop.
	due   time.Time
	start time.Time
	// end is when the ingest call returned: the block is certified,
	// published and journaled.
	end time.Time
	// followed is when every remote follower had validated the block's
	// certificate (zero if that never happened).
	followed time.Time
	// follow delivers followed once the block's waiter is done.
	follow <-chan time.Time
	err    error
}

// certifyMs is the certify latency, measured from the due time.
func (s blockSample) certifyMs() float64 { return ms(s.end.Sub(s.due)) }

// followerMs is the follower latency, measured from the due time.
func (s blockSample) followerMs() float64 { return ms(s.followed.Sub(s.due)) }

// failed reports whether the block did not make it to every follower.
func (s blockSample) failed() bool { return s.err != nil || s.followed.IsZero() }

// ingestCall ingests one block and returns its height.
type ingestCall func() (uint64, error)

// ingestor drives blocks into a deployment and times each one until the
// call returns and until every follower has validated it.
type ingestor struct {
	call      ingestCall
	followers []*dcert.CertFollower
	tr        *tracer
	next      uint64
}

func newIngestor(r *rig) *ingestor {
	g := &ingestor{next: r.next, followers: r.followers}
	g.call = func() (uint64, error) {
		blk, err := r.plane.MineAndBroadcast(blockTxs)
		if err != nil {
			return 0, err
		}
		return blk.Header.Height, nil
	}
	return g
}

// one ingests a block that was due at due.
func (g *ingestor) one(due time.Time) blockSample {
	s := blockSample{height: g.next, due: due}
	s.follow = g.await(s.height)
	s.start = time.Now()
	h, err := g.call()
	s.end = time.Now()
	g.tr.span("dcert.ingest", "", s.height, s.start, s.end)
	if err == nil && h != s.height {
		err = fmt.Errorf("ingested height %d, expected %d", h, s.height)
	}
	s.err = err
	g.next++
	return s
}

// closedLoop ingests n blocks back to back; each block is due when the
// previous call returned.
func (g *ingestor) closedLoop(n int) []blockSample {
	out := make([]blockSample, 0, n)
	due := time.Now()
	for i := 0; i < n; i++ {
		s := g.one(due)
		out = append(out, s)
		due = s.end
	}
	return settle(out)
}

// openLoop ingests one block per interval for d. A block is due at its
// schedule slot whether or not the previous one has finished, so a stall
// shows in the latency of every block queued behind it.
func (g *ingestor) openLoop(d, interval time.Duration) []blockSample {
	var out []blockSample
	t0 := time.Now()
	for i := 0; ; i++ {
		due := t0.Add(time.Duration(i) * interval)
		if due.Sub(t0) >= d {
			break
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		out = append(out, g.one(due))
	}
	return settle(out)
}

// settle waits for the followers to validate every block of a phase and
// fills in the follow times.
func settle(out []blockSample) []blockSample {
	for i := range out {
		out[i].followed = <-out[i].follow
	}
	return out
}

// await starts a waiter for height h at submit: it returns when every
// follower's superlight client holds h, and delivers that time (zero if a
// follower did not get there within followTimeout).
func (g *ingestor) await(h uint64) <-chan time.Time {
	done := make(chan time.Time, 1)
	go func() {
		for _, f := range g.followers {
			if f.WaitForHeight(h, followTimeout) != nil {
				done <- time.Time{}
				return
			}
		}
		done <- time.Now()
	}()
	return done
}
