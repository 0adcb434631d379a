package main

import (
	"runtime"
	"syscall"
	"time"

	"dcert"
)

// probe snapshots, from outside the program, every accumulator the ledger
// differences: the enclave's cost accounting, the wire server's counters,
// the replica's response cache, the obs registry (once observability is
// on), and the Go runtime's allocation and CPU counters.
type probe struct {
	// Enclave accounting (Issuer().Enclave().Stats()).
	ecalls, bytesIn uint64
	exec, overhead  time.Duration
	wire            dcert.WireServerStats
	// Response cache outcomes of the serving replica (zero without a fleet).
	hits, misses, collapsed uint64
	// reg is nil while observability is off.
	reg   map[string]float64
	alloc uint64
	gcCPU float64
	cpu   time.Duration
}

func takeProbe(r *rig) (probe, error) {
	p := probe{wire: r.srv.Stats()}
	st := r.dep.Issuer().Enclave().Stats()
	p.ecalls, p.bytesIn, p.exec, p.overhead = st.Ecalls, st.BytesIn, st.ExecTime, st.OverheadTime
	if r.fleet != nil {
		rep, err := r.fleet.Replica("sp-0")
		if err != nil {
			return p, err
		}
		p.hits, p.misses, p.collapsed, _ = rep.Cache().Stats()
	}
	if reg, _, _ := r.dep.Observability(); reg != nil {
		m, err := scrape(reg)
		if err != nil {
			return p, err
		}
		p.reg = m
	}
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	p.alloc, p.gcCPU = mem.TotalAlloc, mem.GCCPUFraction
	p.cpu = cpuTime()
	return p, nil
}

// regDelta is the change of a registry value between two probes.
func regDelta(a, b probe, key string) float64 { return b.reg[key] - a.reg[key] }

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident set size in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
