// Command e2ebench is the repository's end-to-end benchmark. It stands up a
// complete DCert deployment in one process — durable storage with group
// commit, a one-issuer certification plane, the wire server on loopback and
// remote clients attached over TCP — drives one workload against it, checks
// every certificate and query proof the clients receive, and prints every
// metric by name with its unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	e2ebench --workload ingest|query|mixed --seed N --seconds S --trace 0|1
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the per-layer
// ledger instead (see README.md). Run it through run.sh, which builds it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: ingest, query or mixed")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", defaultSeconds, "measured seconds")
	trace := flag.Int("trace", 0, "1 reports the per-layer ledger of a traced run")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "e2ebench: usage: --workload %s --seed N --seconds S (>=1) --trace 0|1\n",
			strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	b := &bench{
		w:       w,
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		traced:  *trace == 1,
		dir:     filepath.Join(".bench_build", "e2ebench", fmt.Sprintf("run-%d", os.Getpid())),
	}
	res, err := b.run()
	if rmErr := os.RemoveAll(b.dir); err == nil {
		err = rmErr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// hostLine describes the host and the run, for the record.
func hostLine(b *bench) string {
	host := map[string]any{
		"cores":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpuModel(),
		"go":         runtime.Version(),
		"os":         runtime.GOOS + "/" + runtime.GOARCH,
		"workload":   b.w.name,
		"seed":       b.seed,
		"seconds":    b.seconds.Seconds(),
		"trace":      b.traced,
	}
	raw, _ := json.Marshal(host) // a map of plain values always marshals
	return string(raw)
}

// cpuModel reads the processor model name ("unknown" where unavailable).
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
