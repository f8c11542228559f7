// Command perfbench is the repository's performance ledger. It drives
// the scheduler stack from outside, through public functions only, on
// one of three workloads and prints every metric by name with its
// unit:
//
//	corpus       the paper's corpus on the three evaluation machines,
//	             compiled offline: core.Schedule under a fixed step
//	             budget with the fallback to CARS, on nproc workers
//	service-hot  vcclient → vcrouter → two vcschedd shards: each second
//	             an open loop of mostly cached reads and a few writes,
//	             then a closed loop of nproc clients sending reads
//	oversized    one client sending unique blocks of several hundred
//	             instructions with a short deadline to the same fleet
//
// Usage, from the repository root (see run.sh, which builds it):
//
//	perfbench --workload corpus --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the last line of standard output is the result with
// the end-to-end metrics; with --trace 1 it carries the per-layer
// metrics of a separate traced run, whose spans are written under
// .bench_build/trace/. Inputs come from the seed and are generated
// before timing starts. Every schedule received is re-validated; any
// violation makes the exit status 1. README.md documents the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// setupRuns is how often each run sets its workload up; setup_s is the
// median of the set-ups' process CPU time. Their wall time moved by a
// factor of two between runs with the host's steal time, which the CPU
// time leaves out; work moved into set-up shows in both.
const setupRuns = 5

// runLimit ends a run that hangs (a wedged fleet, say) before the
// three minutes a run may take, without printing a result.
const runLimit = 170 * time.Second

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is what every workload is given.
type env struct {
	seed    int64
	pinSeed int64 // live-in/live-out pin seed derived from the workload seed
	seconds float64
	nproc   int
	tally   *tally
	rec     *recorder // set in traced runs only
}

// runner is one workload.
type runner interface {
	// setup generates the inputs and starts what the workload drives;
	// calling it again tears the previous set-up down first.
	setup() error
	// measure runs the timed part with tracing off and returns the
	// end-to-end metrics (setup_s and the process-wide ones aside) and
	// a summary for the log.
	measure() (map[string]metric, map[string]any, error)
	// trace runs the traced part and returns the per-layer metrics.
	trace(rec *recorder) (map[string]metric, error)
	close()
}

func main() { os.Exit(run()) }

func run() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "corpus, service-hot or oversized")
	seed := fs.Int64("seed", 1, "workload seed (>= 0)")
	seconds := fs.Int("seconds", 20, "measurement time in seconds")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	if *seed < 0 || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --seed >= 0, --seconds >= 1 and --trace 0 or 1")
		return 2
	}
	e := &env{
		seed:    *seed,
		pinSeed: *seed + 1, // pin seed 0 would mean "the daemon default"
		seconds: float64(*seconds),
		nproc:   runtime.NumCPU(),
		tally:   &tally{},
	}
	if *traced == 1 {
		e.rec = newRecorder()
	}
	var b runner
	switch *name {
	case "corpus":
		b = &corpusBench{env: e}
	case "service-hot":
		b = &hotBench{env: e}
	case "oversized":
		b = &overBench{env: e}
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want corpus, service-hot or oversized)\n", *name)
		return 2
	}
	defer b.close()

	limit := time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", runLimit)
		os.Exit(3)
	})
	defer limit.Stop()
	heap := watchHeap()
	prov := provenance()
	emit(map[string]any{"provenance": prov, "workload": *name, "seed": *seed, "seconds": *seconds, "trace": *traced})

	runs := setupRuns
	if e.rec != nil {
		runs = 1
	}
	setups := make([]time.Duration, runs)
	for i := range setups {
		t0 := processCPU()
		if err := b.setup(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: set-up:", err)
			return 2
		}
		setups[i] = processCPU() - t0
	}

	var metrics map[string]metric
	if e.rec == nil {
		m, summary, err := b.measure()
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
		metrics = m
		metrics["setup_s"] = metric{median(setups).Seconds(), "s"}
		metrics["peak_heap_mb"] = metric{heap.peakMB(), "MB"}
		summary["setup_runs_s"] = durationsSeconds(setups)
		emit(map[string]any{"summary": summary})
	} else {
		m, err := b.trace(e.rec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
		metrics = m
		heap.peakMB()
		file := fmt.Sprintf("%s-seed%d.jsonl", *name, *seed)
		if path, err := dump(".bench_build/trace", file, e.rec.finalize()); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
		} else {
			fmt.Fprintln(os.Stderr, "perfbench: spans written to", path)
		}
	}

	t := e.tally
	if e.rec == nil {
		metrics["ok_frac"] = metric{1 - ratio(float64(t.failed), float64(t.attempted)), "frac"}
	}
	res := result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: metrics}
	report(res, t.notes)
	emit(res)
	if !res.Correct {
		return 1
	}
	return 0
}

// emit prints one JSON object as a line of standard output.
func emit(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding output:", err)
		return
	}
	fmt.Println(string(b))
}

// report prints the metrics as a table, and any violations, on
// standard error.
func report(res result, notes []string) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-32s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Fprintf(os.Stderr, "  attempted %d, failed %d\n", res.Attempted, res.Failed)
	for _, n := range notes {
		fmt.Fprintln(os.Stderr, "  violation:", n)
	}
}

func durationsSeconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
