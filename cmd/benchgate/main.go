// Command benchgate compares a freshly recorded benchmark document
// (benchjson output, e.g. BENCH_deduce.json) against a checked-in
// baseline (BENCH_baseline.json) and exits non-zero when any benchmark
// regressed beyond its tolerance band.
//
// The two metrics have very different noise profiles, so they get
// separate bands:
//
//   - allocs/op is deterministic for this codebase (the allocation
//     count of a fixed workload does not depend on machine load), so
//     the default band is tight. A regression here means code started
//     allocating on the hot path again — exactly what the arena/bitset
//     state exists to prevent.
//   - ns/op on shared CI runners is noisy, so its default band is wide;
//     it only catches order-of-magnitude cliffs, not percent-level
//     drift. Tighten it locally via -ns-tol for real measurements.
//
// A benchmark present in the baseline but missing from the current
// document fails the gate (lost coverage); one present only in the
// current document passes with a note (update the baseline to start
// gating it). When the two documents record different machines (see
// benchjson), both provenances are printed before the verdict.
//
//	benchgate -baseline BENCH_baseline.json -current BENCH_deduce.json
//
// With -service the gate switches to service-level objectives: it
// compares a BENCH_service.json recorded by cmd/vcslo against the
// checked-in BENCH_service_baseline.json, scenario by scenario:
//
//   - p99 latency may exceed the baseline by at most -p99-tol
//     (fractional) plus -p99-slack-ms (absolute grace for
//     sub-millisecond baselines);
//
//   - the cache hit rate may drop below the baseline by at most
//     -hit-tol (absolute rate points);
//
//   - the shed rate may deviate from the baseline in either direction
//     by at most -shed-tol — shedding more means capacity regressed,
//     shedding less than an overload baseline means admission control
//     stopped refusing work it must refuse;
//
//   - the hard-failure count must be zero, baseline or not. There is
//     no tolerance band for a scheduler that breaks requests. Chaos
//     scenarios report deliberately injected failures separately
//     (injected/poisoned), so this stays an escaped-failure gate;
//
//   - watchdog leaks and warm/cold identity violations must likewise
//     be zero, baseline or not — a watchdog-killed execution still
//     running at drain or a warm result that differs from its cold
//     bytes is broken regardless of tolerance.
//
//     benchgate -service -baseline BENCH_service_baseline.json -current BENCH_service.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"vcsched/internal/loadsim"
	"vcsched/internal/version"
)

// benchDoc mirrors benchjson's output document.
type benchDoc struct {
	Version    string      `json:"version"`
	Provenance *provenance `json:"provenance,omitempty"`
	Benchmarks []bench     `json:"benchmarks"`
}

// provenance mirrors benchjson's record of the measuring machine.
type provenance struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
}

func (p *provenance) String() string {
	if p == nil {
		return "not recorded"
	}
	return fmt.Sprintf("nproc %d, GOMAXPROCS %d, %s, %s", p.NProc, p.GOMAXPROCS, p.CPUModel, p.GoVersion)
}

// provenanceNotes describes both documents' machines when they differ:
// their ns/op figures are then not comparable beyond the wide band.
func provenanceNotes(baseline, current *benchDoc) []string {
	b, c := baseline.Provenance, current.Provenance
	if b != nil && c != nil && *b == *c {
		return nil
	}
	return []string{
		"baseline and current were measured on different machines (or one does not say)",
		"  baseline: " + b.String(),
		"  current:  " + c.String(),
	}
}

type bench struct {
	Name     string  `json:"name"`
	Runs     int     `json:"runs"`
	N        int64   `json:"n"`
	NsOp     float64 `json:"ns_op"`
	BOp      float64 `json:"b_op"`
	AllocsOp float64 `json:"allocs_op"`
}

func main() {
	service := flag.Bool("service", false, "gate service-level SLOs (vcslo documents) instead of microbenchmarks")
	baselinePath := flag.String("baseline", "", "checked-in baseline document (default BENCH_baseline.json; BENCH_service_baseline.json with -service)")
	currentPath := flag.String("current", "", "freshly recorded document (default BENCH_deduce.json; BENCH_service.json with -service)")
	allocsTol := flag.Float64("allocs-tol", 0.10, "allowed fractional allocs/op increase over baseline")
	nsTol := flag.Float64("ns-tol", 1.50, "allowed fractional ns/op increase over baseline")
	p99Tol := flag.Float64("p99-tol", 0.50, "allowed fractional p99 latency increase over baseline (-service)")
	p99SlackMS := flag.Float64("p99-slack-ms", 2.0, "absolute p99 grace in ms on top of the band (-service)")
	hitTol := flag.Float64("hit-tol", 0.05, "allowed absolute cache-hit-rate drop below baseline (-service)")
	shedTol := flag.Float64("shed-tol", 0.05, "allowed absolute shed-rate deviation from baseline, either direction (-service)")
	showVersion := flag.Bool("version", false, "print the version and exit")
	flag.Parse()
	if *showVersion {
		fmt.Println("benchgate", version.String())
		return
	}
	if *baselinePath == "" {
		if *service {
			*baselinePath = "BENCH_service_baseline.json"
		} else {
			*baselinePath = "BENCH_baseline.json"
		}
	}
	if *currentPath == "" {
		if *service {
			*currentPath = "BENCH_service.json"
		} else {
			*currentPath = "BENCH_deduce.json"
		}
	}

	var violations, notes []string
	var gated int
	if *service {
		baseline, err := readServiceDoc(*baselinePath)
		if err != nil {
			fatal(err)
		}
		current, err := readServiceDoc(*currentPath)
		if err != nil {
			fatal(err)
		}
		violations, notes = gateService(baseline, current, sloTolerances{
			p99Tol: *p99Tol, p99SlackMS: *p99SlackMS, hitTol: *hitTol, shedTol: *shedTol,
		})
		gated = len(baseline.Scenarios)
	} else {
		baseline, err := readDoc(*baselinePath)
		if err != nil {
			fatal(err)
		}
		current, err := readDoc(*currentPath)
		if err != nil {
			fatal(err)
		}
		violations, notes = gate(baseline, current, *allocsTol, *nsTol)
		notes = append(provenanceNotes(baseline, current), notes...)
		gated = len(baseline.Benchmarks)
	}
	for _, n := range notes {
		fmt.Println("benchgate:", n)
	}
	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintln(os.Stderr, "benchgate: FAIL:", v)
		}
		os.Exit(1)
	}
	if *service {
		fmt.Printf("benchgate: %d scenarios within tolerance (p99 +%.0f%%+%.1fms, hit -%.0fpp, shed ±%.0fpp, hard failures 0)\n",
			gated, 100**p99Tol, *p99SlackMS, 100**hitTol, 100**shedTol)
	} else {
		fmt.Printf("benchgate: %d benchmarks within tolerance (allocs +%.0f%%, ns +%.0f%%)\n",
			gated, 100**allocsTol, 100**nsTol)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchgate:", err)
	os.Exit(1)
}

func readDoc(path string) (*benchDoc, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc benchDoc
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(doc.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: no benchmarks", path)
	}
	return &doc, nil
}

// gate compares every baseline benchmark against the current document
// and returns the tolerance violations plus informational notes.
func gate(baseline, current *benchDoc, allocsTol, nsTol float64) (violations, notes []string) {
	cur := make(map[string]bench, len(current.Benchmarks))
	for _, b := range current.Benchmarks {
		cur[b.Name] = b
	}
	seen := make(map[string]bool, len(baseline.Benchmarks))
	for _, base := range baseline.Benchmarks {
		seen[base.Name] = true
		got, ok := cur[base.Name]
		if !ok {
			violations = append(violations,
				fmt.Sprintf("%s: present in baseline but not in current run (lost coverage)", base.Name))
			continue
		}
		if base.AllocsOp >= 0 && got.AllocsOp >= 0 {
			if limit := base.AllocsOp * (1 + allocsTol); got.AllocsOp > limit {
				violations = append(violations,
					fmt.Sprintf("%s: allocs/op %.1f exceeds baseline %.1f by more than %.0f%% (limit %.1f)",
						base.Name, got.AllocsOp, base.AllocsOp, 100*allocsTol, limit))
			}
		}
		if limit := base.NsOp * (1 + nsTol); got.NsOp > limit {
			violations = append(violations,
				fmt.Sprintf("%s: ns/op %.1f exceeds baseline %.1f by more than %.0f%% (limit %.1f)",
					base.Name, got.NsOp, base.NsOp, 100*nsTol, limit))
		}
	}
	for _, b := range current.Benchmarks {
		if !seen[b.Name] {
			notes = append(notes,
				fmt.Sprintf("%s: not in baseline, not gated (add it to BENCH_baseline.json)", b.Name))
		}
	}
	return violations, notes
}

// sloTolerances bundles the -service bands.
type sloTolerances struct {
	p99Tol     float64 // fractional p99 increase
	p99SlackMS float64 // absolute p99 grace
	hitTol     float64 // absolute hit-rate drop
	shedTol    float64 // absolute shed-rate deviation, either direction
}

func readServiceDoc(path string) (*loadsim.Document, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc loadsim.Document
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(doc.Scenarios) == 0 {
		return nil, fmt.Errorf("%s: no scenarios", path)
	}
	return &doc, nil
}

// gateService compares every baseline scenario's SLOs against the
// current document. Hard failures are gated unconditionally — even in
// scenarios the baseline does not know yet.
func gateService(baseline, current *loadsim.Document, tol sloTolerances) (violations, notes []string) {
	cur := make(map[string]loadsim.Report, len(current.Scenarios))
	for _, r := range current.Scenarios {
		cur[r.Scenario] = r
	}
	seen := make(map[string]bool, len(baseline.Scenarios))
	for _, base := range baseline.Scenarios {
		seen[base.Scenario] = true
		got, ok := cur[base.Scenario]
		if !ok {
			violations = append(violations,
				fmt.Sprintf("%s: present in baseline but not in current run (lost coverage)", base.Scenario))
			continue
		}
		violations = append(violations, unconditionalSLOs(got)...)
		if limit := base.P99MS*(1+tol.p99Tol) + tol.p99SlackMS; got.P99MS > limit {
			violations = append(violations,
				fmt.Sprintf("%s: p99 %.3fms exceeds baseline %.3fms by more than %.0f%%+%.1fms (limit %.3fms)",
					base.Scenario, got.P99MS, base.P99MS, 100*tol.p99Tol, tol.p99SlackMS, limit))
		}
		if floor := base.HitRate - tol.hitTol; got.HitRate < floor {
			violations = append(violations,
				fmt.Sprintf("%s: hit rate %.1f%% below baseline %.1f%% by more than %.0fpp (floor %.1f%%)",
					base.Scenario, 100*got.HitRate, 100*base.HitRate, 100*tol.hitTol, 100*floor))
		}
		if dev := got.ShedRate - base.ShedRate; dev > tol.shedTol || dev < -tol.shedTol {
			violations = append(violations,
				fmt.Sprintf("%s: shed rate %.1f%% deviates from baseline %.1f%% by more than %.0fpp",
					base.Scenario, 100*got.ShedRate, 100*base.ShedRate, 100*tol.shedTol))
		}
	}
	for _, r := range current.Scenarios {
		if seen[r.Scenario] {
			continue
		}
		violations = append(violations, unconditionalSLOs(r)...)
		notes = append(notes,
			fmt.Sprintf("%s: not in baseline, SLOs not gated (add it to BENCH_service_baseline.json)", r.Scenario))
	}
	return violations, notes
}

// unconditionalSLOs are the invariants with no tolerance band and no
// baseline requirement: a scheduler that breaks requests
// (hard_failures counts only failures the chaos layer did NOT inject),
// leaks a watchdog-killed execution, or serves a warm result that is
// not byte-identical to the cold one is broken regardless of what any
// baseline says.
func unconditionalSLOs(r loadsim.Report) []string {
	var v []string
	if r.HardFailures > 0 {
		v = append(v, fmt.Sprintf("%s: %d escaped hard failures (must be zero)", r.Scenario, r.HardFailures))
	}
	if r.WatchdogLeaks > 0 {
		v = append(v, fmt.Sprintf("%s: %d watchdog-killed executions still running at drain (must be zero)", r.Scenario, r.WatchdogLeaks))
	}
	if r.IdentityViolations > 0 {
		v = append(v, fmt.Sprintf("%s: %d warm results not byte-identical to cold (must be zero)", r.Scenario, r.IdentityViolations))
	}
	return v
}
