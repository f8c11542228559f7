package main

import (
	"strings"
	"testing"

	"vcsched/internal/loadsim"
)

func doc(benches ...bench) *benchDoc { return &benchDoc{Benchmarks: benches} }

func TestGateWithinTolerancePasses(t *testing.T) {
	base := doc(bench{Name: "BenchmarkShave/099.go", NsOp: 100000, AllocsOp: 500})
	cur := doc(bench{Name: "BenchmarkShave/099.go", NsOp: 180000, AllocsOp: 540})
	violations, notes := gate(base, cur, 0.10, 1.50)
	if len(violations) != 0 || len(notes) != 0 {
		t.Fatalf("violations %v notes %v, want none", violations, notes)
	}
}

func TestGateAllocRegressionFails(t *testing.T) {
	base := doc(bench{Name: "BenchmarkShave/099.go", NsOp: 100000, AllocsOp: 500})
	cur := doc(bench{Name: "BenchmarkShave/099.go", NsOp: 100000, AllocsOp: 551})
	violations, _ := gate(base, cur, 0.10, 1.50)
	if len(violations) != 1 || !strings.Contains(violations[0], "allocs/op") {
		t.Fatalf("violations %v, want one allocs/op violation", violations)
	}
}

func TestGateTimeRegressionFails(t *testing.T) {
	base := doc(bench{Name: "BenchmarkShave/099.go", NsOp: 100000, AllocsOp: 500})
	cur := doc(bench{Name: "BenchmarkShave/099.go", NsOp: 260000, AllocsOp: 500})
	violations, _ := gate(base, cur, 0.10, 1.50)
	if len(violations) != 1 || !strings.Contains(violations[0], "ns/op") {
		t.Fatalf("violations %v, want one ns/op violation", violations)
	}
}

func TestGateMissingBenchmarkFails(t *testing.T) {
	base := doc(
		bench{Name: "BenchmarkShave/099.go", NsOp: 100000, AllocsOp: 500},
		bench{Name: "BenchmarkShave/130.li", NsOp: 20000, AllocsOp: 100},
	)
	cur := doc(bench{Name: "BenchmarkShave/099.go", NsOp: 100000, AllocsOp: 500})
	violations, _ := gate(base, cur, 0.10, 1.50)
	if len(violations) != 1 || !strings.Contains(violations[0], "lost coverage") {
		t.Fatalf("violations %v, want one lost-coverage violation", violations)
	}
}

func TestGateExtraBenchmarkIsANote(t *testing.T) {
	base := doc(bench{Name: "BenchmarkShave/099.go", NsOp: 100000, AllocsOp: 500})
	cur := doc(
		bench{Name: "BenchmarkShave/099.go", NsOp: 100000, AllocsOp: 500},
		bench{Name: "BenchmarkNew/one", NsOp: 1, AllocsOp: 1},
	)
	violations, notes := gate(base, cur, 0.10, 1.50)
	if len(violations) != 0 {
		t.Fatalf("violations %v, want none", violations)
	}
	if len(notes) != 1 || !strings.Contains(notes[0], "not gated") {
		t.Fatalf("notes %v, want one not-gated note", notes)
	}
}

// Benchmarks recorded without -benchmem carry allocs_op = -1; the gate
// must skip the alloc comparison rather than treat -1 as a bound.
func TestGateSkipsAllocCheckWithoutMemStats(t *testing.T) {
	base := doc(bench{Name: "BenchmarkShave/099.go", NsOp: 100000, AllocsOp: -1})
	cur := doc(bench{Name: "BenchmarkShave/099.go", NsOp: 100000, AllocsOp: 500})
	violations, _ := gate(base, cur, 0.10, 1.50)
	if len(violations) != 0 {
		t.Fatalf("violations %v, want none", violations)
	}
}

// --- service SLO gate ---

func sdoc(reports ...loadsim.Report) *loadsim.Document {
	return &loadsim.Document{Scenarios: reports}
}

func tols() sloTolerances {
	return sloTolerances{p99Tol: 0.50, p99SlackMS: 2.0, hitTol: 0.05, shedTol: 0.05}
}

func TestGateServiceWithinBandsPasses(t *testing.T) {
	base := sdoc(loadsim.Report{Scenario: "steady", P99MS: 10, HitRate: 0.50, ShedRate: 0})
	cur := sdoc(loadsim.Report{Scenario: "steady", P99MS: 14, HitRate: 0.47, ShedRate: 0.02})
	violations, notes := gateService(base, cur, tols())
	if len(violations) != 0 || len(notes) != 0 {
		t.Fatalf("violations %v notes %v, want none", violations, notes)
	}
}

func TestGateServiceP99RegressionFails(t *testing.T) {
	base := sdoc(loadsim.Report{Scenario: "steady", P99MS: 10, HitRate: 0.50})
	cur := sdoc(loadsim.Report{Scenario: "steady", P99MS: 17.5, HitRate: 0.50})
	violations, _ := gateService(base, cur, tols())
	if len(violations) != 1 || !strings.Contains(violations[0], "p99") {
		t.Fatalf("violations %v, want one p99 violation", violations)
	}
}

func TestGateServiceP99SlackForTinyBaselines(t *testing.T) {
	// A 0ms baseline (all cache hits, virtual clock) must not fail on
	// any nonzero measurement: the absolute slack covers it.
	base := sdoc(loadsim.Report{Scenario: "warm", P99MS: 0, HitRate: 0.9})
	cur := sdoc(loadsim.Report{Scenario: "warm", P99MS: 1.5, HitRate: 0.9})
	if violations, _ := gateService(base, cur, tols()); len(violations) != 0 {
		t.Fatalf("violations %v, want none (within absolute slack)", violations)
	}
}

func TestGateServiceHitRateDropFails(t *testing.T) {
	base := sdoc(loadsim.Report{Scenario: "steady", P99MS: 10, HitRate: 0.50})
	cur := sdoc(loadsim.Report{Scenario: "steady", P99MS: 10, HitRate: 0.40})
	violations, _ := gateService(base, cur, tols())
	if len(violations) != 1 || !strings.Contains(violations[0], "hit rate") {
		t.Fatalf("violations %v, want one hit-rate violation", violations)
	}
	// A hit rate above baseline is an improvement, not a violation.
	better := sdoc(loadsim.Report{Scenario: "steady", P99MS: 10, HitRate: 0.70})
	if violations, _ := gateService(base, better, tols()); len(violations) != 0 {
		t.Fatalf("improved hit rate flagged: %v", violations)
	}
}

func TestGateServiceShedRateDeviatesBothWays(t *testing.T) {
	base := sdoc(loadsim.Report{Scenario: "overload", P99MS: 10, ShedRate: 0.44})
	over := sdoc(loadsim.Report{Scenario: "overload", P99MS: 10, ShedRate: 0.60})
	if violations, _ := gateService(base, over, tols()); len(violations) != 1 || !strings.Contains(violations[0], "shed rate") {
		t.Fatalf("shedding more not flagged: %v", violations)
	}
	// Shedding far less than the overload baseline means admission
	// control stopped refusing work it must refuse.
	under := sdoc(loadsim.Report{Scenario: "overload", P99MS: 10, ShedRate: 0.10})
	if violations, _ := gateService(base, under, tols()); len(violations) != 1 || !strings.Contains(violations[0], "shed rate") {
		t.Fatalf("shedding less not flagged: %v", violations)
	}
}

func TestGateServiceHardFailuresAlwaysFail(t *testing.T) {
	base := sdoc(loadsim.Report{Scenario: "steady", P99MS: 10})
	cur := sdoc(
		loadsim.Report{Scenario: "steady", P99MS: 10, HardFailures: 1},
		loadsim.Report{Scenario: "brand-new", P99MS: 1, HardFailures: 2},
	)
	violations, notes := gateService(base, cur, tols())
	if len(violations) != 2 {
		t.Fatalf("violations %v, want hard-failure violations for both scenarios", violations)
	}
	for _, v := range violations {
		if !strings.Contains(v, "hard failures") {
			t.Fatalf("unexpected violation %q", v)
		}
	}
	if len(notes) != 1 || !strings.Contains(notes[0], "not gated") {
		t.Fatalf("notes %v, want one not-gated note for the new scenario", notes)
	}
}

// TestGateServiceChaosInvariantsAlwaysFail: watchdog leaks and
// warm/cold identity violations, like escaped hard failures, have no
// tolerance band and need no baseline entry.
func TestGateServiceChaosInvariantsAlwaysFail(t *testing.T) {
	base := sdoc(loadsim.Report{Scenario: "chaos-faults", P99MS: 10})
	cur := sdoc(
		loadsim.Report{Scenario: "chaos-faults", P99MS: 10, WatchdogLeaks: 1},
		loadsim.Report{Scenario: "chaos-new", P99MS: 1, IdentityViolations: 3},
	)
	violations, _ := gateService(base, cur, tols())
	if len(violations) != 2 {
		t.Fatalf("violations %v, want one per scenario", violations)
	}
	if !strings.Contains(violations[0], "watchdog") || !strings.Contains(violations[1], "byte-identical") {
		t.Fatalf("violations %v, want watchdog-leak and identity violations", violations)
	}

	// Injected/poisoned counts alone are fine: chaos scenarios are
	// SUPPOSED to absorb injected failures without escaping any.
	clean := sdoc(loadsim.Report{Scenario: "chaos-faults", P99MS: 10, Injected: 20, Poisoned: 7, WatchdogKills: 4})
	if violations, _ := gateService(base, clean, tols()); len(violations) != 0 {
		t.Fatalf("injected-only chaos report flagged: %v", violations)
	}
}

func TestGateServiceMissingScenarioFails(t *testing.T) {
	base := sdoc(
		loadsim.Report{Scenario: "steady", P99MS: 10},
		loadsim.Report{Scenario: "overload", P99MS: 10},
	)
	cur := sdoc(loadsim.Report{Scenario: "steady", P99MS: 10})
	violations, _ := gateService(base, cur, tols())
	if len(violations) != 1 || !strings.Contains(violations[0], "lost coverage") {
		t.Fatalf("violations %v, want one lost-coverage violation", violations)
	}
}

func TestProvenanceNotes(t *testing.T) {
	a := &provenance{NProc: 2, GOMAXPROCS: 2, CPUModel: "cpu A", GoVersion: "go1.24.0"}
	b := &provenance{NProc: 8, GOMAXPROCS: 8, CPUModel: "cpu B", GoVersion: "go1.24.0"}
	if notes := provenanceNotes(&benchDoc{Provenance: a}, &benchDoc{Provenance: &provenance{NProc: 2, GOMAXPROCS: 2, CPUModel: "cpu A", GoVersion: "go1.24.0"}}); len(notes) != 0 {
		t.Fatalf("same machine: notes %v, want none", notes)
	}
	notes := provenanceNotes(&benchDoc{Provenance: a}, &benchDoc{Provenance: b})
	if text := strings.Join(notes, "\n"); !strings.Contains(text, "cpu A") || !strings.Contains(text, "cpu B") {
		t.Fatalf("different machines: notes %q, want both provenances", text)
	}
	notes = provenanceNotes(&benchDoc{}, &benchDoc{Provenance: b})
	if text := strings.Join(notes, "\n"); !strings.Contains(text, "not recorded") || !strings.Contains(text, "cpu B") {
		t.Fatalf("unrecorded baseline: notes %q, want both sides named", text)
	}
}
