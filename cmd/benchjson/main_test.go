package main

import (
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: repro/internal/sim
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkKernelEventChurn 	 7461938	       163.0 ns/op	         1.000 events/op
BenchmarkEventHeap/concrete-8         	 9023472	       147.1 ns/op	       0 B/op	       0 allocs/op
BenchmarkKernelHold-2   	 3122704	       383.9 ns/op
PASS
ok  	repro/internal/sim	1.389s
pkg: repro
BenchmarkFig05ExecutionTime-8    	       1	1578544302 ns/op	        60.31 exec_s
ok  	repro	1.6s
`

func TestParse(t *testing.T) {
	r, err := parse(strings.NewReader(sample), "abc123")
	if err != nil {
		t.Fatal(err)
	}
	if r.Commit != "abc123" || r.GoVersion == "" {
		t.Errorf("metadata missing: %+v", r)
	}
	if r.CPU != "Intel(R) Xeon(R) Processor @ 2.10GHz" || r.NProc < 1 {
		t.Errorf("hardware stamp missing: cpu %q, nproc %d", r.CPU, r.NProc)
	}
	if len(r.Benchmarks) != 4 {
		t.Fatalf("parsed %d benchmarks, want 4: %+v", len(r.Benchmarks), r.Benchmarks)
	}
	churn := r.Benchmarks[0]
	if churn.Name != "BenchmarkKernelEventChurn" || churn.Procs != 1 || churn.Pkg != "repro/internal/sim" ||
		churn.Runs != 7461938 || churn.NsPerOp != 163.0 || churn.Metrics["events/op"] != 1 {
		t.Errorf("churn line misparsed: %+v", churn)
	}
	heap := r.Benchmarks[1]
	if heap.Name != "BenchmarkEventHeap/concrete" || heap.Procs != 8 ||
		heap.Metrics["B/op"] != 0 || heap.Metrics["allocs/op"] != 0 {
		t.Errorf("suffixed sub-benchmark misparsed: %+v", heap)
	}
	hold := r.Benchmarks[2]
	if hold.Name != "BenchmarkKernelHold" || hold.Procs != 2 || hold.NsPerOp != 383.9 {
		t.Errorf("suffixed line misparsed: %+v", hold)
	}
	fig := r.Benchmarks[3]
	if fig.Name != "BenchmarkFig05ExecutionTime" || fig.Procs != 8 ||
		fig.Pkg != "repro" || fig.Runs != 1 || fig.Metrics["exec_s"] != 60.31 {
		t.Errorf("figure line misparsed: %+v", fig)
	}
}

func TestParseRejectsMalformedBenchmarkLine(t *testing.T) {
	if _, err := parse(strings.NewReader("BenchmarkBroken nope 12 ns/op\n"), ""); err == nil {
		t.Error("malformed iteration count accepted")
	}
}

func TestParseEmptyInput(t *testing.T) {
	r, err := parse(strings.NewReader(""), "")
	if err != nil {
		t.Fatal(err)
	}
	if r.Benchmarks == nil || len(r.Benchmarks) != 0 {
		t.Errorf("empty input should give an empty (non-null) benchmark list: %#v", r.Benchmarks)
	}
}
