package main

import (
	"bufio"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

// quantile returns the q-quantile of xs, interpolating linearly between the
// two nearest ranks. It returns NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// envStamp records what a measurement ran on, so that a comparison across
// different hardware can be refused rather than read as drift.
type envStamp struct {
	NProc      int            `json:"nproc"`
	CPUModel   string         `json:"cpuModel"`
	GOMAXPROCS map[string]int `json:"gomaxprocs"` // per workload
	GOGC       string         `json:"gogc"`
	GoVersion  string         `json:"goVersion"`
	GOOS       string         `json:"goos"`
	GOARCH     string         `json:"goarch"`
	RAMMB      int64          `json:"ramMB"`
	Commit     string         `json:"commit"`
}

// childGOGC is the GOGC every child runs with.
const childGOGC = "100"

func stamp(selected []workload) envStamp {
	procs := make(map[string]int, len(selected))
	for _, w := range selected {
		procs[w.name] = childProcs(w)
	}
	return envStamp{
		NProc:      runtime.NumCPU(),
		CPUModel:   procField("/proc/cpuinfo", "model name"),
		GOMAXPROCS: procs,
		GOGC:       childGOGC,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		RAMMB:      ramMB(),
		Commit:     commit(),
	}
}

// procField returns the value of the first "key: value" line of a /proc
// file, or "unknown".
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func ramMB() int64 {
	kb, err := strconv.ParseInt(strings.TrimSuffix(procField("/proc/meminfo", "MemTotal"), " kB"), 10, 64)
	if err != nil {
		return 0
	}
	return kb >> 10
}

// commit reads the checked-out commit from .git in the working directory,
// without running git. Outside a git checkout it is "unknown".
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}
