package main

import (
	"bytes"
	"crypto/sha256"
	"embed"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/gb"
	"repro/gb/gbd"
)

// workload is one named set of inputs. run performs one pass: set-up, then
// p.job around the work a user waits for, then the correctness checks.
type workload struct {
	name string
	why  string
	// threads is how many simulation threads the workload uses. Its
	// children run with GOMAXPROCS set to it, capped at the core count.
	threads int
	run     func(p *pass) error
}

// Each workload is a closed loop from one process that uses at most two
// simulation threads and two client connections: the benchmark machine's
// core count. gp-4k runs the serial kernel, so its children get one thread.
// With a second, idle one the Go scheduler moves the kernel's hand-offs
// between cores, and the medians of ten runs spread 29-36% between their
// quartiles; on one thread, 6-10% while the host's speed held steady.
var workloads = []workload{
	{"paper-hpl", "Figures 5-9 as one scenario: 32 small cells through the sweep engine, GP tracing passes, NORM coordination and restart replay; the kernel is never partitioned", 2, runPaperHPL},
	{"gp-4k", "4096 ranks under GP: coordinated group checkpoint rounds, a 4096-rank tracing pass and group formation, on the partitioned kernel's serial path", 1, runGP4k},
	{"gp1-16k", "16384 ranks under GP1 on 2 threads: the message path, sender logging and 64 kernel partitions, with no coordination, no tracing pass and one cell", 2, runGP1},
	{"gbd-2tenant", "two tenants of the gbd daemon over loopback HTTP: cold sweeps through the pool, then cache hits only, so caching and wire decoding show here alone", 2, runGBD},
}

func workloadNamed(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// warmRequests is how many cached sweeps each gbd client posts per pass.
const warmRequests = 15000

//go:embed workloads/*.json
var specFiles embed.FS

// load reads a committed spec, applies the seed and any test sizing, and
// resolves it the way a caller of the gb API would: validation, the cell
// matrix and the canonical key.
func (p *pass) load(file string) (*gb.Scenario, []gb.CellKey, error) {
	_, end := p.startSpan(p.setupSpan, "scenario.load", file)
	defer end()
	b, err := specFiles.ReadFile("workloads/" + file)
	if err != nil {
		return nil, nil, err
	}
	sc, err := gb.ParseScenario(bytes.NewReader(b))
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", file, err)
	}
	sc.Seed = p.seed
	if p.tweak != nil {
		p.tweak(sc)
	}
	cells, err := gb.ScenarioCells(sc)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", file, err)
	}
	if _, err := gb.SpecKey(sc); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", file, err)
	}
	return sc, cells, nil
}

// cellLine renders the simulated (virtual-time) outcome of one cell: the
// digest line the correctness gate compares.
func cellLine(c gb.CellKey, res *gb.Result, rst *gb.RestartOutcome) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d %s %d seed=%d exec_ns=%d ckpts=%d ckpt_ns=%d events=%d groups=%d",
		c.Scale, c.Mode, c.Rep, c.Seed, res.ExecTime, res.Epochs, checkpointTime(res), res.Events, len(res.Formation.Groups))
	if len(res.Failures) > 0 {
		lostGrp, lostGlb, replay := lost(res)
		fmt.Fprintf(&b, " fails=%d lost_group_ns=%d lost_global_ns=%d replay_bytes=%d",
			len(res.Failures), lostGrp, lostGlb, replay)
	}
	if rst != nil {
		fmt.Fprintf(&b, " restart_ns=%d resend_bytes=%d resend_ops=%d",
			rst.AggregateRestartTime(), rst.ResendBytes, rst.ResendOps)
	}
	return b.String()
}

// checkpointTime is the paper's aggregate checkpoint time: per-rank
// checkpoint durations summed over every record.
func checkpointTime(res *gb.Result) gb.Time {
	var t gb.Time
	for _, r := range res.Records {
		t += r.Duration()
	}
	return t
}

func lost(res *gb.Result) (grp, glb gb.Time, replay int64) {
	for _, f := range res.Failures {
		grp += f.WorkLossGrp
		glb += f.WorkLossGlb
		replay += f.ReplayBytes
	}
	return grp, glb, replay
}

// checkLoss is the paper's failure claim: restarting only the failed group
// never loses more work than a global restart.
func (p *pass) checkLoss(c gb.CellKey, res *gb.Result) {
	if grp, glb, _ := lost(res); grp > glb {
		p.fail("%d/%s: lost_group %v > lost_global %v", c.Scale, c.Mode, grp, glb)
	}
}

// runCell runs one cell of a traced pass in a span called name. Only the
// "gb.RunCell" spans are the job's own cells: their metrics go into the
// per-layer counts and the engine statistics. Other names mark repeats that
// check something.
func (p *pass) runCell(name string, sc *gb.Scenario, c gb.CellKey, opts ...gb.Option) (*gb.Result, time.Duration, error) {
	_, end := p.startSpan(p.jobSpan, name, fmt.Sprintf("%d/%s/%d", c.Scale, c.Mode, c.Rep))
	t0 := time.Now()
	res, err := gb.RunCell(p.ctx, sc, c, append(opts, gb.WithCellMetrics())...)
	d := time.Since(t0)
	end()
	if err == nil && name == "gb.RunCell" {
		p.addRun(res)
	}
	return res, d, err
}

// spanStats turns a traced pass's spans into per-layer metrics. slots is
// how many cells the job runs at once; busy_frac is measured over the part
// of the job an untraced pass also does.
func (p *pass) spanStats(slots int) {
	if !p.traced() {
		return
	}
	l := p.res.Layer
	l["scenario.load_s"], _ = p.spanSeconds("scenario.load")
	l["core.restart_s"], _ = p.spanSeconds("gb.Restart")
	l["trace.pass_s"], _ = p.spanSeconds("trace.pass")
	l["group.form_s"], _ = p.spanSeconds("group.form")
	busy, cells := p.spanSeconds("gb.RunCell")
	if len(cells) == 0 {
		return
	}
	l["runner.cells"] = float64(len(cells))
	l["runner.cell_p50_s"] = quantile(cells, 0.5)
	l["runner.cell_max_s"] = slices.Max(cells)
	l["runner.busy_frac"] = (busy + l["core.restart_s"]) / (float64(slots) * p.res.ComparableS)
}

// ---------------------------------------------------------------------------
// paper-hpl

type hplCell struct {
	scale  int
	mode   string
	ckpt   gb.Time
	resend int64
}

func runPaperHPL(p *pass) error {
	sc, cells, err := p.load("paper-hpl.json")
	if err != nil {
		return err
	}
	at := make(map[gb.CellKey]int, len(cells))
	for i, c := range cells {
		at[c] = i
	}
	lines := make([]string, len(cells))
	outs := make([]hplCell, len(cells))
	record := func(c gb.CellKey, res *gb.Result, rst gb.RestartOutcome) {
		i := at[c]
		lines[i] = cellLine(c, res, &rst)
		outs[i] = hplCell{c.Scale, c.Mode, checkpointTime(res), rst.ResendBytes}
	}
	err = p.job(func() error {
		if p.traced() {
			return p.cellsByHand(sc, cells, record)
		}
		for c, err := range gb.Sweep(p.ctx, sc, gb.WithWorkers(2)) {
			if !p.op(err) {
				return err
			}
			rst, err := gb.Restart(c.Result, c.Seed)
			if !p.op(err) {
				return err
			}
			record(c.Cell, c.Result, rst)
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.res.Digest = lines
	p.spanStats(2)
	p.checkHPLOrderings(outs)
	return nil
}

// cellsByHand is the traced form of the paper-hpl job: two goroutines pull
// cells from the matrix and run each with RunCell, then Restart, so every
// call gets its own span.
func (p *pass) cellsByHand(sc *gb.Scenario, cells []gb.CellKey, record func(gb.CellKey, *gb.Result, gb.RestartOutcome)) error {
	var next atomic.Int64
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(cells); i = int(next.Add(1)) - 1 {
				c := cells[i]
				res, _, err := p.runCell("gb.RunCell", sc, c)
				if !p.op(err) {
					errs[w] = err
					return
				}
				_, end := p.startSpan(p.jobSpan, "gb.Restart", fmt.Sprintf("%d/%s/%d", c.Scale, c.Mode, c.Rep))
				rst, err := gb.Restart(res, c.Seed)
				end()
				if !p.op(err) {
					errs[w] = err
					return
				}
				record(c, res, rst)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// checkHPLOrderings asserts the paper's HPL claims on any seed: GP's
// aggregate checkpoint time is below NORM's at the largest scale, and GP1
// resends at least as much as GP on restart.
func (p *pass) checkHPLOrderings(outs []hplCell) {
	top := 0
	for _, o := range outs {
		top = max(top, o.scale)
	}
	ckpt := map[string]gb.Time{}
	resend := map[string]int64{}
	for _, o := range outs {
		if o.scale == top {
			ckpt[o.mode] += o.ckpt
		}
		resend[o.mode] += o.resend
	}
	if ckpt["GP"] >= ckpt["NORM"] {
		p.fail("paper-hpl: GP checkpoint time %v not below NORM %v at %d ranks", ckpt["GP"], ckpt["NORM"], top)
	}
	if resend["GP1"] < resend["GP"] {
		p.fail("paper-hpl: GP1 resend %d bytes below GP %d", resend["GP1"], resend["GP"])
	}
}

// ---------------------------------------------------------------------------
// gp-4k

func runGP4k(p *pass) error {
	sc, cells, err := p.load("gp-4k.json")
	if err != nil {
		return err
	}
	c := cells[0]
	var res *gb.Result
	err = p.job(func() error {
		if p.traced() {
			res, err = p.decompose(sc, c)
			return err
		}
		for cell, err := range gb.Sweep(p.ctx, sc, gb.WithWorkers(1), gb.WithRunWorkers(1)) {
			if !p.op(err) {
				return err
			}
			res = cell.Result
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.res.Digest = []string{cellLine(c, res, nil)}
	p.checkLoss(c, res)
	p.spanStats(1)
	return nil
}

// decompose is the traced form of the gp-4k job. It runs the cell, then
// repeats what GP does inside it as separate public calls: the tracing pass
// on the harness's tracing cluster (seed 977, no jitter, no daemon noise),
// group formation from its matrix, and the run under that formation. The
// formation must equal the one the cell used, and the run its result.
func (p *pass) decompose(sc *gb.Scenario, c gb.CellKey) (*gb.Result, error) {
	res, d, err := p.runCell("gb.RunCell", sc, c, gb.WithRunWorkers(1))
	if !p.op(err) {
		return nil, err
	}
	p.res.ComparableS = d.Seconds()
	cl, err := sc.Cluster.Config()
	if err != nil {
		return nil, err
	}
	fs := sc.Failures
	if fs == nil || fs.Process != "poisson" || fs.Pattern != nil {
		return nil, fmt.Errorf("decompose: %s needs plain Poisson failures", sc.Name)
	}
	tracing := cl
	tracing.JitterFrac, tracing.DaemonEvery = 0, 0

	_, end := p.startSpan(p.jobSpan, "trace.pass", "")
	tr, err := gb.Run(p.ctx, sc.Workload.Build(c.Scale), gb.WithMode(gb.None),
		gb.WithCluster(tracing), gb.WithSeed(977), gb.WithObserver(gb.NewCommObserver()))
	end()
	if !p.op(err) {
		return nil, err
	}

	_, end = p.startSpan(p.jobSpan, "group.form", "")
	f := gb.GroupsFromComm(tr.Comm, c.Scale, sc.GroupMax)
	end()
	p.res.Layer["group.groups"] = float64(len(f.Groups))
	if f.N != res.Formation.N || !reflect.DeepEqual(f.Groups, res.Formation.Groups) {
		p.fail("%s: formation from the tracing pass differs from the one gb.RunCell used", sc.Name)
	}

	ck := sc.Checkpoint
	failures := gb.PoissonFailures(fs.MTBFS)
	failures.Max = fs.Max
	_, end = p.startSpan(p.jobSpan, "harness.run", "")
	hr, err := gb.Run(p.ctx, sc.Workload.Build(c.Scale), gb.WithMode(gb.Mode(c.Mode)),
		gb.WithCluster(cl), gb.WithSeed(c.Seed), gb.WithFormation(f), gb.WithFailures(failures),
		gb.WithSchedule(gb.Schedule{At: gb.Seconds(ck.AtS), Start: gb.Seconds(ck.StartS),
			Interval: gb.Seconds(ck.IntervalS), MaxCount: ck.MaxCount}))
	end()
	if !p.op(err) {
		return nil, err
	}
	if a, b := cellLine(c, hr, nil), cellLine(c, res, nil); a != b {
		p.fail("%s: run under the traced formation differs from the cell:\n  %s\n  %s", sc.Name, a, b)
	}
	return res, nil
}

// ---------------------------------------------------------------------------
// gp1-16k

func runGP1(p *pass) error {
	sc, cells, err := p.load("gp1-16k.json")
	if err != nil {
		return err
	}
	c := cells[0]
	var line string
	err = p.job(func() error {
		if p.traced() {
			line, err = p.workerLadder(sc, c)
			return err
		}
		res, err := gb.RunCell(p.ctx, sc, c, gb.WithRunWorkers(2))
		if !p.op(err) {
			return err
		}
		line = cellLine(c, res, nil)
		p.checkLoss(c, res)
		return nil
	})
	if err != nil {
		return err
	}
	p.res.Digest = []string{line}
	p.spanStats(1)
	return nil
}

// workerLadder is the traced form of the gp1-16k job: the cell at two
// simulation threads, then at one. Output must be byte-identical; the time
// ratio is the partitioned kernel's speedup.
func (p *pass) workerLadder(sc *gb.Scenario, c gb.CellKey) (string, error) {
	res, d2, err := p.runCell("gb.RunCell", sc, c, gb.WithRunWorkers(2))
	if !p.op(err) {
		return "", err
	}
	p.res.ComparableS = d2.Seconds()
	line := cellLine(c, res, nil)
	p.checkLoss(c, res)
	res, d1, err := p.runCell("gb.RunCell.serial", sc, c, gb.WithRunWorkers(1))
	if !p.op(err) {
		return "", err
	}
	if l1 := cellLine(c, res, nil); l1 != line {
		p.fail("%s: RunWorkers 1 and 2 differ:\n  %s\n  %s", sc.Name, l1, line)
	}
	p.res.Layer["sim.partition_speedup"] = d1.Seconds() / d2.Seconds()
	return line, nil
}

// ---------------------------------------------------------------------------
// gbd-2tenant

// client is one tenant: one goroutine, one HTTP connection.
type client struct {
	url    string
	tenant string
	hc     *http.Client
}

func newClient(url, tenant string) *client {
	return &client{url: url, tenant: tenant, hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}}
}

func (c *client) do(method, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, c.url+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set(gbd.TenantHeader, c.tenant)
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(b))
	}
	return b, nil
}

func runGBD(p *pass) error {
	files := [2]string{"gbd-a.json", "gbd-b.json"}
	var reqs [2][]byte
	cellsTotal := 0
	for i, file := range files {
		sc, cells, err := p.load(file)
		if err != nil {
			return err
		}
		spec, err := gb.CanonicalScenario(sc)
		if err != nil {
			return err
		}
		if reqs[i], err = json.Marshal(gbd.RunRequest{Spec: spec}); err != nil {
			return err
		}
		cellsTotal += len(cells)
	}

	_, end := p.startSpan(p.setupSpan, "gbd.start", "")
	srv := gbd.NewServer(gbd.Options{Workers: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	clients := [2]*client{newClient(ts.URL, "a"), newClient(ts.URL, "b")}
	for _, c := range clients {
		defer c.hc.CloseIdleConnections()
	}
	if _, err := clients[0].do("GET", "/healthz", nil); err != nil {
		return err
	}
	end()

	var cold [2][]byte
	var lat [2][]time.Duration
	var warmBytes [2]int
	err := p.job(func() error {
		t0 := time.Now()
		var wg sync.WaitGroup
		for i, c := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, end := p.startSpan(p.jobSpan, "gbd.cold."+c.tenant, files[i])
				b, err := c.do("POST", "/v1/sweeps", reqs[i])
				end()
				if p.op(err) {
					cold[i] = b
				}
			}()
		}
		wg.Wait()
		p.phase("cold_s", time.Since(t0))
		if cold[0] == nil || cold[1] == nil {
			return errors.New("gbd: a cold sweep failed")
		}

		_, end := p.startSpan(p.jobSpan, "gbd.warm", "")
		defer end()
		t0 = time.Now()
		for i, c := range clients {
			lat[i] = make([]time.Duration, 0, p.warm)
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := 0; k < p.warm; k++ {
					j := (i + k) % 2
					t := time.Now()
					b, err := c.do("POST", "/v1/sweeps", reqs[j])
					lat[i] = append(lat[i], time.Since(t))
					if !p.op(err) {
						continue
					}
					warmBytes[i] += len(b)
					if !bytes.Equal(b, cold[j]) {
						p.fail("gbd: warm %s body differs from its cold body", files[j])
					}
				}
			}()
		}
		wg.Wait()
		p.phase("warm_s", time.Since(t0))
		return nil
	})
	if err != nil {
		return err
	}
	for i, b := range cold {
		p.res.Digest = append(p.res.Digest, fmt.Sprintf("%s sha256=%x bytes=%d", files[i], sha256.Sum256(b), len(b)))
	}

	hits, misses, err := scrapeCache(clients[0])
	if err != nil {
		return err
	}
	warm := 2 * p.warm
	if misses != float64(cellsTotal) {
		p.fail("gbd: %v cache misses, want one per distinct cell (%d)", misses, cellsTotal)
	}
	if hits != float64(p.warm*cellsTotal) {
		p.fail("gbd: %v cache hits, want every warm cell (%d)", hits, p.warm*cellsTotal)
	}
	if !p.traced() {
		return nil
	}
	all := slices.Concat(lat[0], lat[1])
	ms := make([]float64, len(all))
	for i, d := range all {
		ms[i] = float64(d) / 1e6
	}
	warmS := p.res.Phases["warm_s"]
	l := p.res.Layer
	l["gbd.cold_s"] = p.res.Phases["cold_s"]
	l["gbd.cold_a_s"], _ = p.spanSeconds("gbd.cold.a")
	l["gbd.cold_b_s"], _ = p.spanSeconds("gbd.cold.b")
	l["gbd.hit_p50_ms"] = quantile(ms, 0.5)
	l["gbd.hit_p99_ms"] = quantile(ms, 0.99)
	l["gbd.hit_rps"] = float64(warm) / warmS
	l["gbd.cache_hits"], l["gbd.cache_misses"] = hits, misses
	l["gbd.hit_bytes"] = float64(warmBytes[0]+warmBytes[1]) / float64(warm)
	for _, b := range cold {
		var sw struct {
			Cells []struct {
				Events float64 `json:"events"`
			} `json:"cells"`
		}
		if err := json.Unmarshal(b, &sw); err != nil {
			return fmt.Errorf("gbd: cold body: %w", err)
		}
		for _, c := range sw.Cells {
			l["sim.events"] += c.Events
		}
	}
	p.spanStats(1)
	return nil
}

// scrapeCache reads the determinism cache counters from GET /metrics.
func scrapeCache(c *client) (hits, misses float64, err error) {
	b, err := c.do("GET", "/metrics", nil)
	if err != nil {
		return 0, 0, err
	}
	found := 0
	for _, line := range strings.Split(string(b), "\n") {
		var name string
		var v float64
		if _, err := fmt.Sscanf(line, "%s %g", &name, &v); err != nil {
			continue
		}
		switch name {
		case "gbd_cache_hits_total":
			hits, found = v, found+1
		case "gbd_cache_misses_total":
			misses, found = v, found+1
		}
	}
	if found != 2 {
		return 0, 0, errors.New("gbd: /metrics lacks the cache counters")
	}
	return hits, misses, nil
}
