package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// End-to-end metrics, reported by timed runs (--trace 0) in the result
// line. They are CPU times and memory: on a host whose hypervisor steals a
// third of the CPU for minutes at a time, wall times more than double while
// CPU times rise by a sixth. The wall-time figures are printed beside them.
var endToEnd = []struct{ name, unit string }{
	{"round_cpu_ms_p50", "ms"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// spanMetrics maps span names to the per-layer time metrics that report
// their inclusive time per round.
var spanMetrics = []struct{ span, metric string }{
	{"corpus.build", "corpus.build_ms"},
	{"statics.extract", "statics.extract_ms"},
	{"lint.run", "lint.run_ms"},
	{"artifact.open", "artifact.open_ms"},
	{"artifact.key", "artifact.key_ms"},
	{"artifact.save", "artifact.save_ms"},
	{"apk.encode", "apk.encode_ms"},
	{"statics.encode", "statics.encode_ms"},
	{"artifact.load", "artifact.load_ms"},
	{"apk.decode", "apk.decode_ms"},
	{"statics.decode", "statics.decode_ms"},
	{"artifact.snapshot_load", "artifact.snapshot_load_ms"},
	{"artifact.snapshot_save", "artifact.snapshot_save_ms"},
	{"memo.flush", "memo.flush_ms"},
	{"ir.install", "ir.install_ms"},
	{"explorer.explore", "explorer.explore_ms"},
	{"explorer.target", "explorer.target_ms"},
	{"explorer.directed", "explorer.directed_ms"},
	{"device.launch", "device.launch_ms"},
	{"report.fold", "report.fold_ms"},
}

// writeSide are the store-write metrics; see traced.
var writeSide = []string{
	"artifact.save_ms", "apk.encode_ms", "statics.encode_ms",
	"artifact.snapshot_save_ms", "memo.flush_ms",
	"artifact.bytes_written", "artifact.disk_writes", "artifact.disk_errors",
}

// perLayer lists every per-layer metric a traced run (--trace 1) reports:
// the span times above, then counts, ratios and run-level figures.
var perLayer = append(spanMetricList(), []struct{ name, unit string }{
	{"lint.findings", "count"},
	{"artifact.bytes_written", "bytes"},
	{"artifact.disk_writes", "count"},
	{"artifact.disk_errors", "count"},
	{"artifact.bytes_read", "bytes"},
	{"artifact.disk_hits", "count"},
	{"artifact.disk_misses", "count"},
	{"memo.disk_hits", "count"},
	{"memo.pack_decode_ratio", "ratio"},
	{"ir.hits", "count"},
	{"ir.misses", "count"},
	{"session.test_cases", "count"},
	{"session.executed_steps", "count"},
	{"session.snapshot_hit_ratio", "ratio"},
	{"session.steps_saved_ratio", "ratio"},
	{"session.evictions", "count"},
	{"device.steps_per_s", "1/s"},
	{"paths.plan_ms", "ms"},
	{"paths.routes", "count"},
	{"report.unattributed_ms", "ms"},
	{"trace.round_ms", "ms"},
	{"trace.top_level_pct", "%"},
	{"trace.overhead_pct", "%"},
	{"process.gap_ms", "ms"},
	{"runtime.alloc_mb_per_round", "MB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.retained_heap_mb", "MB"},
	{"replay.mismatches", "count"},
}...)

func spanMetricList() []struct{ name, unit string } {
	out := make([]struct{ name, unit string }, len(spanMetrics))
	for i, s := range spanMetrics {
		out[i].name, out[i].unit = s.metric, "ms"
	}
	return out
}

// bench runs one workload for one seed.
type bench struct {
	w      *workload
	seed   int64
	dir    string
	budget time.Duration
	ref    []byte
	// store is the work dir the last set-up invocation filled.
	store string
	dirs  int

	attempted, failed int
}

// cliRun is one finished fragstudy invocation.
type cliRun struct {
	wall  time.Duration
	cpu   time.Duration // user plus system time of the child
	rssKB int64
	steal float64 // hypervisor steal over the run, % of the machine's CPU time
	out   []byte
}

// quietStealPct is the most hypervisor steal a timed invocation may see and
// still count. Over it, the invocation mostly waited for other guests, not
// for the program: on a shared 2-vCPU VM, steal rose from under 1% to 33%
// for minutes at a time, and eval-warm's median round went from 31 ms to
// 69 ms with it.
const quietStealPct = 5

// quiet returns the runs that saw at most quietStealPct of steal. When fewer
// than keep did, it returns the least-stolen quarter of the runs instead,
// but at least keep of them (or all, if there are fewer), so a run that met
// steal throughout still reports a number.
func quiet(runs []cliRun, keep int) []cliRun {
	var out []cliRun
	for _, r := range runs {
		if r.steal <= quietStealPct {
			out = append(out, r)
		}
	}
	if len(out) >= keep || len(out) == len(runs) {
		return out
	}
	out = append(out[:0:0], runs...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].steal < out[j].steal })
	return out[:min(max(keep, len(runs)/4), len(out))]
}

// runCLI runs fragstudy once and times it from start to exit. The child
// gets the caller's environment minus FRAGDROID_* overrides, so it runs on
// its own defaults. Its maxrss is the larger of its own peak and this
// process's peak so far: Linux folds the parent's high-water mark into a
// vfork'd child's at exec. The benchmark therefore does nothing sizeable
// before its timed rounds, and prints its own peak (bench_hwm_mb) with the
// host record.
func runCLI(args []string) (cliRun, error) {
	cmd := exec.Command(binPath, args...)
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "FRAGDROID_") {
			cmd.Env = append(cmd.Env, kv)
		}
	}
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start)
	if err != nil {
		return cliRun{}, fmt.Errorf("fragstudy %s: %w: %s", strings.Join(args, " "), err, stderr.Bytes())
	}
	var rss int64
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rss = ru.Maxrss // KiB on Linux
	}
	cpu := cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()
	return cliRun{wall: wall, cpu: cpu, rssKB: rss, out: stdout.Bytes()}, nil
}

// newDir returns an empty work dir no earlier invocation used. Work dirs
// are removed only when the run ends: on ext4, a 400-app lint round writing
// its store ran about three times slower right after the previous round's
// store was deleted than with it kept.
func (b *bench) newDir() (string, error) {
	b.dirs++
	dir := filepath.Join(b.dir, strconv.Itoa(b.dirs))
	return dir, os.MkdirAll(dir, 0o755)
}

// roundDir is the work dir of the next round: the store the set-up filled,
// for workloads that read it, else a new empty one.
func (b *bench) roundDir() (string, error) {
	if b.w.store {
		return b.store, nil
	}
	return b.newDir()
}

// round runs one verified CLI invocation in dir. A failed or wrong round is
// counted and reported, not returned.
func (b *bench) round(dir string) (cliRun, bool) {
	b.attempted++
	steal0 := readSteal()
	r, err := runCLI(b.w.args(b.seed, dir))
	if err != nil {
		return b.fail(err)
	}
	r.steal = steal0.pctTo(readSteal())
	if b.w.outFile != "" {
		if r.out, err = os.ReadFile(filepath.Join(dir, b.w.outFile)); err != nil {
			return b.fail(err)
		}
	}
	if err := b.w.verify(r.out, b.ref); err != nil {
		return b.fail(err)
	}
	r.out = nil // kept rounds must not grow this process (see runCLI)
	return r, true
}

func (b *bench) fail(err error) (cliRun, bool) {
	b.failed++
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	return cliRun{}, false
}

// prepare runs the untimed reference invocation, when the workload has one,
// then the set-up invocations, each in an empty dir. The last one's dir is
// the store rounds read, for workloads that read one. It returns the set-up
// invocations.
func (b *bench) prepare(reps int) ([]cliRun, error) {
	if b.w.reference != nil {
		r, err := runCLI(b.w.reference(b.seed))
		if err != nil {
			return nil, err
		}
		b.ref = r.out
	}
	var setups []cliRun
	for i := 0; i < reps; i++ {
		dir, err := b.newDir()
		if err != nil {
			return nil, err
		}
		// Start each set-up with no dirty pages left to write back, so one
		// set-up's store writes do not slow the next.
		syscall.Sync()
		b.store = dir
		r, ok := b.round(dir)
		if !ok {
			return nil, fmt.Errorf("%s: set-up invocation failed", b.w.name)
		}
		setups = append(setups, r)
	}
	return setups, nil
}

// more reports whether another round starts: until the budget is spent and
// at least minRounds have run.
func (b *bench) more(start time.Time, rounds int) bool {
	return rounds < minRounds || time.Since(start) < b.budget
}

// timed is the closed loop: one client, each CLI round started when the
// previous one ended, tracing off.
func (b *bench) timed() (result, error) {
	setups, err := b.prepare(setupReps)
	if err != nil {
		return result{}, err
	}
	syscall.Sync()
	var rounds []cliRun
	steal0 := readSteal()
	start := time.Now()
	for n := 0; b.more(start, n); n++ {
		dir, err := b.roundDir()
		if err != nil {
			return result{}, err
		}
		if r, ok := b.round(dir); ok {
			rounds = append(rounds, r)
		}
	}
	if len(rounds) == 0 {
		return result{}, fmt.Errorf("%s: every round failed", b.w.name)
	}
	kept := quiet(rounds, minRounds)
	keptSetups := quiet(setups, 3)
	var walls, cpus, rss, setupCPU, setupWall []float64
	var busy time.Duration
	for _, r := range kept {
		walls = append(walls, ms(r.wall))
		cpus = append(cpus, ms(r.cpu))
		rss = append(rss, float64(r.rssKB)/1024)
		busy += r.wall
	}
	for _, r := range keptSetups {
		setupCPU = append(setupCPU, r.cpu.Seconds())
		setupWall = append(setupWall, r.wall.Seconds())
	}
	vals := map[string]float64{
		"round_cpu_ms_p50": median(cpus),
		"peak_rss_mb":      median(rss),
		"setup_s":          median(setupCPU),
	}
	res := result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metric{}}
	for _, m := range endToEnd {
		res.Metrics[m.name] = metric{vals[m.name], m.unit}
	}
	line := func(name string, v float64, unit string, n int) {
		fmt.Printf("  %-28s %14.4f %-6s n=%d\n", name, v, unit, n)
	}
	line("round_ms_p50", median(walls), "ms", len(walls))
	if p90, n, ok := percentile(walls, 90); ok {
		line("round_ms_p90", p90, "ms", n)
	} else {
		fmt.Printf("  %-28s %14s %-6s n=%d (needs %d samples above it)\n", "round_ms_p90", "-", "ms", n, minTail)
	}
	line("apps_per_s", float64(b.w.apps*len(walls))/busy.Seconds(), "1/s", len(walls))
	line("round_cpu_ms_p50", vals["round_cpu_ms_p50"], "ms", len(cpus))
	line("peak_rss_mb", vals["peak_rss_mb"], "MB", len(rss))
	line("setup_s", vals["setup_s"], "s", len(setupCPU))
	line("setup_wall_s", median(setupWall), "s", len(setupWall))
	fmt.Printf("  %-28s %14.4f %-6s %d of %d invocations\n", "fail_ratio", ratio(float64(b.failed), float64(b.attempted)), "ratio", b.failed, b.attempted)
	fmt.Printf("  %-28s %14.4f %-6s share of CPU time the hypervisor gave to other guests while rounds ran\n", "host_steal_pct", steal0.pctTo(readSteal()), "%")
	fmt.Printf("  timings use %d of %d rounds and %d of %d set-ups; %d rounds saw at most %d%% steal\n",
		len(kept), len(rounds), len(keptSetups), len(setups), len(quiet(rounds, 0)), quietStealPct)
	return res, nil
}

// traced replays rounds in process with spans, for the per-layer metrics.
// Each cycle runs a traced replay and the real report path in process with
// one worker per stage, alternating which goes first; the real path is the
// base for the fidelity check and the tracing overhead. Then the real path
// with the CLI's own parallelism and one CLI round: their difference is the
// process gap.
func (b *bench) traced() (result, error) {
	if _, err := b.prepare(1); err != nil {
		return result{}, err
	}
	rp := b.w.replay(b.seed)
	var mismatches, notes []string
	check := func(rr *replayed, base *inproc) {
		if rr != nil && base != nil {
			m, n := compare(rr.inproc, *base)
			mismatches = append(mismatches, m...)
			notes = append(notes, n...)
		}
	}
	// Rounds that share a filled store write nothing, so the write side is
	// measured on traced replays of the set-up: cold fills of empty stores.
	setupVals := map[string][]float64{}
	for i := 0; i < setupReps && b.w.store; i++ {
		rr, vals := b.replayRound(rp, b.newDir)
		if rr == nil {
			continue
		}
		for _, name := range writeSide {
			setupVals[name] = append(setupVals[name], vals[name])
		}
		base, _, _ := b.realRound(rp, 1, b.newDir)
		check(rr, base)
	}

	perRound := map[string][]float64{}
	var replayWalls, serialWalls, parWalls, cliWalls []float64
	var last layerTimes
	start := time.Now()
	for n := 0; b.more(start, n) && n < maxTraceCycles; n++ {
		var rr *replayed
		var base *inproc
		for i := 0; i < 2; i++ {
			if (n+i)%2 == 0 {
				var vals map[string]float64
				if rr, vals = b.replayRound(rp, b.roundDir); rr == nil {
					continue
				}
				replayWalls = append(replayWalls, vals["trace.round_ms"])
				last = rr.tr.aggregate()
				for k, v := range vals {
					perRound[k] = append(perRound[k], v)
				}
			} else if r, wall, ok := b.realRound(rp, 1, b.roundDir); ok {
				base = r
				serialWalls = append(serialWalls, ms(wall))
			}
		}
		check(rr, base)
		if _, wall, ok := b.realRound(rp, runtime.NumCPU(), b.roundDir); ok {
			parWalls = append(parWalls, ms(wall))
		}
		if dir, err := b.roundDir(); err != nil {
			b.fail(err)
		} else if r, ok := b.round(dir); ok {
			cliWalls = append(cliWalls, ms(r.wall))
		}
	}
	if len(replayWalls) == 0 {
		return result{}, fmt.Errorf("%s: every replay failed", b.w.name)
	}
	var mem runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&mem)
	vals := map[string]float64{}
	for k, v := range perRound {
		vals[k] = median(v)
	}
	for k, v := range setupVals {
		vals[k] = median(v)
	}
	vals["trace.overhead_pct"] = 100 * ratio(median(replayWalls)-median(serialWalls), median(serialWalls))
	vals["process.gap_ms"] = median(cliWalls) - median(parWalls)
	vals["runtime.retained_heap_mb"] = float64(mem.HeapAlloc) / (1 << 20)
	vals["replay.mismatches"] = float64(len(mismatches))
	printFirst("replay mismatch", mismatches)
	printFirst("note", notes)

	res := result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metric{}}
	for _, m := range perLayer {
		res.Metrics[m.name] = metric{vals[m.name], m.unit}
		fmt.Printf("  %-28s %14.4f %-6s n=%d\n", m.name, vals[m.name], m.unit, len(replayWalls))
	}
	fmt.Printf("  in-process rounds: %d replayed, %d real serial, %d real parallel; %d CLI rounds (p50 %.3f ms)\n",
		len(replayWalls), len(serialWalls), len(parWalls), len(cliWalls), median(cliWalls))
	printBreakdown(last)
	return res, nil
}

// replayRound runs one verified, traced replay in the dir newDir gives and
// returns it with its per-layer values; nil when it failed.
func (b *bench) replayRound(rp replayer, newDir func() (string, error)) (*replayed, map[string]float64) {
	b.attempted++
	dir, err := newDir()
	if err != nil {
		b.fail(err)
		return nil, nil
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	rr, err := rp.replay(dir)
	wall := time.Since(start)
	runtime.ReadMemStats(&ms1)
	if err == nil {
		err = b.w.verify(rr.out, b.ref)
	}
	if err != nil {
		b.fail(err)
		return nil, nil
	}
	vals := roundMetrics(rr.tr.aggregate(), wall, rr.counts)
	vals["runtime.alloc_mb_per_round"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	vals["runtime.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	if d, ok := rp.(*directed); ok {
		plan, routes := d.planProbe()
		vals["paths.plan_ms"] = ms(plan)
		vals["paths.routes"] = float64(routes)
	}
	return rr, vals
}

// realRound runs the real report path once in the dir newDir gives,
// verified, and times it.
func (b *bench) realRound(rp replayer, parallel int, newDir func() (string, error)) (*inproc, time.Duration, bool) {
	b.attempted++
	dir, err := newDir()
	if err != nil {
		b.fail(err)
		return nil, 0, false
	}
	start := time.Now()
	r, err := rp.real(dir, parallel)
	wall := time.Since(start)
	if err == nil {
		err = b.w.verify(r.out, b.ref)
	}
	if err != nil {
		b.fail(err)
		return nil, 0, false
	}
	return r, wall, true
}

// roundMetrics turns one replayed round into per-layer values.
func roundMetrics(lt layerTimes, wall time.Duration, counts map[string]float64) map[string]float64 {
	vals := make(map[string]float64, len(perLayer))
	for k, v := range counts {
		vals[k] = v
	}
	for _, s := range spanMetrics {
		vals[s.metric] = ms(lt.total[s.span])
	}
	explore := lt.total["explorer.explore"] + lt.total["explorer.target"] + lt.total["explorer.directed"]
	vals["device.steps_per_s"] = ratio(counts["session.executed_steps"], explore.Seconds())
	vals["report.unattributed_ms"] = ms(wall - lt.top)
	vals["trace.round_ms"] = ms(wall)
	vals["trace.top_level_pct"] = 100 * ratio(float64(lt.top), float64(wall))
	return vals
}

// compare lists where a replay disagrees with the real path on the same
// inputs: output, artifact counters or session counters. With a device
// fleet the snapshot hit, restore and steps-saved counters depend on how
// the warming devices race the main loop, so they differ between any two
// runs, replayed or not; they are listed as notes and not counted.
// BytesPinned is a sampled gauge and is never compared.
func compare(rep, base inproc) (mismatches, notes []string) {
	if !bytes.Equal(rep.out, base.out) {
		mismatches = append(mismatches, "output differs")
	}
	if rep.cache != base.cache {
		mismatches = append(mismatches, fmt.Sprintf("artifact stats: replay %+v, report path %+v", rep.cache, base.cache))
	}
	a, r := rep.explore, base.explore
	a.BytesPinned, r.BytesPinned = 0, 0
	if fleetSize() > 1 {
		if a.SnapshotHits != r.SnapshotHits || a.SnapshotRestores != r.SnapshotRestores || a.StepsSaved != r.StepsSaved {
			notes = append(notes, fmt.Sprintf("fleet-timed session counters: replay hits/restores/saved %d/%d/%d, report path %d/%d/%d",
				a.SnapshotHits, a.SnapshotRestores, a.StepsSaved, r.SnapshotHits, r.SnapshotRestores, r.StepsSaved))
		}
		a.SnapshotHits, a.SnapshotRestores, a.StepsSaved = 0, 0, 0
		r.SnapshotHits, r.SnapshotRestores, r.StepsSaved = 0, 0, 0
	}
	if a != r {
		mismatches = append(mismatches, fmt.Sprintf("session stats: replay %+v, report path %+v", a, r))
	}
	return mismatches, notes
}

// printFirst prints the first few lines of a list and how many it left out.
func printFirst(label string, lines []string) {
	for i, l := range lines {
		if i == 3 {
			fmt.Printf("  ... %d more (%s)\n", len(lines)-i, label)
			return
		}
		fmt.Printf("  %s: %s\n", label, l)
	}
}

// printBreakdown prints the last replayed round's spans by name: count,
// inclusive and self time.
func printBreakdown(lt layerTimes) {
	fmt.Printf("  last replayed round, by span: %-22s %6s %10s %10s\n", "", "count", "total_ms", "self_ms")
	for _, s := range spanMetrics {
		if n := lt.count[s.span]; n > 0 {
			fmt.Printf("    %-50s %6d %10.3f %10.3f\n", s.span, n, ms(lt.total[s.span]), ms(lt.self[s.span]))
		}
	}
}
