// Command perfbench is the repository benchmark. It measures the fragstudy
// CLI end to end, and replays the same work in process with a span around
// every call into a layer.
//
// Run it from the repository root through run.sh, which builds fragstudy
// and this program first:
//
//	bash perfbench/run.sh --workload eval-warm --seed 1 --seconds 10 --trace 0
//
// With --trace 0 one client runs the CLI in a closed loop, each round
// started when the previous one ended, and reports the end-to-end metrics.
// With --trace 1 the rounds are replayed serially in process and the
// per-layer metrics are reported. The last line of standard output is the
// result as one JSON object; the lines before it list every metric with its
// unit and sample count, and the host the run measured.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// Paths relative to the repository root, where the benchmark runs.
const (
	binPath  = ".bench_build/bin/fragstudy"
	workRoot = ".bench_build/work"
)

const (
	// setupReps is how many times a run repeats its set-up; setup_s is the
	// median.
	setupReps = 7
	// minRounds bounds a run from below when rounds are slow.
	minRounds = 5
	// familyApps sizes the family-lint corpus.
	familyApps = 2000
	// maxTraceCycles caps a traced run's cycles. Every in-process evaluation
	// pins its freshly loaded apps in session.appFPs, about 1.2 MB per
	// evaluation, so an uncapped 30-second eval-warm run would retain close
	// to 1 GB; 40 cycles (about 120 evaluations) retain about 150 MB and
	// still show it.
	maxTraceCycles = 40
)

// workload is one CLI workflow the benchmark measures.
type workload struct {
	name string
	// apps is the number of apps one round finishes.
	apps int
	// store makes every round read the store the set-up filled; otherwise
	// each round gets an empty work dir.
	store bool
	// args is the CLI invocation for seed, with dir as its work dir.
	args func(seed int64, dir string) []string
	// reference, when set, is an untimed invocation whose output every
	// round must reproduce.
	reference func(seed int64) []string
	// outFile names the round's output in the work dir; empty means stdout.
	outFile string
	verify  func(out, ref []byte) error
	replay  func(seed int64) replayer
}

var workloads = []*workload{
	{
		name:  "eval-warm",
		apps:  15,
		store: true,
		args: func(seed int64, dir string) []string {
			return []string{"-table1", "-table2", "-seed", itoa(seed), "-cache", dir}
		},
		verify: func(out, _ []byte) error { return verifyEval(out) },
		replay: func(seed int64) replayer { return &evalWarm{seed: seed} },
	},
	{
		name: "family-lint",
		apps: familyApps,
		args: func(seed int64, _ string) []string {
			return []string{"-lint", "-corpus", "family", "-n", strconv.Itoa(familyApps), "-seed", itoa(seed), "-stream", "-cache", "off"}
		},
		reference: func(seed int64) []string {
			return []string{"-lint", "-corpus", "family", "-n", strconv.Itoa(familyApps), "-seed", itoa(seed), "-cache", "off"}
		},
		verify: verifyLint,
		replay: func(seed int64) replayer { return &familyLint{seed: seed, n: familyApps} },
	},
	{
		name:    "directed",
		apps:    15,
		outFile: "directed.json",
		args: func(seed int64, dir string) []string {
			return []string{"-directed", "-cache", "off", "-seed", itoa(seed), "-directedjson", filepath.Join(dir, "directed.json")}
		},
		verify: func(out, _ []byte) error { return verifyDirected(out) },
		replay: func(seed int64) replayer { return &directed{seed: seed} },
	},
}

func itoa(v int64) string { return strconv.FormatInt(v, 10) }

// metric is one reported value in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload to run: eval-warm, family-lint or directed")
		seed    = fs.Int64("seed", 1, "workload seed")
		seconds = fs.Int("seconds", 10, "how long the measured rounds run")
		trace   = fs.Int("trace", 0, "0: timed CLI rounds (end-to-end metrics); 1: traced in-process replay (per-layer metrics)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var w *workload
	for _, cand := range workloads {
		if cand.name == *name {
			w = cand
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1, got %d", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace takes 0 or 1, got %d", *trace)
	}
	if _, err := os.Stat(binPath); err != nil {
		return fmt.Errorf("fragstudy binary missing (run through perfbench/run.sh from the repository root): %w", err)
	}
	dir := filepath.Join(workRoot, w.name)
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	fmt.Printf("workload %s seed %d seconds %d trace %d\n", w.name, *seed, *seconds, *trace)
	b := &bench{w: w, seed: *seed, dir: dir, budget: time.Duration(*seconds) * time.Second}
	var res result
	var err error
	if *trace == 0 {
		res, err = b.timed()
	} else {
		res, err = b.traced()
	}
	if err != nil {
		return err
	}
	// The host record comes last: its calibration loop allocates, and a
	// child's maxrss includes this process's high-water mark (see runCLI).
	host, err := json.Marshal(hostInfo(dir))
	if err != nil {
		return err
	}
	fmt.Printf("host %s\n", host)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
