// Command e2ebench is LedgerDB's end-to-end benchmark. It runs real
// clients over loopback HTTP against a disk-backed primary in a separate
// host process, verifies every receipt and proof on the client side,
// and checks after each run that every receipted record survived a
// clean close and reopen.
//
// Usage, from the repository root:
//
//	bash e2ebench/run.sh --workload append|verify|mixed --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones; with --trace 1 the workload runs twice, untraced
// and traced, and the metrics are the per-layer ones plus the tracing
// overhead. The command exits non-zero on any failed operation or check.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"maps"
	"os"
	"slices"
	"strings"
)

func main() {
	var err error
	if len(os.Args) > 1 && os.Args[1] == "host" {
		err = hostMain(os.Args[2:])
	} else {
		err = driverMain(os.Args[1:])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

// options are the driver's command-line settings.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	setups   int
	work     string // scratch directory for data and spans
}

// history is how many records the verify and mixed set-ups preload.
const history = 50000

var workloads = []string{"append", "verify", "mixed"}

func driverMain(args []string) error {
	fl := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	o := options{}
	fl.StringVar(&o.workload, "workload", "", "append, verify or mixed")
	fl.Uint64Var(&o.seed, "seed", 1, "input seed")
	fl.Float64Var(&o.seconds, "seconds", 10, "length of the timed phase")
	trace := fl.Int("trace", 0, "1: report per-layer metrics from a traced run")
	if err := fl.Parse(args); err != nil {
		return err
	}
	if !slices.Contains(workloads, o.workload) {
		return fmt.Errorf("unknown --workload %q (want one of %s)", o.workload, strings.Join(workloads, ", "))
	}
	if o.seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	o.trace = *trace == 1
	// Runs start from the checkout's root; all they write stays under
	// .bench_build/ there.
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(".bench_build", "e2ebench-run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	o.work = work

	meta, err := collectMeta(o)
	if err != nil {
		return err
	}
	line, _ := json.Marshal(meta)
	fmt.Println("meta", string(line))

	var out result
	if o.trace {
		out, err = runTraced(o)
	} else {
		out, err = runUntraced(o)
	}
	if err != nil {
		return err
	}
	printResult(out)
	if !out.Correct {
		return fmt.Errorf("%d of %d operations or checks failed", out.Failed, out.Attempted)
	}
	return nil
}

// metric is one reported figure.
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

func runUntraced(o options) (result, error) {
	o.setups = defaultSetups(o.workload)
	r, err := runWorkload(o, false)
	if err != nil {
		return result{}, err
	}
	m := endToEnd(o.workload, r)
	printTable("end-to-end", m)
	for _, name := range unbounded {
		delete(m, name)
	}
	return result{Correct: r.failedOps() == 0, Attempted: r.attempted(), Failed: r.failedOps(), Metrics: m}, nil
}

// runTraced runs the workload once untraced and once traced, each from a
// fresh set-up. It reports the per-layer metrics of the traced run, how
// far tracing moved each end-to-end figure, and the untraced run's
// unbounded tail latencies.
func runTraced(o options) (result, error) {
	o.setups = 1
	plain, err := runWorkload(o, false)
	if err != nil {
		return result{}, err
	}
	traced, err := runWorkload(o, true)
	if err != nil {
		return result{}, err
	}
	e2ePlain, e2eTraced := endToEnd(o.workload, plain), endToEnd(o.workload, traced)
	m := layerMetrics(traced)
	fmt.Printf("%-28s %14s %14s %10s\n", "end-to-end", "untraced", "traced", "overhead")
	for _, name := range slices.Sorted(maps.Keys(e2ePlain)) {
		if name == "setup_s" {
			continue
		}
		p, t := e2ePlain[name].Value, e2eTraced[name].Value
		ov := 0.0
		if p != 0 {
			ov = t/p - 1
		}
		m["overhead."+name] = metric{ov, "ratio"}
		fmt.Printf("%-28s %14.4f %14.4f %+9.1f%%  %s\n", name, p, t, 100*ov, e2ePlain[name].Unit)
	}
	for _, name := range unbounded {
		m[name] = e2ePlain[name]
	}
	attempted, failed := plain.attempted()+traced.attempted(), plain.failedOps()+traced.failedOps()
	m["error_ratio"] = metric{float64(failed) / float64(max(attempted, 1)), "ratio"}
	printTable("per-layer (traced run)", m)
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// defaultSetups is how many times a run sets the system up to report
// the median set-up time. The verify and mixed set-ups preload 50 000
// records, which is work enough for one sample to be steady, and
// repeating it would not fit the benchmark's time budget.
func defaultSetups(workload string) int {
	if workload == "append" {
		return 5
	}
	return 1
}

func printTable(title string, m map[string]metric) {
	fmt.Printf("%s:\n", title)
	for _, name := range slices.Sorted(maps.Keys(m)) {
		fmt.Printf("  %-44s %16.4f %s\n", name, m[name].Value, m[name].Unit)
	}
}

func printResult(r result) {
	line, _ := json.Marshal(r)
	fmt.Println(string(line))
}
