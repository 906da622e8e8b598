// Command perfbench is iokast's end-to-end benchmark. It drives iokserve
// processes over loopback HTTP through one of two workloads, checks
// their answers, and prints the end-to-end metrics; with -trace 1 it
// instead replays the same workload inputs in-process through each layer's
// public functions and prints per-layer metrics. run.sh builds both
// binaries and invokes it; README.md describes the workloads and metrics.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": u}, ...}}
//
// A human-readable report goes to standard error, and a detailed JSON
// report (and, for traced runs, every span) to <workdir>/reports.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
)

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: ingest-durable or sharded-mixed")
	seed := flag.Uint64("seed", 1, "seed every input is generated from")
	seconds := flag.Int("seconds", 10, "work size: each workload does a fixed amount of work sized to take about this long")
	traced := flag.Int("trace", 0, "0: end-to-end metrics against iokserve; 1: per-layer metrics from an in-process traced replay")
	bin := flag.String("server", "", "path of the iokserve binary")
	workdir := flag.String("workdir", "", "directory for data directories, logs and reports")
	flag.Parse()

	w, err := lookupWorkload(*name)
	if err != nil {
		fatal(err)
	}
	if *workdir == "" || *seconds < 1 || (*traced != 0 && *traced != 1) || (*traced == 0 && *bin == "") {
		fatal(fmt.Errorf("need -workdir, -seconds >= 1, -trace 0|1, and -server for -trace 0"))
	}

	// The servers die with this process (Pdeathsig); an interrupt still
	// reaps them first so no data directory is left in use.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killAll()
		os.Exit(1)
	}()

	dir := filepath.Join(*workdir, fmt.Sprintf("%s-%d-%d", w.name, *seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	defer os.RemoveAll(dir)

	var (
		rep *report
		t   *tally
	)
	if *traced == 1 {
		tr, err := runTraced(w, *seed, *seconds, dir)
		if err != nil {
			killAll()
			fatal(err)
		}
		rep, t = &tr.rep, &tr.t
	} else {
		run, err := runE2E(w, *seed, *seconds, *bin, dir)
		if err != nil {
			killAll()
			fatal(err)
		}
		rep, t = &run.rep, &run.t
	}
	rep.Failures = t.first

	correct := t.failed == 0
	for _, v := range rep.Checks {
		if strings.HasPrefix(v, "FAIL") {
			correct = false
		}
	}
	printReport(rep, t, correct)
	if err := writeReport(filepath.Join(*workdir, "reports"), rep, *traced); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: writing report: %v\n", err)
	}
	out, err := json.Marshal(result{Correct: correct, Attempted: max(t.attempted, 1), Failed: t.failed, Metrics: rep.Metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

func writeReport(dir string, rep *report, traced int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-%d-trace%d.json", rep.Workload, rep.Seed, traced)), b, 0o644)
}

func printReport(rep *report, t *tally, correct bool) {
	f := os.Stderr
	fmt.Fprintf(f, "workload %s  seed %d  seconds %d  load: %s\n", rep.Workload, rep.Seed, rep.Seconds, rep.Load)
	if rep.Completed > 0 {
		fmt.Fprintf(f, "timed phase: %d requests in %.3fs, server CPU %.0fms\n", rep.Completed, rep.PhaseS, rep.CPUms)
	}
	ops := sortedKeys(rep.Endpoints)
	for _, op := range ops {
		e := rep.Endpoints[op]
		fmt.Fprintf(f, "  %-10s n=%-6d p50 %8.3fms  p90 %8.3fms (%d beyond)  p99 %8.3fms (%d beyond%s)\n",
			op, e.N, e.P50.Value, e.P90.Value, e.P90.Beyond, e.P99.Value, e.P99.Beyond, unsupported(e.P99))
	}
	if rep.LateMs != nil {
		fmt.Fprintf(f, "  generator lateness p99 %.3fms over %d requests\n", rep.LateMs.Value, rep.LateMs.N)
	}
	if rep.Recall > 0 {
		fmt.Fprintf(f, "recall@10 of the default rerank %.3f; peak RSS %.1f MB\n", rep.Recall, rep.HWMmb)
	}
	if len(rep.SetupS) > 0 {
		fmt.Fprintf(f, "set-up %v s, restart %v s\n", fmtList(rep.SetupS), fmtList(rep.RestartS))
	}
	for _, k := range sortedKeys(rep.Work) {
		fmt.Fprintf(f, "  work/op %-36s %.4f\n", k, rep.Work[k])
	}
	if rep.WorkRepeat != "" {
		fmt.Fprintf(f, "work counts: %s\n", rep.WorkRepeat)
	}
	for _, k := range sortedKeys(rep.LayerShares) {
		fmt.Fprintf(f, "  share of serve.classify_handler_us  %-24s %5.1f%%\n", k, 100*rep.LayerShares[k])
	}
	for _, k := range sortedKeys(rep.Checks) {
		fmt.Fprintf(f, "check %-18s %s\n", k, rep.Checks[k])
	}
	for _, k := range sortedKeys(rep.Metrics) {
		m := rep.Metrics[k]
		fmt.Fprintf(f, "  %-32s %14.4f %s\n", k, m.Value, m.Unit)
	}
	for _, s := range t.first {
		fmt.Fprintf(f, "failure: %s\n", s)
	}
	fmt.Fprintf(f, "attempted %d failed %d correct %v\n", t.attempted, t.failed, correct)
}

func unsupported(p Percentile) string {
	if p.Supported() {
		return ""
	}
	return ", too few to report"
}

func fmtList(xs []float64) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = fmt.Sprintf("%.3f", x)
	}
	return "[" + strings.Join(s, " ") + "]"
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
