package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// A/A mode: run one workload N times on the same code, each run a fresh
// process with the next seed (as the driver does), and hold every
// end-to-end metric to the bound BENCHMARK.json records for it.

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(root string) (*benchmarkFile, error) {
	data, err := os.ReadFile(filepath.Join(repoRoot(root), "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

// lastLine returns the final non-empty line of a run's standard output.
func lastLine(out []byte) string {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if s := strings.TrimSpace(sc.Text()); s != "" {
			last = s
		}
	}
	return last
}

// aaVerdict judges one metric's runs against its bound. The driver's rule
// is the interquartile distance over the median; it also wants that below
// a third of the bound to call the benchmark steady.
func aaVerdict(xs []float64, bound float64) (sp float64, verdict string) {
	sp = spread(xs)
	switch {
	case sp > bound:
		return sp, "FAIL"
	case sp > bound/3:
		return sp, "loose"
	}
	return sp, "ok"
}

func runAA(o *options, stdout, stderr io.Writer) int {
	bf, err := readBenchmarkFile(o.root)
	if err != nil {
		fmt.Fprintf(stderr, "bench: -aa needs the recorded bounds: %v\n", err)
		return 1
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	// Each run is a fresh process, as under the driver; pass on where the
	// tools are so no run rebuilds them.
	e, cleanup, _, err := prepare(o, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	defer cleanup()
	child := []string{"-workload", o.workload, "-seconds", strconv.Itoa(o.seconds), "-jobs", strconv.Itoa(o.jobs),
		"-trace", "0", "-dsmtxd", e.dsmtxd, "-workdir", e.workdir, "-root", o.root}
	runs := make(map[string][]float64)
	failed := 0
	for r := 0; r < o.aa; r++ {
		seed := o.seed + uint64(r)
		cmd := exec.Command(self, append(child, "-seed", strconv.FormatUint(seed, 10))...)
		cmd.Stderr = stderr
		out, err := cmd.Output()
		var res result
		if jerr := json.Unmarshal([]byte(lastLine(out)), &res); jerr != nil {
			fmt.Fprintf(stderr, "bench: run %d (seed %d) printed no result: %v %v\n", r, seed, err, jerr)
			return 1
		}
		failed += res.Failed
		fmt.Fprintf(stdout, "run %2d seed %-4d failed %d/%d", r, seed, res.Failed, res.Attempted)
		for _, d := range endToEnd {
			v := res.Metrics[d.name].Value
			runs[d.name] = append(runs[d.name], v)
			fmt.Fprintf(stdout, "  %s %.4g", d.name, v)
		}
		fmt.Fprintln(stdout)
	}
	fmt.Fprintf(stdout, "\nA/A %s: %d runs, seeds %d..%d\n", o.workload, o.aa, o.seed, o.seed+uint64(o.aa)-1)
	fmt.Fprintf(stdout, "%-16s %-5s %12s %12s %12s %8s %8s %6s  %s\n",
		"metric", "unit", "q1", "median", "q3", "iqr/med", "max-pair", "bound", "verdict")
	status := 0
	for _, m := range bf.EndToEnd {
		xs := runs[m.Name]
		if len(xs) == 0 {
			fmt.Fprintf(stdout, "%-16s not produced by this binary\n", m.Name)
			status = 1
			continue
		}
		q1, q2, q3 := quartiles(xs)
		sp, verdict := aaVerdict(xs, m.Bound)
		if m.Name == "setup_s" && verdict == "FAIL" {
			verdict = "wide" // the driver gates setup_s on its medians only
		}
		if verdict == "FAIL" {
			status = 1
		}
		fmt.Fprintf(stdout, "%-16s %-5s %12.4f %12.4f %12.4f %7.2f%% %7.2f%% %5.0f%%  %s\n",
			m.Name, m.Unit, q1, q2, q3, 100*sp, 100*maxPairwise(xs), 100*m.Bound, verdict)
	}
	if failed > 0 {
		fmt.Fprintf(stdout, "FAIL: %d jobs failed their correctness gate\n", failed)
		status = 1
	}
	return status
}
