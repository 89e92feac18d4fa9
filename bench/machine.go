package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// machine is carried by every report, so a number can be read against the
// box and the load it was taken under.
type machine struct {
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Kernel     string  `json:"kernel"`
	Commit     string  `json:"commit"`
	LoadStart  float64 `json:"load1_start"`
	LoadEnd    float64 `json:"load1_end"`
}

// load1 reads the 1-minute load average (-1 when unavailable).
func load1() float64 {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return -1
	}
	f := strings.Fields(string(data))
	if len(f) == 0 {
		return -1
	}
	v, err := strconv.ParseFloat(f[0], 64)
	if err != nil {
		return -1
	}
	return v
}

// repoRoot finds the directory holding BENCHMARK.json: the given one, the
// working directory, or its parent (the benchmark runs from bench/ or from
// the repository root).
func repoRoot(given string) string {
	for _, dir := range []string{given, ".", ".."} {
		if dir == "" {
			continue
		}
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir
		}
	}
	return "."
}

func machineAtStart(root string) *machine {
	m := &machine{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     "unknown",
		Commit:     "unknown",
		LoadStart:  load1(),
		LoadEnd:    -1,
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		m.Kernel = strings.TrimSpace(string(data))
	}
	// The driver's checkout is not a git repository; the hash is a courtesy
	// for runs made by hand.
	if out, err := exec.Command("git", "-C", repoRoot(root), "rev-parse", "--short", "HEAD").Output(); err == nil {
		m.Commit = strings.TrimSpace(string(out))
	}
	return m
}

func (m *machine) finish() { m.LoadEnd = load1() }

func (m *machine) print(w io.Writer) {
	fmt.Fprintf(w, "machine: %d CPUs, GOMAXPROCS %d, %s, kernel %s, commit %s, load1 %.2f\n",
		m.NumCPU, m.GOMAXPROCS, m.GoVersion, m.Kernel, m.Commit, m.LoadStart)
	if m.LoadStart > float64(m.NumCPU)/2 {
		fmt.Fprintf(w, "WARNING: starting load average %.2f exceeds nproc/2 = %.1f; timings will drift\n",
			m.LoadStart, float64(m.NumCPU)/2)
	}
}
