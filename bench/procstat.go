package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"sync"
	"time"
)

// CPU and memory of the benchmark process and everything it started
// (daemons, the job server), read from /proc/<pid>/stat so that work moved
// into a child process still shows.

// userHz is the kernel's USER_HZ, the unit of utime/stime in /proc stat;
// Linux fixes it at 100 for userspace on every architecture Go supports.
const userHz = 100

// procStat is the slice of /proc/<pid>/stat the benchmark needs.
type procStat struct {
	pid, ppid int
	cpuTicks  uint64 // utime + stime
	rssPages  int64
}

// parseStat parses one /proc/<pid>/stat line. The command name (field 2)
// may hold spaces and parentheses, so fields are counted from the last ')'.
func parseStat(line []byte) (procStat, error) {
	open := bytes.IndexByte(line, '(')
	closing := bytes.LastIndexByte(line, ')')
	if open < 0 || closing < open {
		return procStat{}, fmt.Errorf("stat: no command field in %q", line)
	}
	var st procStat
	var err error
	if st.pid, err = strconv.Atoi(string(bytes.TrimSpace(line[:open]))); err != nil {
		return procStat{}, fmt.Errorf("stat: pid: %w", err)
	}
	f := bytes.Fields(line[closing+1:]) // f[0] is field 3 (state)
	const need = 22                     // through field 24 (rss)
	if len(f) < need {
		return procStat{}, fmt.Errorf("stat: %d fields after command, need %d", len(f), need)
	}
	if st.ppid, err = strconv.Atoi(string(f[1])); err != nil {
		return procStat{}, fmt.Errorf("stat: ppid: %w", err)
	}
	utime, err1 := strconv.ParseUint(string(f[11]), 10, 64)
	stime, err2 := strconv.ParseUint(string(f[12]), 10, 64)
	rss, err3 := strconv.ParseInt(string(f[21]), 10, 64)
	if err1 != nil || err2 != nil || err3 != nil {
		return procStat{}, fmt.Errorf("stat: bad utime/stime/rss in %q", line)
	}
	st.cpuTicks = utime + stime
	st.rssPages = rss
	return st, nil
}

// readProcs snapshots every live process. Processes that exit mid-scan are
// skipped.
func readProcs() []procStat {
	ents, err := os.ReadDir("/proc")
	if err != nil {
		return nil
	}
	var out []procStat
	for _, e := range ents {
		if c := e.Name()[0]; c < '0' || c > '9' {
			continue
		}
		line, err := os.ReadFile("/proc/" + e.Name() + "/stat")
		if err != nil {
			continue
		}
		if st, err := parseStat(line); err == nil {
			out = append(out, st)
		}
	}
	return out
}

// family picks root and all its live descendants out of a snapshot.
func family(procs []procStat, root int) []procStat {
	children := make(map[int][]procStat)
	var out []procStat
	for _, p := range procs {
		children[p.ppid] = append(children[p.ppid], p)
		if p.pid == root {
			out = append(out, p)
		}
	}
	for i := 0; i < len(out); i++ {
		out = append(out, children[out[i].pid]...)
	}
	return out
}

// usage is the family's summed CPU time and resident memory right now.
type usage struct {
	cpu   time.Duration
	rssMB float64
	procs int
}

func familyUsage(root int) usage {
	var u usage
	var ticks uint64
	var pages int64
	for _, p := range family(readProcs(), root) {
		ticks += p.cpuTicks
		pages += p.rssPages
		u.procs++
	}
	u.cpu = time.Duration(ticks) * time.Second / userHz
	u.rssMB = float64(pages) * float64(os.Getpagesize()) / (1 << 20)
	return u
}

// sampler watches the family for one timed window: CPU as end minus start,
// memory as the highest 10 Hz sample.
type sampler struct {
	root   int
	start  usage
	stop   chan struct{}
	done   sync.WaitGroup
	peakMB float64
}

func startSampler(root int) *sampler {
	s := &sampler{root: root, start: familyUsage(root), stop: make(chan struct{})}
	s.peakMB = s.start.rssMB
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				if mb := familyUsage(s.root).rssMB; mb > s.peakMB {
					s.peakMB = mb
				}
			}
		}
	}()
	return s
}

// finish stops sampling and returns the window's CPU time and peak RSS.
func (s *sampler) finish() (cpu time.Duration, peakMB float64) {
	close(s.stop)
	s.done.Wait()
	end := familyUsage(s.root)
	if end.rssMB > s.peakMB {
		s.peakMB = end.rssMB
	}
	return end.cpu - s.start.cpu, s.peakMB
}
