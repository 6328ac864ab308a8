package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"
)

// cpuMillis returns the process's user+system CPU time so far, in ms.
func cpuMillis() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e3 + float64(t.Usec)/1e3 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// sampler polls the process's resident memory — and any gauges handed to it —
// at a fixed rate on one goroutine, keeping the memory samples and the
// gauges' maxima. It reads
// /proc/self/statm through one open file into a fixed buffer, so sampling
// adds no garbage to the phase it watches.
//
// Resident memory is counted without file-backed pages (statm's resident
// minus shared): the read-back path maps whole segment files, and how many of
// those page-cache pages happen to be resident at a sampling instant is the
// kernel's read-ahead at work, not memory the program holds.
type sampler struct {
	stop chan struct{}
	done sync.WaitGroup

	statm  *os.File
	gauges []func() float64

	rss      []float64 // MB, one per sample
	gaugeMax []float64
}

const sampleEvery = 100 * time.Millisecond

func startSampler(gauges ...func() float64) *sampler {
	s := &sampler{stop: make(chan struct{}), gauges: gauges, gaugeMax: make([]float64, len(gauges)), rss: make([]float64, 0, 1024)}
	s.statm, _ = os.Open("/proc/self/statm") // nil file: no samples, and the run fails for want of an rss_mb reading
	s.sample()
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		tick := time.NewTicker(sampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				s.sample()
			}
		}
	}()
	return s
}

func (s *sampler) sample() {
	if s.statm != nil {
		var buf [128]byte
		n, _ := s.statm.ReadAt(buf[:], 0)
		if f := bytes.Fields(buf[:n]); len(f) > 2 {
			pages := atoi(f[1]) - atoi(f[2])
			s.rss = append(s.rss, float64(pages)*float64(os.Getpagesize())/1e6)
		}
	}
	for i, g := range s.gauges {
		if v := g(); v > s.gaugeMax[i] {
			s.gaugeMax[i] = v
		}
	}
}

// atoi parses an unsigned decimal without allocating.
func atoi(b []byte) (n int64) {
	for _, c := range b {
		n = n*10 + int64(c-'0')
	}
	return n
}

// finish takes a last sample and stops the goroutine; the samples and maxima
// are final once it returns.
func (s *sampler) finish() {
	close(s.stop)
	s.done.Wait()
	s.sample()
	if s.statm != nil {
		s.statm.Close()
	}
}

// hostHeader describes where the numbers were taken, for the output header.
func hostHeader(tmpDir string) []string {
	return []string{
		fmt.Sprintf("nproc=%d GOMAXPROCS=%d go=%s", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version()),
		"cpu=" + cpuModel(),
		"commit=" + commit(),
		fmt.Sprintf("tmpdir=%s fs=%s", tmpDir, fsType(tmpDir)),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is best effort: the driver's checkout is not a git repository.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext2/3/4"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}
