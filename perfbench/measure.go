package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"
)

// host names the machine a report was measured on. Wall-time metrics
// from two different hosts are not comparable; compare flags them.
type host struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func currentHost() host {
	return host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
	}
}

// sameMachine reports whether wall times measured on a and b may be
// compared: same core counts and CPU model (the commit may differ).
func (h host) sameMachine(o host) bool {
	return h.NumCPU == o.NumCPU && h.GOMAXPROCS == o.GOMAXPROCS && h.CPUModel == o.CPUModel
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit is the VCS revision stamped into the binary when it was built
// inside a git checkout, else a SHA-256 over the module's Go sources and
// go.mod files under the working directory ("tree:<hex>"), so exported
// source trees still get a stable identity.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" && dirty {
			return rev + "+dirty"
		}
		if rev != "" {
			return rev
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, path+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return "tree:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// Runtime metrics read around a timed window.
const (
	mAllocBytes = "/gc/heap/allocs:bytes"
	mGCCycles   = "/gc/cycles/total:gc-cycles"
	mGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
	mTotalCPU   = "/cpu/classes/total:cpu-seconds"
	mLiveHeap   = "/gc/heap/live:bytes"
)

// runtimeSnap is one reading of the runtime counters.
type runtimeSnap struct {
	allocBytes, gcCycles uint64
	gcCPU, totalCPU      float64
	cpu                  time.Duration
}

func readRuntime() runtimeSnap {
	s := []metrics.Sample{{Name: mAllocBytes}, {Name: mGCCycles}, {Name: mGCCPU}, {Name: mTotalCPU}}
	metrics.Read(s)
	return runtimeSnap{
		allocBytes: s[0].Value.Uint64(),
		gcCycles:   s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
		cpu:        cpuTime(),
	}
}

func liveHeap() uint64 {
	s := []metrics.Sample{{Name: mLiveHeap}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// window is what the process spent between two readings.
type window struct {
	start, end runtimeSnap
	// peakLive is the median, over heapSlices equal slices of the window,
	// of the highest live heap in each. The overall highest is one GC
	// cycle's reading, and which cycle catches a frame's transient buffers
	// live varies from run to run by a tenth.
	peakLive uint64
}

const heapSlices = 8

func (w window) cpuMs() float64 { return float64(w.end.cpu-w.start.cpu) / 1e6 }
func (w window) allocBytes() float64 {
	return float64(w.end.allocBytes - w.start.allocBytes)
}
func (w window) gcCycles() float64 { return float64(w.end.gcCycles - w.start.gcCycles) }
func (w window) gcCPUShare() float64 {
	total := w.end.totalCPU - w.start.totalCPU
	if total <= 0 {
		return 0
	}
	return (w.end.gcCPU - w.start.gcCPU) / total
}

// heapWatch polls the live heap (as marked by the last GC) while a window
// is open. The runtime updates the figure once per GC cycle, so a 5ms
// poll sees every value it takes.
type heapWatch struct {
	stop  chan struct{}
	done  chan struct{}
	start time.Time
	// readings holds each value the live heap took and when; written
	// only by the polling goroutine until done closes.
	readings []heapReading
}

type heapReading struct {
	at   time.Duration // since start
	live uint64
}

func watchHeap() *heapWatch {
	hw := &heapWatch{stop: make(chan struct{}), done: make(chan struct{}), start: time.Now()}
	hw.readings = []heapReading{{0, liveHeap()}}
	go func() {
		defer close(hw.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-hw.stop:
				return
			case <-t.C:
				if v := liveHeap(); v != hw.readings[len(hw.readings)-1].live {
					hw.readings = append(hw.readings, heapReading{time.Since(hw.start), v})
				}
			}
		}
	}()
	return hw
}

// end stops the poller, waits for it and returns its slicedPeak.
func (hw *heapWatch) end() uint64 {
	close(hw.stop)
	<-hw.done
	span := time.Since(hw.start)
	return slicedPeak(append(hw.readings, heapReading{span, liveHeap()}), span)
}

// slicedPeak cuts span into heapSlices equal slices and returns the
// median of the highest reading in each; a slice in which the value did
// not change has the value in force. readings are in time order, the
// first at 0.
func slicedPeak(readings []heapReading, span time.Duration) uint64 {
	peaks := make([]float64, heapSlices)
	in := 0 // the reading in force at the current slice's start
	for k := range peaks {
		from, to := span*time.Duration(k)/heapSlices, span*time.Duration(k+1)/heapSlices
		for in+1 < len(readings) && readings[in+1].at <= from {
			in++
		}
		peak := readings[in].live
		for _, r := range readings[in+1:] {
			if r.at > to {
				break
			}
			peak = max(peak, r.live)
		}
		peaks[k] = float64(peak)
	}
	return uint64(median(peaks))
}

type windowTimer struct {
	start runtimeSnap
	heap  *heapWatch
}

// openWindow starts a timed window; close it with (*windowTimer).close.
func openWindow() *windowTimer {
	return &windowTimer{start: readRuntime(), heap: watchHeap()}
}

func (t *windowTimer) close() window {
	end := readRuntime()
	return window{start: t.start, end: end, peakLive: t.heap.end()}
}

// settleHeap runs two full collections (the second frees what the
// first's finalizers released) and returns the live heap: the baseline
// that peak heap is measured above.
func settleHeap() uint64 {
	runtime.GC()
	runtime.GC()
	return liveHeap()
}
