package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// settle brings the process's memory to the same state before every
// job, off the clock. It returns freed heap to the OS and resets the
// kernel's resident-set high-water mark (VmHWM), so the next peakRSS
// reading covers only what runs in between.
func settle() error {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset VmHWM: %w", err)
	}
	return nil
}

// peakRSS reads VmHWM from /proc/self/status, in bytes.
func peakRSS() (int64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := sc.Text()
		if len(line) < 6 || line[:6] != "VmHWM:" {
			continue
		}
		var kb int64
		if _, err := fmt.Sscanf(line[6:], "%d", &kb); err != nil {
			return 0, fmt.Errorf("parse %q: %w", line, err)
		}
		return kb << 10, nil
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// dirBytes sums the sizes of the regular files under dir. A file
// removed while the walk runs counts as gone.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks (xs need not be sorted; it is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// cpuTicks reads the machine-wide CPU tick counters from /proc/stat:
// the total over all states, and the share stolen by the hypervisor.
func cpuTicks() (total, steal int64, err error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := bytes.Cut(data, []byte("\n"))
	fields := bytes.Fields(line)
	if len(fields) < 9 || string(fields[0]) != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseInt(string(f), 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("parse /proc/stat: %w", err)
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal, nil
}
