package main

import (
	"bytes"
	"os"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"
)

// rssInterval is how often the sampler reads the resident set size. The Go
// runtime returns freed heap to the OS gradually, so resident memory rarely
// falls within one interval and the sampled maximum tracks the peak.
const rssInterval = 5 * time.Millisecond

// rssSampler tracks the peak resident set size of the process while it
// runs, from /proc/self/statm. Where that file cannot be read it falls
// back to getrusage's lifetime maximum.
type rssSampler struct {
	stop chan struct{}
	done chan struct{}
	peak atomic.Int64
}

func startRSSSampler() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	f, err := os.Open("/proc/self/statm")
	if err != nil {
		close(s.done)
		return s
	}
	s.sample(f)
	go func() {
		defer close(s.done)
		defer f.Close()
		t := time.NewTicker(rssInterval)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				s.sample(f)
				return
			case <-t.C:
				s.sample(f)
			}
		}
	}()
	return s
}

func (s *rssSampler) sample(f *os.File) {
	var buf [128]byte
	n, _ := f.ReadAt(buf[:], 0) // procfs reports io.EOF with the data
	fields := bytes.Fields(buf[:n])
	if len(fields) < 2 {
		return
	}
	pages, err := strconv.ParseInt(string(fields[1]), 10, 64)
	if err != nil {
		return
	}
	if rss := pages * int64(os.Getpagesize()); rss > s.peak.Load() {
		s.peak.Store(rss)
	}
}

// stopBytes ends sampling and returns the peak resident bytes seen.
func (s *rssSampler) stopBytes() int64 {
	select {
	case <-s.done: // never started: no /proc
		var ru syscall.Rusage
		if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
			return ru.Maxrss * 1024 // Linux reports KiB
		}
		return 0
	default:
	}
	close(s.stop)
	<-s.done
	return s.peak.Load()
}
