package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0..100) of v by linear
// interpolation between closest ranks; v need not be sorted. An empty
// sample has no percentile and reads 0.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	rank := p / 100 * float64(len(s)-1)
	lo := int(rank)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := rank - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(v []float64) float64 { return percentile(v, 50) }

// iqrShare is the distance between the first and third quartile as a share
// of the median — the run-to-run spread -compare holds against a bound.
// Fewer than four values carry no quartiles and read 0.
func iqrShare(v []float64) float64 {
	if len(v) < 4 {
		return 0
	}
	m := median(v)
	if m == 0 {
		return 0
	}
	return (percentile(v, 75) - percentile(v, 25)) / m
}

// digestOf folds a repetition's simulated statistics into a short hex
// string. Two repetitions simulated identically exactly when their digests
// are equal; the formatted value keeps every field, so any counter that
// moves changes the digest.
func digestOf(fields any) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", fields)))
	return hex.EncodeToString(sum[:8])
}

// stopwatch brackets a host-timed section with the heap-object count, so
// every timed section also yields allocations.
type stopwatch struct {
	t0      time.Time
	mallocs uint64
}

// sample is what a stopwatch measured.
type sample struct {
	elapsed time.Duration
	mallocs uint64
}

func startWatch() stopwatch {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return stopwatch{t0: time.Now(), mallocs: ms.Mallocs}
}

func (w stopwatch) stop() sample {
	el := time.Since(w.t0)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return sample{elapsed: el, mallocs: ms.Mallocs - w.mallocs}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
