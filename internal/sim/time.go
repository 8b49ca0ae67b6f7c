// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel advances a virtual clock by executing events in timestamp order.
// Simulated threads (Procs) are goroutines that run strictly one at a time,
// hand control back to the kernel whenever they consume virtual time or block
// on a synchronization primitive, and therefore need no real locking: all
// state touched by Procs is effectively single-threaded. Runs are fully
// deterministic — ties in the event queue break by insertion order — which
// makes every experiment in this repository reproducible bit-for-bit.
package sim

import "fmt"

// Time is a point in (or span of) virtual time, in nanoseconds.
type Time int64

// Common spans of virtual time.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// String formats the time with a human-friendly unit.
func (t Time) String() string {
	switch {
	case t < 0:
		return "-" + (-t).String()
	case t < Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case t < Millisecond:
		return fmt.Sprintf("%.2fus", float64(t)/float64(Microsecond))
	case t < Second:
		return fmt.Sprintf("%.2fms", float64(t)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	}
}

// Seconds returns the time as a floating-point number of virtual seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }
