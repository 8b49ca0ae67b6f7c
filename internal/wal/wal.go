// Package wal implements a per-instance write-ahead log in the style of
// Shore-MT: a single insertion mutex protecting a log buffer, monotonically
// increasing LSNs, and a group-commit flush daemon. Committing transactions
// (and 2PC participants writing prepare records) wait until the durable LSN
// covers their last record.
//
// The insertion mutex and the buffer-head cache line are the classic
// shared-everything serialization points: with workers spread over many
// sockets the head line ping-pongs across the interconnect, which is exactly
// the effect the paper measures (and Aether-style consolidation mitigates;
// see the Consolidate option).
package wal

import (
	"islands/internal/exec"
	"islands/internal/mem"
	"islands/internal/sim"
	"islands/internal/storage"
)

// LSN is a byte offset into the log.
type LSN uint64

// RecType discriminates log records.
type RecType uint8

// Log record types.
const (
	RecUpdate RecType = iota
	RecCommit
	RecAbort
	RecPrepare // 2PC participant vote record (forced)
	RecEnd     // 2PC coordinator end record
	RecDistCommit
	RecDistAbort
)

var recTypeNames = map[RecType]string{
	RecUpdate: "update", RecCommit: "commit", RecAbort: "abort",
	RecPrepare: "prepare", RecEnd: "end",
	RecDistCommit: "dist-commit", RecDistAbort: "dist-abort",
}

func (t RecType) String() string { return recTypeNames[t] }

// Record is a log record. An update or insert names the row it wrote —
// table, key and the slot it holds on the key's page — and carries the
// row's new version: a row is its table's synthesized image with the
// version written in, so the version is all redo needs. ImageBytes is the
// length of the row's after-image, the payload that sizes the record in the
// log; WireBytes, when non-zero, overrides it: physiological
// logging writes a small diff (e.g. a counter update) rather than full
// images, and the paper's update microbenchmark modifies only a few bytes
// per row. Records are kept only when the manager's Retain option is set.
type Record struct {
	LSN        LSN
	Type       RecType
	Slot       uint16
	Table      storage.TableID
	Txn        uint64
	Key        int64
	Version    uint64
	ImageBytes int
	WireBytes  int
}

const recHeaderBytes = 40

// Size returns the encoded size of the record in log bytes.
func (r *Record) Size() int {
	if r.WireBytes > 0 {
		return recHeaderBytes + r.WireBytes
	}
	return recHeaderBytes + r.ImageBytes
}

// Cost constants for log operations.
const (
	// CostInsertCPU is the fixed compute of reserving space and copying the
	// header.
	CostInsertCPU = 120 * sim.Nanosecond
	// CostPerByte is the copy cost per two payload bytes (~0.5 ns/B).
	CostPerByte = sim.Time(1) // applied per 2 bytes in Append
)

// Options configure a log manager.
type Options struct {
	// FlushLatency is the device latency of one flush batch. The paper's
	// setup logs to memory-mapped disks; 10us approximates an mmap msync.
	FlushLatency sim.Time
	// GroupCommit batches concurrent commit waiters into one flush
	// (Shore-MT default). Disabling it is the ablation of
	// BenchmarkAblationGroupCommit.
	GroupCommit bool
	// Consolidate models Aether-style consolidation-array inserts: the
	// insertion mutex is bypassed and contention on the head line is
	// amortized across simultaneous inserters.
	Consolidate bool
	// Retain keeps full records in memory for recovery tests.
	Retain bool
}

// DefaultOptions returns the configuration used by the paper reproduction.
func DefaultOptions() Options {
	return Options{FlushLatency: 10 * sim.Microsecond, GroupCommit: true}
}

// Manager is the per-instance log.
type Manager struct {
	dom  *sim.Domain
	opts Options

	mu       sim.Mutex
	headLine mem.Line

	tail    LSN // next byte to be written
	durable LSN

	// extraFlush is added to every flush batch's device latency — the
	// fault layer's WALStall events raise and lower it.
	extraFlush sim.Time

	waiters     []flushWaiter
	flusherIdle bool
	flushTarget LSN

	// Flush-daemon continuations, bound once so scheduling a batch never
	// allocates.
	beginFn    func()
	completeFn func()

	records []Record // retained iff opts.Retain

	// Stats.
	Appends     uint64
	Flushes     uint64
	ForcedBytes uint64
}

type flushWaiter struct {
	lsn LSN
	p   *sim.Proc
}

// NewManager starts a log manager and its flush daemon on domain dom —
// the owning instance's island domain, so flush timers execute on the
// island's shard.
// The daemon models a dedicated log-writer thread; its CPU use is negligible
// and it does not compete for worker cores. It runs as a kernel-context
// callback chain (beginBatch -> completeBatch), not a Proc: group-commit
// batching is pure timer work, so it needs no coroutine stack and its
// wakeups cost no goroutine switches. The startup event mirrors the daemon
// thread launch of a Proc-based flusher, keeping kernel event counts
// comparable across implementations.
func NewManager(dom *sim.Domain, opts Options) *Manager {
	m := &Manager{dom: dom, opts: opts, flusherIdle: true}
	m.beginFn = m.beginBatch
	m.completeFn = m.completeBatch
	dom.After(0, m.start)
	return m
}

// start is the daemon's startup event: it catches flush requests issued
// between manager construction and the first kernel step.
func (m *Manager) start() {
	if m.flusherIdle && len(m.waiters) > 0 {
		m.flusherIdle = false
		m.beginBatch()
	}
}

// SetExtraFlushLatency sets the extra device latency added to every flush
// batch from now on (0 restores the healthy device). In-flight batches keep
// the latency they started with.
func (m *Manager) SetExtraFlushLatency(d sim.Time) { m.extraFlush = d }

// Durable returns the durable LSN.
func (m *Manager) Durable() LSN { return m.durable }

// Tail returns the next LSN to be assigned.
func (m *Manager) Tail() LSN { return m.tail }

// Records returns retained records (empty unless Options.Retain).
func (m *Manager) Records() []Record { return m.records }

// Append inserts a record and returns the LSN *after* it (the LSN a commit
// must force). The caller's time is charged for the mutex, the head-line
// write, and the byte copy.
func (m *Manager) Append(ctx *exec.Ctx, rec Record) LSN {
	prev := ctx.Bucket(exec.BLog)
	defer ctx.Bucket(prev)

	if !m.opts.Consolidate {
		ctx.LockSim(&m.mu)
	}
	ctx.WriteLine(&m.headLine)
	ctx.Charge(CostInsertCPU + sim.Time(rec.Size()/2)*CostPerByte)
	rec.LSN = m.tail
	m.tail += LSN(rec.Size())
	end := m.tail
	m.Appends++
	if m.opts.Retain {
		m.records = append(m.records, rec)
	}
	if !m.opts.Consolidate {
		ctx.UnlockSim(&m.mu)
	}
	return end
}

// Flush blocks ctx until the durable LSN reaches lsn. With group commit the
// wait piggybacks on the in-flight batch; without it every caller pays a
// full device write.
func (m *Manager) Flush(ctx *exec.Ctx, lsn LSN) {
	if lsn > m.tail {
		lsn = m.tail
	}
	if m.durable >= lsn {
		return
	}
	prev := ctx.Bucket(exec.BLog)
	defer ctx.Bucket(prev)
	m.ForcedBytes += uint64(lsn - m.durable)
	m.waiters = append(m.waiters, flushWaiter{lsn: lsn, p: ctx.P})
	if m.flusherIdle {
		m.flusherIdle = false
		m.dom.After(0, m.beginFn)
	}
	ctx.Block(func() {
		for m.durable < lsn {
			ctx.P.Park()
		}
	})
}

// beginBatch starts one device write. With group commit the batch covers
// everything appended so far; without it, only the oldest waiter's range.
func (m *Manager) beginBatch() {
	if len(m.waiters) == 0 {
		m.flusherIdle = true
		return
	}
	if m.opts.GroupCommit {
		m.flushTarget = m.tail
	} else {
		m.flushTarget = m.waiters[0].lsn
	}
	m.dom.After(m.opts.FlushLatency+m.extraFlush, m.completeFn)
}

// completeBatch ends the in-flight device write and immediately starts the
// next batch if waiters arrived during the write.
func (m *Manager) completeBatch() {
	m.finishFlush(m.flushTarget)
	m.beginBatch()
}

func (m *Manager) finishFlush(target LSN) {
	m.Flushes++
	if target > m.durable {
		m.durable = target
	}
	remaining := m.waiters[:0]
	for _, w := range m.waiters {
		if w.lsn <= m.durable {
			w.p.Unpark()
		} else {
			remaining = append(remaining, w)
		}
	}
	m.waiters = remaining
}
