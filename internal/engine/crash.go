package engine

import (
	"fmt"

	"islands/internal/exec"
	"islands/internal/lock"
	"islands/internal/sim"
	"islands/internal/storage"
)

// Crash/recovery cost constants.
const (
	// RecoveryBase is the fixed restart cost of a crashed instance: process
	// launch, log open, analysis-pass setup.
	RecoveryBase = 50 * sim.Microsecond
	// RecoveryPerRecord is the replay cost per retained log record (scan +
	// redo of winners).
	RecoveryPerRecord = 200 * sim.Nanosecond
)

// EnableFaultMode arms the instance's fault machinery: coordinator attempts
// get deadlines, subordinate registrations get expiry GC, and threads check
// the crash state around every blocking point. The deployment calls it once,
// before Start, when the run has a fault plan; healthy runs never set it, so
// their event sequences are untouched.
func (in *Instance) EnableFaultMode() { in.faulty = true }

// FaultMode reports whether fault injection is armed.
func (in *Instance) FaultMode() bool { return in.faulty }

// Down reports whether the instance is currently crashed.
func (in *Instance) Down() bool { return in.down }

// Crash models a fail-stop failure of the whole instance process. Runs in
// kernel context (a fault-injector callback): no virtual time passes, the
// instance simply stops being there.
//
// Volatile state — buffer pool, lock table, execution token, pending 2PC
// txns, socket buffers — is condemned or discarded; the retained WAL is the
// durable state recovery replays. Threads blocked inside the dead instance
// are woken (lock and token waiters) or will wake on their own (flush
// daemon completes its batch, deadline sentinels fire); each one compares
// its attempt's epoch against the bumped counter and abandons the attempt
// without touching anything rebuilt later.
func (in *Instance) Crash() {
	if !in.faulty {
		panic("engine: Crash on an instance without fault mode")
	}
	if in.down {
		return
	}
	in.down = true
	in.epoch++
	in.Stats.Crashes++
	// Pending subordinate txns die with the process; their locks die with
	// the lock table. The coordinators responsible will time out.
	in.pending = make(map[uint64]*Txn)
	in.locks.Condemn()
	if in.serial != nil {
		in.serial.condemn()
	}
	// The process's sockets are gone: queued-but-unprocessed messages too.
	in.workQ.Clear()
	in.ctrlQ.Clear()
}

// Restore rebuilds the instance's volatile state from scratch and replays
// the retained WAL through the existing Recover path, exactly as a restarted
// process would. Runs in kernel context and consumes no virtual time itself;
// it returns the virtual duration the replay represents, which the fault
// injector adds to the outage before reopening the instance — recovery time
// is downtime.
func (in *Instance) Restore() sim.Time {
	if !in.down {
		panic("engine: Restore on an instance that is not down")
	}
	if !in.opts.Wal.Retain {
		panic("engine: Restore needs Options.Wal.Retain (no log to replay)")
	}

	// Fresh storage, freshly loaded tables — the same bring-up as
	// NewInstance. The buffer pool starts cold: the post-recovery cache-miss
	// burst is part of the measured recovery dip. The crashed pool and store
	// are dropped, not closed: threads of the dead epoch may still hold their
	// pages until they notice the epoch change, so the pool's Page structs
	// must not reach another pool — the garbage collector takes them.
	in.loadTables()
	in.bp = storage.NewBufferPool(in.store, in.disk, in.bpPages)
	in.locks = lock.NewManager(in.opts.Locking)
	if in.opts.SerialExecution {
		in.serial = &execToken{}
	}
	in.pending = make(map[uint64]*Txn)

	records := in.wal.Records()
	if _, err := in.Recover(records); err != nil {
		panic(fmt.Sprintf("engine: instance %d recovery failed: %v", in.ID, err))
	}
	rec := RecoveryBase + RecoveryPerRecord*sim.Time(len(records))
	in.Stats.RecoveryTime += rec
	return rec
}

// Reopen puts the recovered instance back in service: requests park waiting
// for it resume, and anything that accumulated in its mailboxes during the
// outage is discarded (those senders gave up long ago).
func (in *Instance) Reopen() {
	if !in.down {
		return
	}
	in.workQ.Clear()
	in.ctrlQ.Clear()
	in.down = false
	ws := in.downWaiters
	in.downWaiters = nil
	for _, p := range ws {
		p.Unpark()
	}
}

// waitUp parks the calling worker until the instance reopens. The outage is
// idle time, not transaction cost.
func (in *Instance) waitUp(ctx *exec.Ctx) {
	if !in.down {
		return
	}
	prev := ctx.Bucket(exec.BIdle)
	ctx.Block(func() {
		for in.down {
			in.downWaiters = append(in.downWaiters, ctx.P)
			ctx.P.Park()
		}
	})
	ctx.Bucket(prev)
}

// WalRecordCount exposes the retained log length (tests, diagnostics).
func (in *Instance) WalRecordCount() int { return len(in.wal.Records()) }
