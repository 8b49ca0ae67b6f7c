package engine

import (
	"errors"
	"fmt"

	"islands/internal/exec"
	"islands/internal/ipc"
	"islands/internal/lock"
	"islands/internal/sim"
	"islands/internal/storage"
	"islands/internal/wal"
)

// errAborted signals a wait-die abort somewhere in the transaction; the
// worker retries the whole request with the same timestamp.
var errAborted = errors.New("engine: transaction aborted, retry")

// errTimeout signals that a coordinator attempt hit its 2PC deadline: a
// participant (likely crashed or unreachable) never answered. The attempt
// is aborted and retried with escalating backoff. Fault mode only.
var errTimeout = errors.New("engine: coordinator attempt timed out, retry")

// errCrashed signals that the coordinator's own instance crashed while the
// attempt was in flight: everything the attempt did is gone with the
// volatile state, so there is nothing to clean up — wait for the instance
// to reopen and start over. Fault mode only.
var errCrashed = errors.New("engine: instance crashed under attempt, retry")

// Fault-mode coordinator timing.
const (
	// CoordTimeout is the absolute 2PC deadline of one attempt: if the work
	// replies and votes have not all arrived this long after dispatch, the
	// attempt aborts. Far above any healthy round trip (tens of us), far
	// below an outage (ms).
	CoordTimeout = 250 * sim.Microsecond
	// TimeoutBackoff is the base retry backoff after a timeout abort; it
	// doubles per consecutive timeout up to TimeoutBackoffMax so retries
	// against a dead island don't busy-spin the coordinator.
	TimeoutBackoff    = 20 * sim.Microsecond
	TimeoutBackoffMax = 640 * sim.Microsecond
	// CostTimeoutCPU is the bookkeeping cost of detecting an expired
	// deadline and tearing the attempt down.
	CostTimeoutCPU = 2 * sim.Microsecond
	// ParticipantExpire is how long a subordinate keeps an undecided txn
	// before presuming abort. Longer than CoordTimeout plus delivery, so a
	// live coordinator always decides first.
	ParticipantExpire = 600 * sim.Microsecond
)

// runTxn executes one request to commit, retrying wait-die victims with the
// original timestamp (which guarantees progress: a transaction eventually
// becomes the oldest and cannot die). Under fault injection two more retry
// reasons appear: deadline aborts (a participant island is down — back off
// hard, it will be a while) and losing the coordinator's own instance (wait
// for reopen, then start over).
func (in *Instance) runTxn(ctx *exec.Ctx, req Request, reply *ipc.Endpoint[Msg]) {
	in.tsNext++
	ts := in.tsNext*in.tsStride + uint64(in.ID)
	var attempt uint32
	timeouts := 0
	for {
		attempt++
		multisite, err := in.attemptTxn(ctx, ts, attempt, req, reply)
		switch err {
		case nil:
			in.Stats.Committed++
			if multisite {
				in.Stats.Multisite++
			} else {
				in.Stats.Local++
			}
			return
		case errCrashed:
			// The crash voided the attempt (and its statistics): nothing to
			// abort, nothing to count. Sit out the outage and start over.
			in.waitUp(ctx)
		case errTimeout:
			in.Stats.Aborted++
			backoff := TimeoutBackoff << timeouts
			if backoff > TimeoutBackoffMax {
				backoff = TimeoutBackoffMax
			}
			timeouts++
			prev := ctx.Bucket(exec.BTimeout)
			ctx.Block(func() { ctx.P.Advance(backoff) })
			ctx.Bucket(prev)
		default:
			in.Stats.Aborted++
			// Back off descheduled so the conflicting older transaction can
			// use the core.
			ctx.Block(func() { ctx.P.Advance(RetryBackoff) })
		}
	}
}

// coordScratch holds one coordinator attempt's staging state: the op split
// (local part, dense per-participant parts) and the writer votes. Attempts
// block mid-flight (work replies, lock waits), and every core of an
// instance runs a worker, so attempts of different transactions can be live
// on one instance at once: each attempt takes a scratch from the instance's
// free list and returns it when done. Steady state allocates nothing.
type coordScratch struct {
	local       []localOp
	remote      [][]localOp // dense by participant order
	remoteIDs   []InstanceID
	writers     []InstanceID
	remoteIndex map[InstanceID]int
	next        *coordScratch // free-list link
}

// getCoordScratch pops a scratch off the instance free list (procs of one
// kernel run strictly one at a time, so no locking is needed).
func (in *Instance) getCoordScratch() *coordScratch {
	s := in.coordFree
	if s == nil {
		return &coordScratch{remoteIndex: make(map[InstanceID]int)}
	}
	in.coordFree = s.next
	s.next = nil
	return s
}

// putCoordScratch resets and recycles a scratch. By the time an attempt
// returns, every participant has replied — and a participant replies only
// after it consumed the ops slice its work message referenced — so the
// remote buffers are free to reuse.
func (in *Instance) putCoordScratch(s *coordScratch) {
	s.local = s.local[:0]
	s.remote = s.remote[:0] // inner slice headers survive past len for reuse
	s.remoteIDs = s.remoteIDs[:0]
	s.writers = s.writers[:0]
	clear(s.remoteIndex)
	s.next = in.coordFree
	in.coordFree = s
}

// attemptTxn runs one attempt of the request as coordinator. attempt tags
// the attempt's messages so fault-mode retries can tell live traffic from
// stale; healthy runs never look at it.
func (in *Instance) attemptTxn(ctx *exec.Ctx, ts uint64, attempt uint32, req Request, reply *ipc.Endpoint[Msg]) (multisite bool, err error) {
	epoch := in.epoch
	if in.serial != nil {
		if err := in.serial.Acquire(ctx, ts); err != nil {
			return false, errAborted
		}
		if in.epoch != epoch {
			// Condemned while queued for the token: the token we were
			// "granted" died with the old instance.
			return false, errCrashed
		}
		defer func() {
			// The token is volatile state: if the instance crashed under
			// this attempt, the replacement token was never held by us.
			if in.epoch == epoch {
				in.serial.Release()
			}
		}()
	}
	// The coordinator's Txn never leaves this frame, so every return —
	// committed, aborted or abandoned to a crash — may recycle it.
	txn := in.newTxn(ctx, ts, false)
	defer in.putTxn(txn)

	// Split operations into the local part and per-participant parts.
	s := in.getCoordScratch()
	defer in.putCoordScratch(s)
	for _, op := range req.Ops {
		iid, lk := in.part.Locate(op.Table, op.Key)
		lop := localOp{Table: int32(op.Table), Key: lk, Kind: op.Kind}
		if iid == in.ID {
			s.local = append(s.local, lop)
			continue
		}
		idx, ok := s.remoteIndex[iid]
		if !ok {
			idx = len(s.remoteIDs)
			s.remoteIndex[iid] = idx
			s.remoteIDs = append(s.remoteIDs, iid)
			if idx < cap(s.remote) {
				s.remote = s.remote[:idx+1]
				s.remote[idx] = s.remote[idx][:0]
			} else {
				s.remote = append(s.remote, nil)
			}
		}
		s.remote[idx] = append(s.remote[idx], lop)
	}
	remoteIDs := s.remoteIDs
	multisite = len(remoteIDs) > 0
	if multisite && in.peers == nil {
		panic(fmt.Sprintf("engine: instance %d got a request with work for instance %d, but the instances "+
			"are not connected: a deployment built with Config.LocalOnly declares that its workload never "+
			"issues multisite transactions", in.ID, remoteIDs[0]))
	}

	// Fault mode: arm the attempt's 2PC deadline before any message leaves.
	// The deadline is a sentinel delivered to the worker's own reply mailbox
	// — the same queue the awaited replies and votes arrive on — so a
	// coordinator blocked on a dead participant wakes exactly at the
	// deadline, with no polling and no extra kernel machinery.
	if in.faulty && multisite {
		reply.Defer(CoordTimeout, Msg{Kind: msgTimeout, Txn: ts, Attempt: attempt})
	}

	// Dispatch work to participants before doing local work, so remote
	// execution overlaps local execution.
	for i, iid := range remoteIDs {
		in.net.Send(ctx, in.peers[iid].workQ, Msg{
			Kind: msgWork, From: in.ID, Txn: ts, Attempt: attempt, Ops: s.remote[i], ReplyTo: reply,
		})
	}

	// Local execution.
	prev := ctx.Bucket(exec.BExec)
	localErr := error(nil)
	for _, op := range s.local {
		if localErr = txn.apply(ctx, op); localErr != nil {
			break
		}
	}
	ctx.Bucket(prev)
	if in.epoch != epoch {
		return multisite, errCrashed // crashed during local execution
	}

	// Collect work replies.
	died := localErr != nil
	timedOut := false
	if in.faulty {
		for got := 0; got < len(remoteIDs); {
			m := reply.Recv(ctx)
			if in.epoch != epoch {
				return multisite, errCrashed
			}
			switch {
			case m.Kind == msgTimeout:
				if m.Txn == ts && m.Attempt == attempt {
					timedOut = true
				} else {
					continue // an earlier attempt's deadline going off late
				}
			case m.Txn != ts || m.Attempt != attempt:
				continue // stale reply from a timed-out attempt
			case !m.OK:
				died = true
				got++
			case !m.ReadOnly:
				s.writers = append(s.writers, m.From)
				got++
			default:
				got++
			}
			if timedOut {
				break
			}
		}
	} else {
		for range remoteIDs {
			m := reply.Recv(ctx)
			switch {
			case !m.OK:
				died = true // participant died; it cleaned up locally
			case !m.ReadOnly:
				s.writers = append(s.writers, m.From)
			}
		}
	}
	writers := s.writers

	if timedOut {
		return multisite, in.timeoutAbort(ctx, txn, ts, attempt, remoteIDs)
	}
	if died {
		txn.abortLocal(ctx)
		for _, iid := range writers {
			in.net.Send(ctx, in.peers[iid].ctrlQ, Msg{Kind: msgAbort, From: in.ID, Txn: ts, Attempt: attempt})
		}
		return multisite, errAborted
	}

	if len(writers) == 0 {
		// All participants were read-only (and already released): a plain
		// local commit ends the transaction. This is the read-only 2PC
		// optimization: two messages per participant instead of four.
		// (If the instance crashes inside the commit flush, the commit
		// record is durable before Flush returns, so the transaction is
		// still committed — recovery redoes it; the lock release lands on
		// the replacement manager as a harmless no-op.)
		txn.commitLocal(ctx)
		return multisite, nil
	}

	// Standard two-phase commit over the writing participants.
	for _, iid := range writers {
		in.net.Send(ctx, in.peers[iid].ctrlQ, Msg{Kind: msgPrepare, From: in.ID, Txn: ts, Attempt: attempt, ReplyTo: reply})
	}
	allYes := true
	if in.faulty {
		for got := 0; got < len(writers); {
			m := reply.Recv(ctx)
			if in.epoch != epoch {
				return multisite, errCrashed
			}
			switch {
			case m.Kind == msgTimeout:
				if m.Txn == ts && m.Attempt == attempt {
					timedOut = true
				} else {
					continue
				}
			case m.Txn != ts || m.Attempt != attempt:
				continue // stale vote (or reply) from a timed-out attempt
			default:
				if !m.OK {
					allYes = false
				}
				got++
			}
			if timedOut {
				break
			}
		}
		if timedOut {
			return multisite, in.timeoutAbort(ctx, txn, ts, attempt, remoteIDs)
		}
	} else {
		for range writers {
			if m := reply.Recv(ctx); !m.OK {
				allYes = false
			}
		}
	}
	if !allYes {
		txn.abortLocal(ctx)
		for _, iid := range writers {
			in.net.Send(ctx, in.peers[iid].ctrlQ, Msg{Kind: msgAbort, From: in.ID, Txn: ts, Attempt: attempt})
		}
		return multisite, errAborted
	}

	// Commit point: force the distributed-commit record at the coordinator.
	lsn := in.wal.Append(ctx, wal.Record{Type: wal.RecDistCommit, Txn: ts})
	in.wal.Flush(ctx, lsn)
	if in.epoch != epoch {
		// Crashed after the commit point: the forced dist-commit record is
		// durable (Flush returned), so the transaction committed and
		// recovery redoes its local effects. The commit messages to the
		// writers are lost with the process — they will expire their
		// prepared txns by presumed abort, the documented hole of
		// coordinator-crash-after-force (see DESIGN.md).
		return multisite, nil
	}

	for _, iid := range writers {
		in.net.Send(ctx, in.peers[iid].ctrlQ, Msg{Kind: msgCommit, From: in.ID, Txn: ts, Attempt: attempt})
	}

	// Local effects commit under the dist-commit record; the end record is
	// written lazily (not forced).
	prevB := ctx.Bucket(exec.BXct)
	ctx.Charge(CostCommitCPU)
	ctx.Bucket(prevB)
	in.Stats.RowsCommitted += uint64(txn.nUpdates)
	in.locks.ReleaseAll(ctx, ts)
	in.wal.Append(ctx, wal.Record{Type: wal.RecEnd, Txn: ts})
	return multisite, nil
}

// timeoutAbort tears down an attempt whose 2PC deadline expired: roll back
// the local part, tell every participant to abort (those that never got the
// work, or are down, ignore it; down islands drop the message anyway), and
// bill the teardown to the timeout bucket so deadline aborts are separable
// from wait-die aborts in the breakdown.
func (in *Instance) timeoutAbort(ctx *exec.Ctx, txn *Txn, ts uint64, attempt uint32, participants []InstanceID) error {
	in.Stats.TimeoutAborts++
	prev := ctx.Bucket(exec.BTimeout)
	ctx.Charge(CostTimeoutCPU)
	ctx.Bucket(prev)
	txn.abortLocal(ctx)
	for _, iid := range participants {
		in.net.Send(ctx, in.peers[iid].ctrlQ, Msg{Kind: msgAbort, From: in.ID, Txn: ts, Attempt: attempt})
	}
	return errTimeout
}

// tokenPollDelay is how long a subordinate request for a busy partition
// token waits before re-checking. The service thread never blocks on the
// token: blocking would stall the work queue and defeat wait-die.
const tokenPollDelay = 2 * sim.Microsecond

// handleWork executes a subordinate work request on a service thread.
func (in *Instance) handleWork(ctx *exec.Ctx, m Msg) {
	if in.faulty {
		if old := in.pending[m.Txn]; old != nil {
			// A retry of a transaction whose earlier attempt is still
			// registered here — the coordinator timed that attempt out (its
			// abort may have been dropped). The old attempt is presumed
			// aborted; roll it back before executing the new one, or its
			// locks and undo chain would leak.
			in.expirePending(ctx, m.Txn, old)
		}
	}
	if in.serial != nil && !in.serial.TryAcquire(m.Txn) {
		if in.serial.ShouldDie(m.Txn) {
			// Wait-die on the partition token: tell the coordinator to
			// abort and retry.
			in.Stats.SubWork++
			in.serial.Dies++
			in.net.Send(ctx, m.ReplyTo, Msg{Kind: msgReply, From: in.ID, Txn: m.Txn, Attempt: m.Attempt, OK: false})
			return
		}
		// Older than the holder: poll until the partition frees up, serving
		// other messages meanwhile.
		in.workQ.Defer(tokenPollDelay, m)
		return
	}
	in.Stats.SubWork++
	epoch := in.epoch
	txn := in.newTxn(ctx, m.Txn, true)
	prev := ctx.Bucket(exec.BExec)
	var err error
	for _, op := range m.Ops {
		if err = txn.apply(ctx, op); err != nil {
			break
		}
	}
	ctx.Bucket(prev)
	if in.epoch != epoch {
		// Crashed mid-execution: the txn's effects died with the volatile
		// state, and a reply now would outlive the process that sent it.
		return
	}
	if err != nil {
		txn.abortLocal(ctx)
		in.putTxn(txn)
		if in.epoch != epoch {
			return // crashed during rollback: token and reply are moot
		}
		if in.serial != nil {
			in.serial.Release()
		}
		in.net.Send(ctx, m.ReplyTo, Msg{Kind: msgReply, From: in.ID, Txn: m.Txn, Attempt: m.Attempt, OK: false})
		return
	}
	if !txn.updated && !in.opts.DisableReadOnlyVote {
		// Read-only: release now, vote read-only in the reply.
		in.Stats.SubReadOnly++
		txn.releaseReadOnly(ctx)
		in.putTxn(txn)
		if in.epoch != epoch {
			return
		}
		if in.serial != nil {
			in.serial.Release()
		}
		in.net.Send(ctx, m.ReplyTo, Msg{Kind: msgReply, From: in.ID, Txn: m.Txn, Attempt: m.Attempt, OK: true, ReadOnly: true})
		return
	}
	// A writing participant keeps the partition token (if any) until the
	// coordinator's decision arrives: the partition stalls, the defining
	// cost of distributed transactions on single-threaded instances.
	txn.holdsToken = in.serial != nil
	txn.attempt = m.Attempt
	in.pending[m.Txn] = txn
	if in.faulty {
		// Arm the orphan GC: if no decision arrives (coordinator crashed,
		// or its abort was dropped), presume abort rather than hold locks
		// and the partition token forever.
		in.ctrlQ.Defer(ParticipantExpire, Msg{Kind: msgExpire, From: in.ID, Txn: m.Txn, Attempt: m.Attempt})
	}
	in.net.Send(ctx, m.ReplyTo, Msg{Kind: msgReply, From: in.ID, Txn: m.Txn, Attempt: m.Attempt, OK: true})
}

// expirePending presumes abort for an undecided subordinate txn: undo, log
// the abort, free the token. Used by the expiry GC and by a retried work
// request that finds its predecessor still registered.
func (in *Instance) expirePending(ctx *exec.Ctx, ts uint64, txn *Txn) {
	in.Stats.Expired++
	delete(in.pending, ts)
	epoch := in.epoch
	prev := ctx.Bucket(exec.BTimeout)
	ctx.Charge(CostTimeoutCPU)
	ctx.Bucket(prev)
	txn.abortLocal(ctx)
	if in.epoch != epoch {
		return // crashed during rollback: the token died with the process
	}
	in.wal.Append(ctx, wal.Record{Type: wal.RecDistAbort, Txn: ts})
	if txn.holdsToken {
		in.serial.Release()
	}
	in.putTxn(txn)
}

// handleCtrl processes 2PC control traffic on a control thread. In fault
// mode every decision is matched against the registered attempt: a commit
// or abort of a timed-out attempt arriving late must not act on the state
// of its successor.
func (in *Instance) handleCtrl(ctx *exec.Ctx, m Msg) {
	switch m.Kind {
	case msgPrepare:
		txn := in.pending[m.Txn]
		if txn == nil || (in.faulty && txn.attempt != m.Attempt) {
			// The subordinate's registration is gone (expired, crashed, or
			// belongs to a different attempt): vote no.
			in.net.Send(ctx, m.ReplyTo, Msg{Kind: msgVote, From: in.ID, Txn: m.Txn, Attempt: m.Attempt, OK: false})
			return
		}
		in.Stats.Prepares++
		epoch := in.epoch
		lsn := in.wal.Append(ctx, wal.Record{Type: wal.RecPrepare, Txn: m.Txn})
		in.wal.Flush(ctx, lsn) // the forced prepare write of 2PC
		if in.epoch != epoch {
			return // crashed during the force: the coordinator times out
		}
		in.net.Send(ctx, m.ReplyTo, Msg{Kind: msgVote, From: in.ID, Txn: m.Txn, Attempt: m.Attempt, OK: true})

	case msgCommit:
		txn := in.pending[m.Txn]
		if txn == nil || (in.faulty && txn.attempt != m.Attempt) {
			return
		}
		delete(in.pending, m.Txn)
		epoch := in.epoch
		in.wal.Append(ctx, wal.Record{Type: wal.RecDistCommit, Txn: m.Txn}) // lazy
		prev := ctx.Bucket(exec.BXct)
		ctx.Charge(CostCommitCPU)
		ctx.Bucket(prev)
		in.Stats.RowsCommitted += uint64(txn.nUpdates)
		in.locks.ReleaseAll(ctx, m.Txn)
		if txn.holdsToken && in.epoch == epoch {
			in.serial.Release()
		}
		in.putTxn(txn)

	case msgAbort:
		txn := in.pending[m.Txn]
		if txn == nil || (in.faulty && txn.attempt != m.Attempt) {
			// Already cleaned up. In fault mode, also ignore decisions of a
			// different attempt: a timed-out attempt's late abort must not
			// act on its successor's state. Healthy runs keep the original
			// semantics (a stale abort can tear down a successor's
			// registration — the coordinator's wait-die retry re-runs it).
			return
		}
		delete(in.pending, m.Txn)
		epoch := in.epoch
		txn.abortLocal(ctx)
		if in.epoch != epoch {
			return
		}
		in.wal.Append(ctx, wal.Record{Type: wal.RecDistAbort, Txn: m.Txn})
		if txn.holdsToken {
			in.serial.Release()
		}
		in.putTxn(txn)

	case msgExpire:
		// Self-scheduled orphan GC (fault mode only): if the attempt it was
		// armed for is still undecided, presume abort. Prepared txns expire
		// too — see DESIGN.md for the coordinator-crash-after-force hole.
		txn := in.pending[m.Txn]
		if txn == nil || txn.attempt != m.Attempt {
			return // decided in time (the common case)
		}
		in.expirePending(ctx, m.Txn, txn)

	default:
		panic("engine: unexpected control message " + m.Kind.String())
	}
}

// LockKeyFor builds the lock key for a row (exported for tests).
func LockKeyFor(table storage.TableID, key int64) lock.Key {
	return lock.Key{Space: uint32(table), ID: key}
}
