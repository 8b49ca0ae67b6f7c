package engine

import (
	"errors"
	"fmt"
	"slices"

	"islands/internal/exec"
	"islands/internal/ipc"
	"islands/internal/sim"
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

// coordScratch holds one coordinator attempt's staging state: the request's
// ops, localized and grouped by owner — the local part first, then one run
// per participant in remoteIDs order, each sent as a full slice expression
// of ops — and the writer votes. Attempts block mid-flight (work replies,
// lock waits), and every core of an instance runs a worker, so attempts of
// different transactions can be live on one instance at once: each attempt
// takes a scratch from the instance's free list and returns it when done.
// A scratch is sized once: ops on first use, at the request's length, and
// the participant lists at the instance's peer count. Steady state
// allocates nothing.
type coordScratch struct {
	ops       []localOp
	ends      []int32       // ends[i]: the end of remoteIDs[i]'s run in ops
	remoteIDs []InstanceID  // participants, in order of first appearance
	writers   []InstanceID  // participants that wrote, in reply order
	next      *coordScratch // free-list link
}

// getCoordScratch pops a scratch off the instance free list (procs of one
// kernel run strictly one at a time, so no locking is needed), or makes
// one whose participant lists hold every peer but the instance itself.
func (in *Instance) getCoordScratch() *coordScratch {
	s := in.coordFree
	if s == nil {
		n := max(len(in.peers)-1, 0)
		ids := make([]InstanceID, 2*n)
		return &coordScratch{
			ends:      make([]int32, 0, n),
			remoteIDs: ids[:0:n],
			writers:   ids[n:n],
		}
	}
	in.coordFree = s.next
	s.next = nil
	return s
}

// putCoordScratch resets and recycles a scratch. Only an attempt every
// participant replied to may hand its scratch back: a participant replies
// only after it consumed the ops its work message referenced.
func (in *Instance) putCoordScratch(s *coordScratch) {
	s.ends = s.ends[:0]
	s.remoteIDs = s.remoteIDs[:0]
	s.writers = s.writers[:0]
	s.next = in.coordFree
	in.coordFree = s
}

// split localizes req's ops into s.ops, grouped by owner, and returns the
// local part. A first pass counts each participant's ops, in order of first
// appearance (a linear scan: there are at most as many participants as
// peers); a second places every op at the next position of its owner's run,
// so each run keeps the request's order and ends[i] ends at its run's end.
func (s *coordScratch) split(in *Instance, req Request) []localOp {
	if cap(s.ops) < len(req.Ops) {
		s.ops = make([]localOp, len(req.Ops))
	}
	nLocal := int32(0)
	for _, op := range req.Ops {
		if iid, _ := in.part.Locate(op.Table, op.Key); iid == in.ID {
			nLocal++
		} else if i := slices.Index(s.remoteIDs, iid); i >= 0 {
			s.ends[i]++
		} else {
			s.remoteIDs = append(s.remoteIDs, iid)
			s.ends = append(s.ends, 1)
		}
	}
	next := nLocal // each ends[i] now holds its run's start
	for i, n := range s.ends {
		s.ends[i], next = next, next+n
	}
	local := int32(0)
	for _, op := range req.Ops {
		iid, lk := in.part.Locate(op.Table, op.Key)
		at := &local
		if iid != in.ID {
			at = &s.ends[slices.Index(s.remoteIDs, iid)]
		}
		s.ops[*at] = localOp{Table: int32(op.Table), Key: lk, Kind: op.Kind}
		*at++
	}
	return s.ops[:nLocal]
}

// attemptTxn runs one attempt of the request as coordinator. attempt tags
// the attempt's messages so fault-mode retries can tell live traffic from
// stale; healthy runs never look at it.
//
// It holds the partition token, the attempt's Txn and its scratch around
// runAttempt and releases them in reverse order on every return — committed,
// aborted or abandoned to a crash; a scratch a participant may still read
// is dropped instead — without defers, which this frame would otherwise
// pay on every transaction. A panic skips the releases: it means the
// kernel is being closed, which abandons the instance anyway.
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
	}
	// The coordinator's Txn never leaves runAttempt, so every return may
	// recycle it.
	txn := in.newTxn(ctx, ts, false)
	s := in.getCoordScratch()
	multisite, err = in.runAttempt(ctx, ts, attempt, epoch, req, reply, txn, s)
	// An attempt that ended on its deadline or on its instance's crash may
	// have a participant still holding a work message whose ops are this
	// scratch's: it is dropped, not recycled. Every other return comes after
	// all participants replied, and a reply means the ops were consumed.
	if err != errTimeout && err != errCrashed {
		in.putCoordScratch(s)
	}
	in.putTxn(txn)
	// The token is volatile state: if the instance crashed under this
	// attempt, the replacement token was never held by us.
	if in.serial != nil && in.epoch == epoch {
		in.serial.Release()
	}
	return multisite, err
}

// runAttempt is attemptTxn's body: it runs the attempt with the Txn and
// scratch attemptTxn holds for it. epoch is the instance's epoch when the
// attempt began.
func (in *Instance) runAttempt(ctx *exec.Ctx, ts uint64, attempt, epoch uint32, req Request, reply *ipc.Endpoint[Msg], txn *Txn, s *coordScratch) (multisite bool, err error) {
	local := s.split(in, req)
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
	// execution overlaps local execution. Each gets its run of s.ops.
	start := int32(len(local))
	for i, iid := range remoteIDs {
		end := s.ends[i]
		in.net.Send(ctx, in.peers[iid].workQ, Msg{
			Kind: msgWork, From: in.ID, Txn: ts, Attempt: attempt, Ops: s.ops[start:end:end], ReplyTo: reply,
		})
		start = end
	}

	// Local execution.
	prev := ctx.Bucket(exec.BExec)
	localErr := error(nil)
	for _, op := range local {
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
	if err := in.collect(ctx, reply, txn, attempt, epoch, remoteIDs, len(remoteIDs), func(m Msg) {
		switch {
		case !m.OK:
			died = true // participant died; it cleaned up locally
		case !m.ReadOnly:
			s.writers = append(s.writers, m.From)
		}
	}); err != nil {
		return multisite, err
	}
	writers := s.writers
	if died {
		txn.abortLocal(ctx)
		in.tell(ctx, writers, Msg{Kind: msgAbort, From: in.ID, Txn: ts, Attempt: attempt})
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
	in.tell(ctx, writers, Msg{Kind: msgPrepare, From: in.ID, Txn: ts, Attempt: attempt, ReplyTo: reply})
	allYes := true
	if err := in.collect(ctx, reply, txn, attempt, epoch, remoteIDs, len(writers), func(m Msg) {
		allYes = allYes && m.OK
	}); err != nil {
		return multisite, err
	}
	if !allYes {
		txn.abortLocal(ctx)
		in.tell(ctx, writers, Msg{Kind: msgAbort, From: in.ID, Txn: ts, Attempt: attempt})
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
	in.tell(ctx, writers, Msg{Kind: msgCommit, From: in.ID, Txn: ts, Attempt: attempt})

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

// collect receives n answers of the attempt's current round — work replies
// or votes — on reply and hands each to each. Messages of an earlier
// attempt (a late deadline, a stale reply or vote) are skipped: only fault
// mode, where attempts time out, produces them. In fault mode collect also
// returns early: errCrashed when the instance crashed under the attempt,
// and, on the attempt's own deadline, whatever timeoutAbort returns after
// tearing it down.
func (in *Instance) collect(ctx *exec.Ctx, reply *ipc.Endpoint[Msg], txn *Txn, attempt, epoch uint32,
	participants []InstanceID, n int, each func(Msg)) error {
	for got := 0; got < n; {
		m := reply.Recv(ctx)
		switch {
		case in.epoch != epoch:
			return errCrashed
		case m.Txn != txn.TS || m.Attempt != attempt:
			continue
		case m.Kind == msgTimeout:
			return in.timeoutAbort(ctx, txn, attempt, participants)
		}
		each(m)
		got++
	}
	return nil
}

// tell sends m to the control mailbox of each of iids.
func (in *Instance) tell(ctx *exec.Ctx, iids []InstanceID, m Msg) {
	for _, iid := range iids {
		in.net.Send(ctx, in.peers[iid].ctrlQ, m)
	}
}

// timeoutAbort tears down an attempt whose 2PC deadline expired: roll back
// the local part, tell every participant to abort (those that never got the
// work, or are down, ignore it; down islands drop the message anyway), and
// bill the teardown to the timeout bucket so deadline aborts are separable
// from wait-die aborts in the breakdown.
func (in *Instance) timeoutAbort(ctx *exec.Ctx, txn *Txn, attempt uint32, participants []InstanceID) error {
	in.Stats.TimeoutAborts++
	prev := ctx.Bucket(exec.BTimeout)
	ctx.Charge(CostTimeoutCPU)
	ctx.Bucket(prev)
	txn.abortLocal(ctx)
	in.tell(ctx, participants, Msg{Kind: msgAbort, From: in.ID, Txn: txn.TS, Attempt: attempt})
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
