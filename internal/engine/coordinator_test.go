package engine

import (
	"fmt"
	"testing"
	"unsafe"

	"islands/internal/sim"
)

// remoteKeySource gives worker w of instance 0 an update of its own local
// row w and of the remote row base+w, so every worker's work message
// carries different ops.
type remoteKeySource struct{ base int64 }

func (s remoteKeySource) Next(_ InstanceID, w int) Request {
	return Request{Ops: []Op{
		{Table: 1, Key: int64(w), Kind: OpUpdate},
		{Table: 1, Key: s.base + int64(w), Kind: OpUpdate},
	}}
}

// queuedWork drains in's work mailbox from a proc on its domain, paying
// each receive's CPU, and returns what was queued there.
func queuedWork(k *sim.Kernel, in *Instance) []Msg {
	var got []Msg
	done := false
	in.dom.Spawn("drain", func(p *sim.Proc) {
		ctx := in.newCtx(p, 0)
		for {
			m, ok := in.workQ.TryRecv(ctx)
			if !ok {
				done = true
				return
			}
			got = append(got, m)
		}
	})
	for !done {
		k.RunFor(100 * sim.Microsecond)
	}
	return got
}

// TestUnansweredWorkKeepsItsOps: a work message the participant never
// answered still references its coordinator's ops when the attempt ends —
// by the 2PC deadline or by the coordinator's own crash. That attempt's
// scratch must never serve a later attempt, or the participant would run
// the later attempt's ops under the earlier transaction. Instance 1 is
// connected but never started, so every work message sent to it stays
// queued, unanswered, and each attempt of instance 0 ends without a reply.
func TestUnansweredWorkKeepsItsOps(t *testing.T) {
	const rows = 2400 // instance 1 owns global keys 1200..2399
	for _, c := range []struct {
		name  string
		crash bool // crash and reopen instance 0 under its first attempts
	}{
		{"deadline", false},
		{"coordinator crash", true},
	} {
		t.Run(c.name, func(t *testing.T) {
			k := sim.NewKernel()
			defer k.Close()
			ins := retainedDeployment(k, 2, rows)
			for _, in := range ins {
				in.EnableFaultMode()
			}
			ins[0].Start(remoteKeySource{base: rows / 2})
			if c.crash {
				k.After(50*sim.Microsecond, ins[0].Crash)
				k.After(100*sim.Microsecond, func() { ins[0].Restore(); ins[0].Reopen() })
			}
			k.RunFor(2 * sim.Millisecond)

			msgs := queuedWork(k, ins[1])
			if len(msgs) < 2*len(ins[0].Cores) {
				t.Fatalf("%d work messages queued at the silent participant, want at least two per worker", len(msgs))
			}
			owner := map[*localOp]Msg{}
			for _, m := range msgs {
				if len(m.Ops) != 1 {
					t.Fatalf("work message of txn %d attempt %d has %d ops, want 1", m.Txn, m.Attempt, len(m.Ops))
				}
				w := m.Ops[0].Key // the remote key base+w, localized to w
				if w < 0 || int(w) >= len(ins[0].Cores) || m.Ops[0].Kind != OpUpdate {
					t.Fatalf("work message of txn %d attempt %d carries %+v, not a worker's remote update",
						m.Txn, m.Attempt, m.Ops[0])
				}
				first := unsafe.SliceData(m.Ops)
				if prev, ok := owner[first]; ok {
					t.Fatalf("txn %d attempt %d and txn %d attempt %d share one ops array: "+
						"an unanswered attempt's scratch was recycled", prev.Txn, prev.Attempt, m.Txn, m.Attempt)
				}
				owner[first] = m
			}
		})
	}
}

// TestSplitGroupsOpsByOwner: a coordinator scratch holds the local ops
// first, then one run per participant in order of first appearance, each
// in request order; and a scratch that has held a request splits another
// as long without allocating.
func TestSplitGroupsOpsByOwner(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	in := testDeployment(k, 4, 2400, true)[1] // instance i owns keys 600i..600i+599
	var req Request
	for _, key := range []int64{1900, 610, 5, 620, 1250, 7, 1899} {
		req.Ops = append(req.Ops, Op{Table: 1, Key: key, Kind: OpUpdate})
	}
	s := in.getCoordScratch()
	local := s.split(in, req)
	runs := [][]int64{keysOf(local)}
	start := int32(len(local))
	for _, end := range s.ends {
		runs = append(runs, keysOf(s.ops[start:end]))
		start = end
	}
	want := [][]int64{{10, 20}, {100, 99}, {5, 7}, {50}}
	if fmt.Sprint(s.remoteIDs) != "[3 0 2]" || fmt.Sprint(runs) != fmt.Sprint(want) {
		t.Fatalf("split into participants %v with runs %v, want [3 0 2] and %v", s.remoteIDs, runs, want)
	}
	in.putCoordScratch(s)
	if n := testing.AllocsPerRun(100, func() {
		s := in.getCoordScratch()
		s.split(in, req)
		in.putCoordScratch(s)
	}); n != 0 {
		t.Errorf("splitting on a recycled scratch allocates %.0f objects, want 0", n)
	}
}

func keysOf(ops []localOp) []int64 {
	keys := make([]int64, len(ops))
	for i, op := range ops {
		keys[i] = op.Key
	}
	return keys
}

// TestUndoLogGrowsStraightToHighWater: the first undo log on an instance
// doubles up to what its attempt needs; every later one that fills moves
// at once to that capacity.
func TestUndoLogGrowsStraightToHighWater(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	in := testDeployment(k, 1, 2400, true)[0]
	fill := func() {
		t := &Txn{in: in}
		for range 10 {
			t.pushUndo(undoEntry{})
		}
	}
	if n := testing.AllocsPerRun(1, fill); n != 1 {
		t.Errorf("a later 10-entry undo log allocates %.0f arrays, want 1", n)
	}
	if in.undoCap != 16 {
		t.Errorf("high-water mark %d after 10-entry logs, want 16", in.undoCap)
	}
}
