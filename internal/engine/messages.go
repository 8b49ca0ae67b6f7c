package engine

import (
	"islands/internal/ipc"
)

// msgKind discriminates inter-instance messages.
type msgKind uint8

const (
	msgWork    msgKind = iota // coordinator -> participant: execute ops
	msgReply                  // participant -> coordinator: work result
	msgPrepare                // coordinator -> participant: 2PC phase 1
	msgVote                   // participant -> coordinator: 2PC vote
	msgCommit                 // coordinator -> participant: 2PC phase 2
	msgAbort                  // coordinator -> participant: roll back
	msgTimeout                // coordinator -> itself: attempt deadline (fault mode)
	msgExpire                 // participant -> itself: orphaned-txn GC (fault mode)
)

var msgKindNames = [...]string{"work", "reply", "prepare", "vote", "commit", "abort", "timeout", "expire"}

func (k msgKind) String() string { return msgKindNames[k] }

// localOp is an operation already translated to a participant's local key
// space.
type localOp struct {
	Table int32
	Key   int64
	Kind  OpKind
}

// Msg is the unit of inter-instance communication.
type Msg struct {
	Kind msgKind
	From InstanceID
	Txn  uint64 // global transaction timestamp (wait-die priority)

	// Attempt is the coordinator's attempt number for Txn. Under fault
	// injection a coordinator can time an attempt out and retry while
	// messages of the dead attempt are still in flight; every reply, vote
	// and decision carries the attempt so stale traffic is filtered instead
	// of being mistaken for the live attempt. In healthy runs no attempt
	// ends before every answer it awaits has arrived, so none is stale.
	Attempt uint32

	Ops []localOp // msgWork

	OK       bool // msgReply: executed; msgVote: vote yes
	ReadOnly bool // msgReply: participant held no writes and released

	// ReplyTo is the coordinator worker's private mailbox for this
	// transaction's replies and votes.
	ReplyTo *ipc.Endpoint[Msg]
}
