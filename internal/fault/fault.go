// Package fault implements a deterministic, seed-driven fault-injection
// subsystem for island deployments. A Plan is a list of typed fault events
// — island crashes, degraded inter-island links, probabilistic message
// drops, and write-ahead-log stalls — each pinned to an exact simulated
// timestamp. An Injector arms the plan on the simulation kernel, so every
// fault fires at precisely its declared virtual time: the same seed and the
// same plan produce bit-identical runs, which is what lets failure
// experiments carry golden fingerprints like every healthy experiment.
//
// The injector itself knows nothing about networks, logs, or engines: it
// tracks which islands are down, which links are degraded, and the current
// drop probability, and exposes that state through Deliver/Down plus a set
// of callbacks (OnCrash/OnRestore/OnUp/OnWALStall) that the deployment
// layer wires to the components that act on each fault.
package fault

import (
	"fmt"
	"math/rand"

	"islands/internal/sim"
)

// Event is one scheduled fault. Implementations are the four typed events
// below; When returns the simulated timestamp the event fires at.
type Event interface {
	When() sim.Time
	// validate checks the event against the deployment's island count.
	validate(islands int) error
}

// IslandCrash kills island Island at time At: the instance loses all
// volatile state, its messages are dropped in both directions, and after
// DownFor it replays its WAL (the deployment charges the replay as extra
// downtime) and reopens.
type IslandCrash struct {
	At      sim.Time
	Island  int
	DownFor sim.Time
}

// When returns the crash timestamp.
func (e IslandCrash) When() sim.Time { return e.At }

func (e IslandCrash) validate(islands int) error {
	if e.Island < 0 || e.Island >= islands {
		return fmt.Errorf("fault: IslandCrash island %d out of range [0,%d)", e.Island, islands)
	}
	if e.DownFor <= 0 {
		return fmt.Errorf("fault: IslandCrash needs DownFor > 0, got %v", e.DownFor)
	}
	return nil
}

// LinkDegrade multiplies the wire latency of messages from island From to
// island To by Factor (> 1 slows the link) for Dur starting at At. Degrade
// both directions with two events.
type LinkDegrade struct {
	At       sim.Time
	From, To int
	Factor   float64
	Dur      sim.Time
}

// When returns the degradation onset.
func (e LinkDegrade) When() sim.Time { return e.At }

func (e LinkDegrade) validate(islands int) error {
	if e.From < 0 || e.From >= islands || e.To < 0 || e.To >= islands {
		return fmt.Errorf("fault: LinkDegrade link %d->%d out of range [0,%d)", e.From, e.To, islands)
	}
	if e.Factor <= 0 || e.Factor != e.Factor {
		return fmt.Errorf("fault: LinkDegrade needs Factor > 0, got %v", e.Factor)
	}
	if e.Dur <= 0 {
		return fmt.Errorf("fault: LinkDegrade needs Dur > 0, got %v", e.Dur)
	}
	return nil
}

// MsgDrop drops every inter-island message independently with probability
// Prob for Dur starting at At. Drop decisions come from the sending
// island's private seeded RNG, consumed in that island's delivery order —
// deterministic regardless of how islands are sharded, because an island's
// sends are totally ordered by its own shard.
type MsgDrop struct {
	At   sim.Time
	Prob float64
	Dur  sim.Time
}

// When returns the drop-window onset.
func (e MsgDrop) When() sim.Time { return e.At }

func (e MsgDrop) validate(int) error {
	if e.Prob < 0 || e.Prob > 1 || e.Prob != e.Prob {
		return fmt.Errorf("fault: MsgDrop needs Prob in [0,1], got %v", e.Prob)
	}
	if e.Dur <= 0 {
		return fmt.Errorf("fault: MsgDrop needs Dur > 0, got %v", e.Dur)
	}
	return nil
}

// WALStall adds Extra to island Island's log-flush device latency for Dur
// starting at At — a gray failure where the log device degrades without
// the island dying.
type WALStall struct {
	At     sim.Time
	Island int
	Extra  sim.Time
	Dur    sim.Time
}

// When returns the stall onset.
func (e WALStall) When() sim.Time { return e.At }

func (e WALStall) validate(islands int) error {
	if e.Island < 0 || e.Island >= islands {
		return fmt.Errorf("fault: WALStall island %d out of range [0,%d)", e.Island, islands)
	}
	if e.Extra <= 0 {
		return fmt.Errorf("fault: WALStall needs Extra > 0, got %v", e.Extra)
	}
	if e.Dur <= 0 {
		return fmt.Errorf("fault: WALStall needs Dur > 0, got %v", e.Dur)
	}
	return nil
}

// Plan is a deterministic fault schedule: typed events at exact simulated
// timestamps.
type Plan struct {
	Events []Event
}

// Validate checks every event against the deployment's island count.
func (p *Plan) Validate(islands int) error {
	for _, e := range p.Events {
		if e.When() < 0 {
			return fmt.Errorf("fault: event %T scheduled at negative time %v", e, e.When())
		}
		if err := e.validate(islands); err != nil {
			return err
		}
	}
	return nil
}

// HasCrash reports whether the plan contains an IslandCrash — crash plans
// require WAL retention so the replacement instance can replay.
func (p *Plan) HasCrash() bool {
	for _, e := range p.Events {
		if _, ok := e.(IslandCrash); ok {
			return true
		}
	}
	return false
}

// MinDeliveryScale returns the smallest factor the plan can ever multiply a
// message's wire latency by: 1 for plans whose LinkDegrades only slow links
// (Factor >= 1, the usual case), and the worst-case product of the
// accelerating factors otherwise (overlapping degrade windows multiply).
// The deployment layer scales its conservative-lookahead floors by this, so
// a plan that speeds a link up can never deliver under the kernel's
// cross-shard lookahead.
func (p *Plan) MinDeliveryScale() float64 {
	scale := 1.0
	for _, e := range p.Events {
		if d, ok := e.(LinkDegrade); ok && d.Factor < 1 {
			scale *= d.Factor
		}
	}
	return scale
}

// dropWindow and degradeWindow are static, immutable views of MsgDrop and
// LinkDegrade events: instead of timers mutating shared probability/factor
// state at onset and offset (which a sender on another shard could never
// read safely), Deliver evaluates the windows against the sender's own
// clock. Active windows sum (drop probability) or multiply (link factor).
type dropWindow struct {
	from, to sim.Time // [from, to)
	prob     float64
}

type degradeWindow struct {
	start, end sim.Time // [start, end)
	src, dst   int
	factor     float64
}

// Injector arms a Plan on a deployment's island domains and tracks live
// fault state. Crash and WAL-stall timers fire on the affected island's own
// domain, so their state transitions are always shard-local to that island;
// message-drop and link-degrade state is static (windows evaluated against
// the sender's clock) so Deliver reads no cross-shard mutable state at all.
// Per-island counters and RNG streams keep writes shard-local too; whole-run
// totals are summed on demand at barriers.
type Injector struct {
	k    *sim.Kernel
	doms []*sim.Domain

	// rngs[i] is island i's private drop stream, consumed only inside
	// active drop windows and only by island i's sends.
	rngs []*rand.Rand

	down      []bool
	downSince []sim.Time
	downAcc   []sim.Time // completed outage time per island

	drops    []dropWindow
	degrades []degradeWindow
	stall    []sim.Time // current extra flush latency per island

	// OnCrash fires at crash onset; OnRestore fires when DownFor elapses
	// and returns the recovery (WAL replay) duration, which extends the
	// outage; OnUp fires when the island reopens. OnWALStall reports the
	// island's current total extra flush latency whenever it changes. All
	// run in kernel context on the affected island's shard and must not
	// block.
	OnCrash    func(island int)
	OnRestore  func(island int) sim.Time
	OnUp       func(island int)
	OnWALStall func(island int, extra sim.Time)

	// Per-island crash counts; see Crashes for the barrier-time total.
	crashCount []uint64
}

// rngStride decorrelates per-island drop streams derived from one seed.
const rngStride = 0x9E3779B97F4A7C15

// NewInjector builds an injector for a deployment whose islands run on the
// given domains (doms[i] is island i's domain; a single-shard deployment
// passes per-island domains too, which is what keeps shard counts
// bit-identical). The seed drives only MsgDrop decisions; every other event
// is exact. The plan must already be validated.
func NewInjector(doms []*sim.Domain, seed int64, plan *Plan) (*Injector, error) {
	islands := len(doms)
	if err := plan.Validate(islands); err != nil {
		return nil, err
	}
	inj := &Injector{
		k:          doms[0].Kernel(),
		doms:       doms,
		rngs:       make([]*rand.Rand, islands),
		down:       make([]bool, islands),
		downSince:  make([]sim.Time, islands),
		downAcc:    make([]sim.Time, islands),
		stall:      make([]sim.Time, islands),
		crashCount: make([]uint64, islands),
	}
	for i := range inj.rngs {
		inj.rngs[i] = rand.New(rand.NewSource(seed + int64(uint64(i)*rngStride)))
	}
	for _, e := range plan.Events {
		switch f := e.(type) {
		case IslandCrash:
			dom := doms[f.Island]
			island, downFor := f.Island, f.DownFor
			dom.After(f.At-dom.Now(), func() { inj.crash(island, downFor) })
		case WALStall:
			dom := doms[f.Island]
			g := f
			dom.After(f.At-dom.Now(), func() {
				inj.stall[g.Island] += g.Extra
				if inj.OnWALStall != nil {
					inj.OnWALStall(g.Island, inj.stall[g.Island])
				}
				dom.After(g.Dur, func() {
					inj.stall[g.Island] -= g.Extra
					if inj.OnWALStall != nil {
						inj.OnWALStall(g.Island, inj.stall[g.Island])
					}
				})
			})
		case MsgDrop:
			inj.drops = append(inj.drops, dropWindow{from: f.At, to: f.At + f.Dur, prob: f.Prob})
		case LinkDegrade:
			inj.degrades = append(inj.degrades, degradeWindow{
				start: f.At, end: f.At + f.Dur, src: f.From, dst: f.To, factor: f.Factor,
			})
		default:
			return nil, fmt.Errorf("fault: unknown event type %T", e)
		}
	}
	return inj, nil
}

// crash marks an island down and schedules its restore. A crash of an
// already-down island is coalesced into the existing outage. Runs on the
// island's own domain.
func (inj *Injector) crash(island int, downFor sim.Time) {
	if inj.down[island] {
		return
	}
	dom := inj.doms[island]
	inj.down[island] = true
	inj.downSince[island] = dom.Now()
	inj.crashCount[island]++
	if inj.OnCrash != nil {
		inj.OnCrash(island)
	}
	dom.After(downFor, func() { inj.restore(island) })
}

// restore replays the island's log (via OnRestore, which returns the replay
// duration) and reopens it after that recovery time has passed.
func (inj *Injector) restore(island int) {
	var rec sim.Time
	if inj.OnRestore != nil {
		rec = inj.OnRestore(island)
	}
	dom := inj.doms[island]
	dom.After(rec, func() {
		inj.down[island] = false
		inj.downAcc[island] += dom.Now() - inj.downSince[island]
		if inj.OnUp != nil {
			inj.OnUp(island)
		}
	})
}

// Down reports whether an island is currently down. Safe from the island's
// own shard or at barriers.
func (inj *Injector) Down(island int) bool { return inj.down[island] }

// Crashes returns the whole-run crash count summed over islands.
// Barrier-time read.
func (inj *Injector) Crashes() uint64 {
	var n uint64
	for _, c := range inj.crashCount {
		n += c
	}
	return n
}

// DownTime returns the cumulative outage time summed over islands,
// including in-progress outages up to the current instant — the input to
// windowed availability. Barrier-time read.
func (inj *Injector) DownTime() sim.Time {
	var t sim.Time
	for i, d := range inj.down {
		t += inj.downAcc[i]
		if d {
			t += inj.k.Now() - inj.downSince[i]
		}
	}
	return t
}

// dropProbAt sums the probabilities of drop windows active at now.
func (inj *Injector) dropProbAt(now sim.Time) float64 {
	p := 0.0
	for i := range inj.drops {
		if w := &inj.drops[i]; now >= w.from && now < w.to {
			p += w.prob
		}
	}
	return p
}

// linkScaleAt multiplies the factors of degrade windows active on
// (from, to) at now.
func (inj *Injector) linkScaleAt(from, to int, now sim.Time) float64 {
	s := 1.0
	for i := range inj.degrades {
		if w := &inj.degrades[i]; w.src == from && w.dst == to && now >= w.start && now < w.end {
			s *= w.factor
		}
	}
	return s
}

// Deliver decides the fate of one message from island `from` to island `to`
// at the sender's virtual time `now`: dropped (sender down, or a MsgDrop
// window hit) and, if delivered, the factor to scale its wire latency by
// (link degradation). It runs on the *sender's* shard and touches only
// sender-local mutable state: the sender's down flag and RNG stream
// (consumed only while a drop window is active, so plans without MsgDrop
// events never touch it — and island i's draws are the same no matter how
// many shards the kernel runs).
//
// Messages to a down island are delivered, not dropped here: a receiver's
// down flag belongs to the receiver's shard, so the engine drops them at
// delivery time instead (its service loops discard traffic while down, and
// reopening clears the mailboxes) — same observable outcome, no cross-shard
// read.
func (inj *Injector) Deliver(from, to int, now sim.Time) (drop bool, scale float64) {
	if inj.down[from] {
		return true, 0
	}
	if p := inj.dropProbAt(now); p > 0 && inj.rngs[from].Float64() < p {
		return true, 0
	}
	return false, inj.linkScaleAt(from, to, now)
}
