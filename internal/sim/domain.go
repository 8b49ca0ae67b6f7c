package sim

// Domain is a determinism unit: a named source of event sequence numbers
// pinned to one shard. Every event carries the (domain id, domain-local seq)
// assigned by the domain that *scheduled* it, so the global execution order —
// (at, dom, seq) lexicographic — is a pure function of simulation behavior,
// independent of how domains are distributed over shards or of wall-clock
// interleaving between shard goroutines.
//
// A deployment creates one domain per simulated island regardless of shard
// count; that is what makes a 1-shard and an n-shard run bit-identical. The
// kernel's default domain (id 0) backs the legacy Kernel.Spawn/After surface
// for single-machine simulations and tests.
//
// All of a domain's work — its procs, queues, and timers — must run on its
// shard; only Queue.PushAfterFrom may be invoked from a different shard, and
// only with a delay no shorter than the kernel's lookahead. Creating domains
// and spawning procs is only safe while the kernel is idle (no Run/RunUntil
// in progress) or from the domain's own shard.
type Domain struct {
	sh  *shard
	id  int32
	seq uint64
}

// NewDomain creates a new determinism domain pinned to the given shard.
// Domain ids are assigned in creation order; callers must create domains in
// a deterministic order (the deployment creates one per island, in island
// order) so ids are stable across runs and shard mappings.
func (k *Kernel) NewDomain(shard int) *Domain {
	d := &Domain{sh: k.shards[shard], id: int32(len(k.domains))}
	k.domains = append(k.domains, d)
	return d
}

// DefaultDomain returns the kernel's built-in domain 0 on shard 0.
func (k *Kernel) DefaultDomain() *Domain { return k.domains[0] }

// Kernel returns the owning kernel.
func (d *Domain) Kernel() *Kernel { return d.sh.k }

// Now returns the domain's shard-local virtual clock — the authoritative
// "now" for this domain even while a parallel window is executing.
func (d *Domain) Now() Time { return d.sh.now }

// After schedules fn to run in kernel context d from now, on this domain's
// shard. fn must not block; it may push to queues, unpark procs, or schedule
// more events. It must only be called from the domain's own shard (or while
// the kernel is idle).
func (d *Domain) After(dur Time, fn func()) {
	d.seq++
	d.sh.push(event{at: d.sh.clamp(d.sh.now + dur), dom: d.id, seq: d.seq, fn: fn})
}

// schedProc schedules a proc wakeup keyed by the proc's own domain.
func schedProc(at Time, p *Proc) {
	d := p.dom
	d.seq++
	d.sh.push(event{at: d.sh.clamp(at), dom: d.id, seq: d.seq, proc: p})
}

// scheduleArg schedules a pre-bound (fn, arg) callback keyed by src, into
// src's own shard.
func (d *Domain) scheduleArg(at Time, fn func(uint32), arg uint32) {
	d.seq++
	d.sh.push(event{at: d.sh.clamp(at), dom: d.id, seq: d.seq, fnArg: fn, arg: arg})
}

// Spawn creates a Proc owned by this domain that begins running fn at the
// domain's current virtual time. The name is for diagnostics only.
func (d *Domain) Spawn(name string, fn func(*Proc)) *Proc {
	p := d.sh.k.newProc(d, name, fn)
	schedProc(d.sh.now, p)
	return p
}

// SpawnAt is Spawn with a start delay.
func (d *Domain) SpawnAt(dur Time, name string, fn func(*Proc)) *Proc {
	p := d.sh.k.newProc(d, name, fn)
	schedProc(d.sh.now+dur, p)
	return p
}
