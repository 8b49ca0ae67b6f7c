package engine

import (
	"fmt"
	"math"

	"islands/internal/exec"
	"islands/internal/ipc"
	"islands/internal/lock"
	"islands/internal/mem"
	"islands/internal/sim"
	"islands/internal/storage"
	"islands/internal/topology"
	"islands/internal/wal"
)

// TableSpec declares one table of an instance. LocalRows is the number of
// rows this instance's partition holds.
type TableSpec struct {
	ID        storage.TableID
	Name      string
	RowBytes  int
	LocalRows int64
}

// Options configure an instance.
type Options struct {
	// Locking enables the lock manager; disabled for single-threaded
	// instances (H-Store-style optimization).
	Locking bool
	// Latching enables page latches; disabled alongside locking.
	Latching bool
	// SerialExecution makes the partition execute one transaction at a time
	// via an execution token (H-Store style). Set together with
	// Locking=false on single-worker instances: isolation then comes from
	// the token instead of the lock manager.
	SerialExecution bool
	// BufferPoolPages caps the buffer pool; 0 sizes it to hold the whole
	// partition plus slack (the paper's default: data fits the pool).
	BufferPoolPages int
	// Wal configures the log manager.
	Wal wal.Options
	// Disk backs data pages; nil uses a memory-mapped disk.
	Disk *storage.Disk
	// DisableReadOnlyVote forces read-only participants through the full
	// two-phase commit (prepare + commit rounds) instead of voting
	// read-only at work-reply time. Ablation knob: quantifies the
	// optimization's contribution to distributed read performance.
	DisableReadOnlyVote bool
	// ThinkTime inserts client think time between a worker's transactions
	// (closed loop with think, TPC-style). 0 — the default — keeps workers
	// back-to-back (fully saturated). The wait happens off-core and bills
	// nowhere: it models the client, not the database.
	ThinkTime sim.Time
	// Tables lists the partition's tables.
	Tables []TableSpec
}

// DefaultOptions returns a multi-threaded instance configuration.
func DefaultOptions(tables ...TableSpec) Options {
	return Options{Locking: true, Latching: true, Wal: wal.DefaultOptions(), Tables: tables}
}

type tableState struct {
	def *storage.Table
	idx *storage.BTree
}

// Stats aggregates an instance's execution counters. The harness resets it
// after warmup and reads it at the end of the measurement window.
type Stats struct {
	Committed uint64
	Aborted   uint64 // wait-die victims that were retried
	Local     uint64 // committed single-site transactions
	Multisite uint64 // committed transactions with >= 1 participant

	TxnTime   sim.Time // summed wall latency of committed transactions
	Breakdown exec.Breakdown

	SubWork     uint64 // subordinate work requests executed
	SubReadOnly uint64 // ... that voted read-only
	Prepares    uint64

	// Fault-injection counters (all zero in healthy runs).
	Crashes       uint64   // fail-stop crashes of this instance
	TimeoutAborts uint64   // coordinator attempts aborted on the 2PC deadline
	Expired       uint64   // orphaned subordinate txns GC'd by presumed abort
	RecoveryTime  sim.Time // virtual time spent replaying the WAL after crashes

	// RowsCommitted counts row-version bumps whose transactions committed
	// on this instance: the atomicity invariant ties it to the versions
	// readable in the data (see Instance.SumRowVersions).
	RowsCommitted uint64
}

// Instance is one database of the shared-nothing deployment (or the single
// database of a shared-everything deployment).
type Instance struct {
	ID    InstanceID
	Cores []topology.CoreID

	k     *sim.Kernel
	topo  *topology.Machine
	model *mem.Model
	cpus  []*sim.Mutex

	store  *storage.PageStore
	bp     *storage.BufferPool
	wal    *wal.Manager
	locks  *lock.Manager
	tables []*tableState // by TableID; nil where none is declared
	ws     mem.WorkingSet

	// txnLine is the transaction-manager metadata line (begin/commit touch
	// it): a classic shared-everything hotspot.
	txnLine mem.Line

	// dilation stretches this instance's compute charges according to its
	// topology footprint (see the dilation constants in request.go).
	dilation float64

	net   *ipc.Network[Msg]
	workQ *ipc.Endpoint[Msg]
	ctrlQ *ipc.Endpoint[Msg]
	peers []*Instance

	part Partitioner

	// dom is the instance's determinism domain (one per island); all of the
	// instance's procs, mailboxes, and timers run on its shard.
	dom *sim.Domain

	// Transaction timestamps are allocated instance-locally and interleaved
	// by stride so they stay globally unique and fair for wait-die priority
	// without a deployment-global counter (which would be a cross-shard
	// hotspot and make allocation order depend on the shard mapping):
	// ts = tsNext*tsStride + ID + 1.
	tsNext   uint64
	tsStride uint64

	serial  *execToken // non-nil under SerialExecution
	pending map[uint64]*Txn
	opts    Options

	// disk and bpPages are kept so Restore can rebuild the volatile state
	// (buffer pool, page store) a crash destroys.
	disk    *storage.Disk
	bpPages int

	// Fault-mode state. faulty is set once by the deployment when a fault
	// plan is present; it gates every timing change (deadline sentinels,
	// filtered collection loops) so healthy runs stay bit-identical. epoch
	// counts crashes: a thread that blocked before a crash compares the
	// epoch it started under against the current one and abandons the
	// attempt instead of touching the rebuilt state.
	faulty      bool
	down        bool
	epoch       uint32
	downWaiters []*sim.Proc

	// coordFree is the free list of coordinator attempt scratches (see
	// coordScratch in coordinator.go). One scratch per concurrently-live
	// coordinator attempt; recycled, so the steady state allocates nothing.
	coordFree *coordScratch
	coordCaps scratchCaps

	// txnFree is the free list of finished attempts' Txns (see putTxn), so
	// undo logs are grown once per concurrently-live attempt, not once per
	// attempt. A fresh Txn starts at the largest undo-log capacity a
	// recycled one has reached.
	txnFree *Txn
	undoCap int

	Stats Stats
}

// NewInstance builds (and loads) an instance on the given cores.
// dom is the instance's island domain; nil binds it to the kernel's default
// domain (single-machine tests).
func NewInstance(k *sim.Kernel, topo *topology.Machine, model *mem.Model,
	net *ipc.Network[Msg], id InstanceID, cores []topology.CoreID,
	part Partitioner, dom *sim.Domain, opts Options) *Instance {

	if len(cores) == 0 {
		panic("engine: instance needs at least one core")
	}
	if dom == nil {
		dom = k.DefaultDomain()
	}
	in := &Instance{
		ID:       id,
		Cores:    cores,
		k:        k,
		topo:     topo,
		model:    model,
		net:      net,
		part:     part,
		dom:      dom,
		tsStride: uint64(part.Instances()),
		opts:     opts,
		pending:  make(map[uint64]*Txn),
	}
	// Threads bound to the same physical core share its run queue (the OS
	// placement strategy can double up workers on a core).
	byCore := make(map[topology.CoreID]*sim.Mutex)
	in.cpus = make([]*sim.Mutex, len(cores))
	for i, c := range cores {
		if byCore[c] == nil {
			byCore[c] = &sim.Mutex{}
		}
		in.cpus[i] = byCore[c]
	}
	if opts.SerialExecution {
		in.serial = &execToken{}
	}

	totalPages, totalBytes := in.loadTables()

	in.disk = opts.Disk
	if in.disk == nil {
		in.disk = storage.MMapDisk()
	}
	in.bpPages = opts.BufferPoolPages
	if in.bpPages <= 0 {
		in.bpPages = int(totalPages) + 64
	}
	in.bp = storage.NewBufferPool(in.store, in.disk, in.bpPages)
	in.wal = wal.NewManager(dom, opts.Wal)
	in.locks = lock.NewManager(opts.Locking)

	home := topo.SocketOf(cores[0])
	in.ws = mem.WorkingSet{
		Bytes:       totalBytes,
		HomeSocket:  home,
		Interleaved: topology.SocketsSpanned(topo, cores) > 1,
		Cores:       cores,
	}

	span := topology.SocketsSpanned(topo, cores)
	in.dilation = 1 +
		dilationPerCoreCoeff*math.Pow(float64(len(cores)-1), dilationPerCoreExp) +
		dilationPerSocketCoeff*math.Pow(float64(span-1), dilationPerSocketExp)
	if llcEff := topo.LLCBytes * int64(span); totalBytes > llcEff {
		in.dilation += dilationCapacityCoeff * float64(totalBytes-llcEff) / float64(totalBytes)
	}

	in.workQ = net.NewEndpointIn(dom, cores[0])
	in.ctrlQ = net.NewEndpointIn(dom, cores[0])
	return in
}

// loadTables gives the instance a fresh page store and its declared tables,
// each with a freshly bulk-loaded index — the bring-up NewInstance and
// Restore share — and returns the tables' total pages and bytes.
func (in *Instance) loadTables() (pages, bytes int64) {
	in.store = storage.NewPageStore()
	in.tables = nil
	for _, spec := range in.opts.Tables {
		def := &storage.Table{ID: spec.ID, Name: spec.Name, RowBytes: spec.RowBytes, NumRows: spec.LocalRows}
		in.store.AddTable(def)
		idx := storage.NewBTree(0)
		idx.BulkLoadRange(spec.LocalRows, def.Locate, 0.9)
		for int(spec.ID) >= len(in.tables) {
			in.tables = append(in.tables, nil)
		}
		in.tables[spec.ID] = &tableState{def: def, idx: idx}
		pages += def.NumPages()
		bytes += def.Bytes()
	}
	return pages, bytes
}

// table returns the state of table id, or nil if the instance has none.
func (in *Instance) table(id storage.TableID) *tableState {
	if uint(id) < uint(len(in.tables)) {
		return in.tables[id]
	}
	return nil
}

// Dilation returns the instance's compute dilation factor (diagnostics).
func (in *Instance) Dilation() float64 { return in.dilation }

// Connect wires the instance to its peers (including itself, indexed by
// InstanceID). Must be called before Start. An instance that is never
// connected can only run local requests; a multisite one panics.
func (in *Instance) Connect(peers []*Instance) { in.peers = peers }

// BufferPool exposes the buffer pool (metrics).
func (in *Instance) BufferPool() *storage.BufferPool { return in.bp }

// Wal exposes the log manager (metrics).
func (in *Instance) Wal() *wal.Manager { return in.wal }

// Locks exposes the lock manager (metrics).
func (in *Instance) Locks() *lock.Manager { return in.locks }

// WorkingSet exposes the memory-model working set (metrics).
func (in *Instance) WorkingSet() *mem.WorkingSet { return &in.ws }

// SumRowVersions sums the row version counters of every table, reading the
// current buffer-pool and page-store state without consuming any virtual
// time and without changing either (no page is fetched, no row synthesized,
// no counter moves, no page struct is made, nothing is allocated): a
// consistent instantaneous snapshot. A page that is neither resident with a
// struct nor retained as a dirty image holds only version-0 rows. With
// strict two-phase locking, at any instant the machine-wide sum equals the
// machine-wide committed row updates plus the bumps of in-flight
// transactions (at most one transaction per worker thread): the atomicity
// invariant used by failure-injection tests.
func (in *Instance) SumRowVersions() uint64 {
	var sum uint64
	for _, ts := range in.tables {
		if ts == nil {
			continue
		}
		for no := int64(0); no < ts.def.NumPages(); no++ {
			id := storage.PageID{Table: ts.def.ID, No: no}
			if v, resident := in.bp.RowVersionSum(id); resident {
				sum += v
			} else {
				sum += in.store.RetainedRowVersionSum(id)
			}
		}
	}
	return sum
}

// Close hands the buffer pool's Page structs to the next pool (see
// storage.BufferPool.Close) and drops the pool and page store, so a later
// Fix, Peek or SumRowVersions panics instead of reading a struct another
// deployment now owns. The caller guarantees no thread of the instance will
// run again (core.Deployment.Close kills them first). Closing twice is
// harmless.
func (in *Instance) Close() {
	if in.bp != nil {
		in.bp.Close()
	}
	in.store, in.bp = nil, nil
}

// newCtx builds an execution context for a thread on the i-th core.
func (in *Instance) newCtx(p *sim.Proc, i int) *exec.Ctx {
	ctx := exec.New(p, in.Cores[i%len(in.Cores)], in.model, in.cpus[i%len(in.cpus)])
	ctx.BD = &in.Stats.Breakdown
	ctx.Dilation = in.dilation
	return ctx
}

// Start spawns the instance's threads: one worker per core executing
// requests from src, one service thread per core executing subordinate work
// for remote coordinators, and one control thread per core handling 2PC
// prepare/commit/abort. Control traffic is segregated from work traffic so
// lock releases can never be starved by queued work (which would otherwise
// allow distributed stalls).
func (in *Instance) Start(src RequestSource) {
	for i := range in.Cores {
		i := i
		in.dom.Spawn(fmt.Sprintf("i%d/worker%d", in.ID, i), func(p *sim.Proc) {
			in.workerLoop(p, i, src)
		})
		in.dom.Spawn(fmt.Sprintf("i%d/service%d", in.ID, i), func(p *sim.Proc) {
			in.serviceLoop(p, i)
		})
		in.dom.Spawn(fmt.Sprintf("i%d/ctrl%d", in.ID, i), func(p *sim.Proc) {
			in.ctrlLoop(p, i)
		})
	}
}

// StartWorkersOnly spawns only request-executing workers; used by unit tests
// and single-instance deployments where no 2PC traffic can arrive.
func (in *Instance) StartWorkersOnly(src RequestSource) {
	for i := range in.Cores {
		i := i
		in.dom.Spawn(fmt.Sprintf("i%d/worker%d", in.ID, i), func(p *sim.Proc) {
			in.workerLoop(p, i, src)
		})
	}
}

func (in *Instance) workerLoop(p *sim.Proc, i int, src RequestSource) {
	ctx := in.newCtx(p, i)
	reply := in.net.NewEndpointIn(in.dom, ctx.Core)
	timed, _ := src.(TimedRequestSource)
	for {
		if in.opts.ThinkTime > 0 {
			p.Advance(in.opts.ThinkTime) // client thinking: off-core, unbilled
		}
		var req Request
		if timed != nil {
			req = timed.NextAt(in.ID, i, p.Now())
		} else {
			req = src.Next(in.ID, i)
		}
		if in.faulty && in.down {
			in.waitUp(ctx) // crashed: the request waits out the outage
		}
		ctx.Schedule()
		prev := ctx.Bucket(exec.BXct)
		ctx.Charge(CostDispatch)
		ctx.Bucket(prev)
		start := p.Now()
		in.runTxn(ctx, req, reply)
		in.Stats.TxnTime += p.Now() - start
		ctx.Deschedule()
	}
}

func (in *Instance) serviceLoop(p *sim.Proc, i int) {
	ctx := in.newCtx(p, i)
	for {
		ctx.Schedule()
		m := in.workQ.RecvIdle(ctx) // wait is idle, not txn cost
		if in.faulty && in.down {
			ctx.Deschedule()
			continue // crashed: drop in-flight traffic on the floor
		}
		in.handleWork(ctx, m)
		ctx.Deschedule()
	}
}

func (in *Instance) ctrlLoop(p *sim.Proc, i int) {
	ctx := in.newCtx(p, i)
	for {
		ctx.Schedule()
		m := in.ctrlQ.RecvIdle(ctx)
		if in.faulty && in.down {
			ctx.Deschedule()
			continue // crashed: drop in-flight traffic on the floor
		}
		in.handleCtrl(ctx, m)
		ctx.Deschedule()
	}
}
