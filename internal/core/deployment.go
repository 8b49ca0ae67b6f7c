package core

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"sync"

	"islands/internal/engine"
	"islands/internal/fault"
	"islands/internal/ipc"
	"islands/internal/mem"
	"islands/internal/sim"
	"islands/internal/storage"
	"islands/internal/topology"
	"islands/internal/wal"
)

// PlacementKind selects how instances map onto cores.
type PlacementKind int

// Placement strategies of Figure 4 (plus OS for Figures 2/3).
const (
	// PlacementIslands is topology-aware: contiguous core blocks aligned
	// with sockets ("N Islands").
	PlacementIslands PlacementKind = iota
	// PlacementSpread is deliberately topology-unaware: every instance
	// spans as many sockets as possible ("N Spread").
	PlacementSpread
	// PlacementOS models leaving placement to the operating system:
	// uniformly random core assignment, possibly doubling up.
	PlacementOS
)

var placementNames = [...]string{"islands", "spread", "os"}

func (p PlacementKind) String() string { return placementNames[p] }

// DiskKind selects the backing device.
type DiskKind int

// Disk choices: the paper uses memory-mapped files except in Section 7.4.
const (
	DiskMMap DiskKind = iota
	DiskHDD
)

// TableDecl declares one global table.
type TableDecl = storage.TableDecl

// Config describes a deployment to build.
type Config struct {
	Machine   *topology.Machine
	Instances int
	Placement PlacementKind

	// ActiveCores restricts the deployment to the machine's first k cores
	// (whole sockets), for the core-scaling experiment of Figure 12.
	// 0 means all cores.
	ActiveCores int

	// InstanceCores overrides automatic placement with explicit core lists
	// (used for the Figure 3 thread-placement experiment). When set,
	// Instances and Placement are ignored.
	InstanceCores [][]topology.CoreID

	Tables []TableDecl

	Mechanism ipc.Mechanism // zero value = FIFO; DefaultConfig sets unix
	Wal       wal.Options
	Disk      DiskKind

	// BufferPoolPagesTotal caps the machine-wide buffer pool, split evenly
	// across instances (Figure 14). 0 sizes pools to fit each partition.
	BufferPoolPagesTotal int

	// LocalOnly declares that the workload never issues multisite
	// transactions. Single-worker instances then run the H-Store-style fast
	// path (no locking, no latching, serial execution token). The paper
	// applies this optimization to perfectly partitionable workloads only:
	// Section 7.1.2 calls locking "mandatory" once transactions are
	// distributed, so sweeps that include multisite points keep locking on
	// everywhere.
	//
	// It also makes the islands causally independent, and the deployment is
	// built that way: instances are not connected to each other and the
	// kernel gets no channel between their partitions, so every island runs a
	// whole Run window in one piece instead of synchronizing with neighbours
	// that cannot reach it. A request that needs another instance after all
	// is a contract violation and panics out of Run, naming this field.
	LocalOnly bool

	// DisableSingleThreadOpt keeps locking/latching on even for
	// single-worker instances under LocalOnly workloads (ablation of the
	// H-Store-style fast path).
	DisableSingleThreadOpt bool

	// Prewarm fills every buffer pool with the coldest-start pages before
	// measurement, without charging I/O: steady-state measurement for
	// disk-backed runs (Figure 14).
	Prewarm bool

	// DisableReadOnlyVote forces read-only 2PC participants through the
	// full prepare/commit rounds (ablation of the read-only optimization).
	DisableReadOnlyVote bool

	// ThinkTime inserts client think time between each worker's
	// transactions (closed loop with think). 0 keeps every worker
	// back-to-back — the saturated default. Sub-saturated cells are where
	// the kernel's distance-aware windows pay off: event streams with gaps
	// wider than the minimum lookahead let far islands jump a gap in one
	// window instead of one synchronization round per lookahead.
	ThinkTime sim.Time

	// Faults schedules deterministic fault injection (island crashes,
	// degraded links, message drops, WAL stalls) on the deployment. nil —
	// the default — leaves every code path exactly as a healthy run; a
	// plan with crash events forces Wal.Retain so recovery has a log to
	// replay. See the fault package for the determinism contract.
	Faults *fault.Plan

	// Shards selects how many host goroutines execute the simulation — a
	// wall-clock knob only. The kernel always gives every island its own
	// event partition (heap, clock, mailbox) and advances the partitions in
	// conservative lookahead windows; Shards is the number of workers that
	// run a window's runnable partitions:
	//
	//	 0 or 1 — the calling goroutine runs them in island order; no
	//	          goroutine is started (the default);
	//	>1      — that many workers, clamped to the island count;
	//	-1      — auto: min(islands, GOMAXPROCS).
	//
	// Partitioning requires >= 2 islands, disjoint per-instance core sets
	// (OS placement can double cores up), and a memory-mapped disk (the HDD
	// array is a machine-shared device); ineligible configs run on a single
	// partition, where the worker count is moot. Results are bit-identical
	// at every setting, partitioned or not: the kernel keys events by
	// (timestamp, island domain, domain-local sequence), an order that
	// depends on neither the partition layout nor the goroutine that ran
	// the event, and the cross-island wire latencies of the interconnect
	// model are the conservative lookahead that makes windowed execution
	// safe. The ISLANDS_FORCE_SHARDS environment variable, when set,
	// overrides this field (CI race legs force several workers on without
	// plumbing flags through every test).
	Shards int

	Seed int64
}

// DefaultConfig returns a config for the paper's standard microbenchmark
// dataset: one table of `rows` 250-byte rows on the given machine.
func DefaultConfig(m *topology.Machine, instances int, rows int64) Config {
	return Config{
		Machine:   m,
		Instances: instances,
		Placement: PlacementIslands,
		Tables:    []TableDecl{{ID: 1, Name: "rows", RowBytes: 250, Rows: rows}},
		Mechanism: ipc.UnixSocket,
		Wal:       wal.DefaultOptions(),
	}
}

// Deployment is a built, runnable configuration.
type Deployment struct {
	Cfg       Config
	Kernel    *sim.Kernel
	Model     *mem.Model
	Net       *ipc.Network[engine.Msg]
	Part      *RangePartitioner
	Instances []*engine.Instance

	// Disk is the machine-shared device, set only for DiskHDD; with the
	// default memory-mapped disks each instance owns a private device (a
	// crash-isolated, partition-local resource).
	Disk *storage.Disk

	// Injector drives the deployment's fault plan; nil for healthy runs.
	Injector *fault.Injector

	domains []*sim.Domain // one per island, in island order
	started bool
}

// NewDeployment builds instances, loads data, and wires the network.
func NewDeployment(cfg Config) *Deployment { return newDeployment(cfg, true) }

// NewSinglePartitionDeployment is NewDeployment with every island on one
// event partition — the classic one-heap kernel, which ineligible configs
// (see Config.Shards) get anyway. It exists as the reference that tests
// compare the partitioned default against; results are bit-identical.
func NewSinglePartitionDeployment(cfg Config) *Deployment { return newDeployment(cfg, false) }

func newDeployment(cfg Config, partitioned bool) *Deployment {
	if cfg.Machine == nil {
		panic("core: config needs a machine")
	}
	if cfg.Wal.FlushLatency == 0 {
		cfg.Wal = wal.DefaultOptions()
	}
	if cfg.Faults != nil && cfg.Faults.HasCrash() {
		// Crash recovery replays the retained log; without it a restarted
		// instance would come back empty.
		cfg.Wal.Retain = true
	}
	parts := cfg.InstanceCores
	if parts == nil {
		parts = placeInstances(cfg)
	}
	n := len(parts)

	k := sim.NewKernel()
	if partitioned && partitionable(cfg, parts) {
		k = sim.NewShardedMatrix(crossWireMatrix(cfg, parts))
		k.SetWorkers(resolveWorkers(cfg, n))
	}
	model := mem.NewModel(cfg.Machine)
	net := ipc.NewNetwork[engine.Msg](k, cfg.Machine, cfg.Mechanism)
	net.AttachModel(model)

	rows := make(map[storage.TableID]int64, len(cfg.Tables))
	for _, t := range cfg.Tables {
		rows[t.ID] = t.Rows
	}
	part := NewRangePartitioner(n, rows)

	// The HDD array is one machine-shared device; memory-mapped disks are
	// per-instance (engine.NewInstance makes one when opts.Disk is nil), so
	// every disk resource is local to its island's partition.
	var disk *storage.Disk
	if cfg.Disk == DiskHDD {
		disk = storage.HDDArray()
	}

	d := &Deployment{Cfg: cfg, Kernel: k, Model: model, Net: net, Part: part, Disk: disk}
	// One determinism domain per island, in island order, whatever the
	// partition layout — identical domain ids on one partition and on n are
	// what make the runs bit-identical. Island i runs on partition i.
	d.domains = make([]*sim.Domain, n)
	for i := 0; i < n; i++ {
		d.domains[i] = k.NewDomain(i % k.Shards())
	}
	for i := 0; i < n; i++ {
		specs := make([]engine.TableSpec, 0, len(cfg.Tables))
		for _, t := range cfg.Tables {
			specs = append(specs, engine.TableSpec{
				ID: t.ID, Name: t.Name, RowBytes: t.RowBytes,
				LocalRows: part.LocalRows(t.ID, i),
			})
		}
		single := len(parts[i]) == 1 && cfg.LocalOnly && !cfg.DisableSingleThreadOpt
		opts := engine.Options{
			Locking:             !single,
			Latching:            !single,
			SerialExecution:     single,
			Wal:                 cfg.Wal,
			Disk:                disk,
			DisableReadOnlyVote: cfg.DisableReadOnlyVote,
			ThinkTime:           cfg.ThinkTime,
			Tables:              specs,
		}
		if cfg.BufferPoolPagesTotal > 0 {
			opts.BufferPoolPages = cfg.BufferPoolPagesTotal / n
			if opts.BufferPoolPages < 8 {
				opts.BufferPoolPages = 8
			}
		}
		in := engine.NewInstance(k, cfg.Machine, model, net, engine.InstanceID(i), parts[i], part, d.domains[i], opts)
		d.Instances = append(d.Instances, in)
	}
	if !cfg.LocalOnly {
		for _, in := range d.Instances {
			in.Connect(d.Instances)
		}
	}
	if cfg.Faults != nil {
		d.wireFaults(parts)
	}
	if cfg.Prewarm {
		for _, in := range d.Instances {
			in.BufferPool().Prewarm(8)
		}
	}
	return d
}

// forcedShards reads the ISLANDS_FORCE_SHARDS override once per process.
var forcedShards = sync.OnceValue(func() int {
	v := os.Getenv("ISLANDS_FORCE_SHARDS")
	if v == "" {
		return 0
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		panic("core: bad ISLANDS_FORCE_SHARDS value " + strconv.Quote(v))
	}
	return n
})

// partitionable applies the eligibility rules documented on Config.Shards:
// whether every island can own a private event partition.
func partitionable(cfg Config, parts [][]topology.CoreID) bool {
	if len(parts) < 2 {
		return false
	}
	if cfg.Disk == DiskHDD {
		// The HDD array is one machine-shared queueing resource; its waiters
		// would cross partition boundaries.
		return false
	}
	// Placement may double a core up across instances (PlacementOS draws
	// with replacement, InstanceCores is caller-provided); shared cores mean
	// shared run queues and shared mem.Model per-core counters.
	seen := make(map[topology.CoreID]int)
	for i, cores := range parts {
		for _, c := range cores {
			if prev, ok := seen[c]; ok && prev != i {
				return false
			}
			seen[c] = i
		}
	}
	return true
}

// resolveWorkers turns Config.Shards (plus the ISLANDS_FORCE_SHARDS
// override) into the worker count of a partitioned kernel over the given
// number of islands.
func resolveWorkers(cfg Config, islands int) int {
	want := cfg.Shards
	if f := forcedShards(); f != 0 {
		want = f
	}
	if want < 0 {
		want = runtime.GOMAXPROCS(0)
	}
	return max(1, min(want, islands))
}

// crossWireMatrix computes the kernel's per-partition-pair conservative
// lookahead matrix from the interconnect model: entry [i][j] is the minimum
// delivery latency of any message from island i to island j (island i runs
// on partition i). Any two instances with cores on one socket bound their
// pair by the same-socket handoff; otherwise the fabric's
// LatencyScale-scaled wire term, minimized over the instances' socket hop
// distances, applies — precomputed as one dense socket table so the island
// scan is lookups, not repeated scaling arithmetic.
//
// This is Chandy–Misra distance-based lookahead: islands that are far apart
// on the fabric (ring antipodes, torus corners) declare wide floors, which
// the kernel's windowing turns into wider windows and fewer rounds than a
// single global minimum would. A fault plan that can speed links up
// (LinkDegrade Factor < 1) shrinks every floor by its worst-case delivery
// scale, keeping the floors sound under injection. Entries are always
// positive — except under Config.LocalOnly, where no island ever sends to
// another: the matrix then declares no channel at all, and the kernel runs
// every island to the end of each Run in a single window.
func crossWireMatrix(cfg Config, parts [][]topology.CoreID) [][]sim.Time {
	la := make([][]sim.Time, len(parts))
	for i := range la {
		la[i] = make([]sim.Time, len(parts))
	}
	if cfg.LocalOnly {
		return la
	}

	m := cfg.Machine
	costs := ipc.CostsFor(cfg.Mechanism)
	wire := m.CrossTable(costs.WireSameSocket, costs.WireCrossBase, costs.WireCrossPerHop)
	socketOf := m.SocketTable()

	scale := 1.0
	if cfg.Faults != nil {
		scale = cfg.Faults.MinDeliveryScale()
	}

	n := m.SocketCount
	for i := range parts {
		for j := range parts {
			if i == j {
				continue
			}
			floor := sim.Time(0)
			for _, a := range parts[i] {
				for _, b := range parts[j] {
					if w := wire[int(socketOf[a])*n+int(socketOf[b])]; floor == 0 || w < floor {
						floor = w
					}
				}
			}
			if floor <= 0 {
				panic("core: cross-island wire latency must be positive for partitioning")
			}
			if scale < 1 {
				// Truncate exactly as ipc.Send scales a degraded delivery, so
				// the floor stays under every reachable latency.
				if floor = sim.Time(float64(floor) * scale); floor < 1 {
					floor = 1
				}
			}
			la[i][j] = floor
		}
	}
	return la
}

// wireFaults connects the fault injector to the deployment: the network
// consults it on every delivery (keyed by the sending and receiving cores'
// islands plus the sender's clock), and its crash events drive the instance
// crash/recover/reopen lifecycle on the crashed island's own domain. Fault
// injection consumes RNG state only inside drop windows — one private
// stream per sender island, so draws stay on the owning partition.
func (d *Deployment) wireFaults(parts [][]topology.CoreID) {
	inj, err := fault.NewInjector(d.domains, d.Cfg.Seed+0x0F, d.Cfg.Faults)
	if err != nil {
		panic("core: invalid fault plan: " + err.Error())
	}
	d.Injector = inj

	// Map each core to the island (instance) it belongs to; cores outside
	// every instance never originate or receive engine messages.
	coreIsland := make([]int, len(d.Cfg.Machine.AllCores()))
	for i := range coreIsland {
		coreIsland[i] = -1
	}
	for i, cores := range parts {
		for _, c := range cores {
			coreIsland[c] = i
		}
	}
	d.Net.SetFault(func(from, to topology.CoreID, now sim.Time) (bool, float64) {
		fi, ti := -1, -1
		if int(from) < len(coreIsland) {
			fi = coreIsland[from]
		}
		if int(to) < len(coreIsland) {
			ti = coreIsland[to]
		}
		if fi < 0 || ti < 0 {
			return false, 1
		}
		return inj.Deliver(fi, ti, now)
	})

	inj.OnCrash = func(i int) { d.Instances[i].Crash() }
	inj.OnRestore = func(i int) sim.Time { return d.Instances[i].Restore() }
	inj.OnUp = func(i int) { d.Instances[i].Reopen() }
	inj.OnWALStall = func(i int, extra sim.Time) { d.Instances[i].Wal().SetExtraFlushLatency(extra) }
	for _, in := range d.Instances {
		in.EnableFaultMode()
	}
}

// placeInstances derives per-instance core lists from the placement kind.
func placeInstances(cfg Config) [][]topology.CoreID {
	m := cfg.Machine
	cores := m.AllCores()
	if cfg.ActiveCores > 0 {
		if cfg.ActiveCores > len(cores) {
			panic(fmt.Sprintf("core: %d active cores exceed machine", cfg.ActiveCores))
		}
		cores = cores[:cfg.ActiveCores]
	}
	n := cfg.Instances
	if n < 1 {
		panic("core: config needs >= 1 instance")
	}
	switch cfg.Placement {
	case PlacementIslands:
		return topology.PartitionSubset(cores, n)
	case PlacementSpread:
		if cfg.ActiveCores == 0 {
			return topology.SpreadPartition(m, n)
		}
		// Transpose within the active subset.
		perSocket := m.CoresPerSocket
		sockets := len(cores) / perSocket
		ordered := make([]topology.CoreID, 0, len(cores))
		for j := 0; j < perSocket; j++ {
			for s := 0; s < sockets; s++ {
				ordered = append(ordered, cores[s*perSocket+j])
			}
		}
		return topology.PartitionSubset(ordered, n)
	case PlacementOS:
		rng := rand.New(rand.NewSource(cfg.Seed + 0x05))
		shuffled := append([]topology.CoreID(nil), cores...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		// OS placement may double threads onto cores while leaving others
		// idle: draw with replacement.
		for i := range shuffled {
			shuffled[i] = cores[rng.Intn(len(cores))]
		}
		return topology.PartitionSubset(shuffled, n)
	default:
		panic("core: unknown placement")
	}
}

// Start launches every instance's threads with src as the request driver.
func (d *Deployment) Start(src engine.RequestSource) {
	if d.started {
		panic("core: deployment already started")
	}
	d.started = true
	for _, in := range d.Instances {
		in.Start(src)
	}
}

// Close tears down the simulation: it kills all threads, then — nothing can
// touch a page any more — releases every instance's page memory for the next
// deployment to reuse. The instances' storage is unusable afterwards; read
// whatever you need (buffer-pool counters, SumRowVersions) before closing.
// Closing twice is harmless.
func (d *Deployment) Close() {
	d.Kernel.Close()
	for _, in := range d.Instances {
		in.Close()
	}
}

// Label returns the paper's configuration label, e.g. "24ISL" or "1ISL".
func (d *Deployment) Label() string {
	return fmt.Sprintf("%dISL", len(d.Instances))
}
