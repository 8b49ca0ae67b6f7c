package workload

import (
	"math/rand"
	"sync"

	"islands/internal/engine"
	"islands/internal/storage"
)

// PartitionInfo is what a generator needs to know about the deployment's
// partitioning: how many instances there are and which global key range
// each instance owns. core.RangePartitioner satisfies it.
type PartitionInfo interface {
	Instances() int
	Range(table storage.TableID, instance int) (base, rows int64)
}

// MicroConfig parameterizes the paper's microbenchmark (Section 5.2):
// transactions read or update RowsPerTxn rows. Local transactions touch
// rows of the submitting worker's partition; multisite transactions touch
// one local row plus RowsPerTxn-1 rows drawn uniformly (or Zipf-skewed)
// from the whole range — some of which may happen to be local, exactly as
// in the paper.
type MicroConfig struct {
	Table        storage.TableID
	GlobalRows   int64
	RowsPerTxn   int
	Write        bool
	PctMultisite float64 // 0..1
	ZipfS        float64 // 0 = uniform
	Seed         int64
}

// microStream is one (instance, worker) request stream: its RNG, the
// instance's key range and samplers, resolved once, and reusable
// per-request scratch. The closed-loop worker consumes a request fully
// before asking for the next one, and the engine copies whatever it keeps,
// so reusing the op buffer per stream is safe and keeps Next
// allocation-free in steady state (guarded by BenchmarkMicroNext).
type microStream struct {
	rng   *rand.Rand
	base  int64 // first global key of the instance's range
	local *Zipf // over the instance's range
	// global is over the whole table. It is resolved on the stream's first
	// multisite draw, not before: for s > 0 building it is O(GlobalRows),
	// and a deployment with no multisite work never needs it.
	global *Zipf
	ops    []engine.Op
}

// Micro generates microbenchmark requests. It is deterministic per
// (instance, worker) stream and safe for the simulator's single-threaded
// execution model.
type Micro struct {
	cfg   MicroConfig
	part  PartitionInfo
	zipfs *zipfCache
	kind  engine.OpKind

	// streams is lazily populated; each entry's content is a pure function
	// of its (instance, worker) key and the seed, so creation order is
	// irrelevant — the lock only makes concurrent first access from
	// different kernel shards race-free.
	mu      sync.RWMutex
	streams map[[2]int32]*microStream
}

// NewMicro builds a generator over the deployment described by part.
func NewMicro(cfg MicroConfig, part PartitionInfo) *Micro {
	if cfg.RowsPerTxn < 1 {
		panic("workload: RowsPerTxn must be >= 1")
	}
	kind := engine.OpRead
	if cfg.Write {
		kind = engine.OpUpdate
	}
	return &Micro{cfg: cfg, part: part, zipfs: newZipfCache(), kind: kind, streams: make(map[[2]int32]*microStream)}
}

func (m *Micro) stream(inst engine.InstanceID, worker int) *microStream {
	k := [2]int32{int32(inst), int32(worker)}
	m.mu.RLock()
	st := m.streams[k]
	m.mu.RUnlock()
	if st == nil {
		m.mu.Lock()
		if st = m.streams[k]; st == nil {
			base, rows := m.part.Range(m.cfg.Table, int(inst))
			st = &microStream{
				rng:   rand.New(rand.NewSource(m.cfg.Seed + int64(inst)*1315423911 + int64(worker)*2654435761)),
				base:  base,
				local: m.zipfs.get(rows, m.cfg.ZipfS),
				ops:   make([]engine.Op, 0, m.cfg.RowsPerTxn),
			}
			m.streams[k] = st
		}
		m.mu.Unlock()
	}
	return st
}

// Next implements engine.RequestSource. The returned request's op slice is
// valid until the same stream's next call (the closed-loop worker finishes
// one request before requesting the next).
func (m *Micro) Next(inst engine.InstanceID, worker int) engine.Request {
	st := m.stream(inst, worker)
	rng := st.rng
	multisite := rng.Float64() < m.cfg.PctMultisite
	// First row is always local to the submitting worker's partition.
	ops := append(st.ops[:0], engine.Op{Table: m.cfg.Table, Key: st.base + st.local.Sample(rng), Kind: m.kind})
	base, z := st.base, st.local
	if multisite {
		if st.global == nil {
			st.global = m.zipfs.get(m.cfg.GlobalRows, m.cfg.ZipfS)
		}
		base, z = 0, st.global
	}
	// Draw until a key the request does not hold yet appears; under heavy
	// skew a duplicate is accepted after eight tries (the engine treats
	// re-locked rows as already covered).
	for len(ops) < m.cfg.RowsPerTxn {
		key := base + z.Sample(rng)
		for tries := 0; tries < 8 && drawn(ops, key); tries++ {
			key = base + z.Sample(rng)
		}
		ops = append(ops, engine.Op{Table: m.cfg.Table, Key: key, Kind: m.kind})
	}
	st.ops = ops // keep the (possibly regrown) buffer for the next request
	return engine.Request{Ops: ops}
}

// drawn reports whether ops already holds key: a scan of at most
// RowsPerTxn ops, all of one table.
func drawn(ops []engine.Op, key int64) bool {
	for i := range ops {
		if ops[i].Key == key {
			return true
		}
	}
	return false
}
