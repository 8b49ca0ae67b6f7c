package workload

import (
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

// microStream is one (instance, worker) request stream: its generator and
// reusable per-request scratch. The closed-loop worker consumes a request
// fully before asking for the next one, and the engine copies whatever it
// keeps, so reusing the op buffer per stream is safe and keeps Next
// allocation-free in steady state (guarded by BenchmarkMicroNext).
type microStream struct {
	src source
	ops []engine.Op
}

// microInstance is what an instance's streams share, resolved once by
// NewMicro: the instance's key range and its sampler.
type microInstance struct {
	base  int64 // first global key of the instance's range
	local *Zipf // over the instance's range
	// streams is indexed by worker. Only the kernel partition that runs the
	// instance calls Next for it, so it grows without a lock.
	streams []*microStream
}

// Micro generates microbenchmark requests. It is deterministic per
// (instance, worker) stream, and streams of different instances may be
// driven concurrently.
type Micro struct {
	cfg    MicroConfig
	kind   engine.OpKind
	insts  []microInstance
	global *Zipf // over the whole table; nil without multisite work
}

// NewMicro builds a generator over the deployment described by part. It
// resolves every sampler the generator can draw from: one per distinct
// instance range size and, with multisite work, one over the whole table.
// For s > 0 building one is O(rows), so equal sizes share one.
func NewMicro(cfg MicroConfig, part PartitionInfo) *Micro {
	if cfg.RowsPerTxn < 1 {
		panic("workload: RowsPerTxn must be >= 1")
	}
	m := &Micro{cfg: cfg, kind: engine.OpRead, insts: make([]microInstance, part.Instances())}
	if cfg.Write {
		m.kind = engine.OpUpdate
	}
	var zipfs []*Zipf
	sampler := func(n int64) *Zipf {
		for _, z := range zipfs {
			if z.n == n {
				return z
			}
		}
		z := NewZipf(n, cfg.ZipfS)
		zipfs = append(zipfs, z)
		return z
	}
	for i := range m.insts {
		base, rows := part.Range(cfg.Table, i)
		m.insts[i] = microInstance{base: base, local: sampler(rows)}
	}
	if cfg.PctMultisite > 0 {
		m.global = sampler(cfg.GlobalRows)
	}
	return m
}

// stream returns the (inst, worker) stream, creating it on first use.
func (m *Micro) stream(in *microInstance, inst engine.InstanceID, worker int) *microStream {
	if worker < len(in.streams) && in.streams[worker] != nil {
		return in.streams[worker]
	}
	st := &microStream{ops: make([]engine.Op, 0, m.cfg.RowsPerTxn)}
	st.src.seed(m.cfg.Seed + int64(inst)*1315423911 + int64(worker)*2654435761)
	in.streams = placeStream(in.streams, worker, st)
	return st
}

// placeStream stores st at streams[worker], growing streams as needed.
func placeStream[S any](streams []*S, worker int, st *S) []*S {
	if worker >= len(streams) {
		streams = append(streams, make([]*S, worker+1-len(streams))...)
	}
	streams[worker] = st
	return streams
}

// Next implements engine.RequestSource. The returned request's op slice is
// valid until the same stream's next call (the closed-loop worker finishes
// one request before requesting the next).
func (m *Micro) Next(inst engine.InstanceID, worker int) engine.Request {
	in := &m.insts[inst]
	st := m.stream(in, inst, worker)
	src := &st.src
	multisite := src.Float64() < m.cfg.PctMultisite
	// First row is always local to the submitting worker's partition.
	ops := append(st.ops[:0], engine.Op{Table: m.cfg.Table, Key: in.base + in.local.sample(src), Kind: m.kind})
	base, z := in.base, in.local
	if multisite {
		base, z = 0, m.global
	}
	// Draw until a key the request does not hold yet appears; under heavy
	// skew a duplicate is accepted after eight tries (the engine treats
	// re-locked rows as already covered).
	for len(ops) < m.cfg.RowsPerTxn {
		key := base + z.sample(src)
		for tries := 0; tries < 8 && drawn(ops, key); tries++ {
			key = base + z.sample(src)
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
