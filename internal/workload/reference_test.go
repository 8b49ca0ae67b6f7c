package workload

import (
	"math/rand"
	"sync"

	"islands/internal/engine"
)

// refMicro is the microbenchmark generator as it was before streams resolved
// their samplers once and found duplicates by a scan: a per-request seen map,
// two closures and a locked sampler lookup per draw. It is kept, verbatim but
// for the names, as the reference TestMicroMatchesReference drives side by
// side with Micro. Its sampler cache, zipfCache, went from the package with
// it.
type refMicroStream struct {
	rng  *rand.Rand
	ops  []engine.Op
	seen map[int64]bool
}

type refMicro struct {
	cfg   MicroConfig
	part  PartitionInfo
	zipfs *zipfCache

	mu      sync.RWMutex
	streams map[[2]int32]*refMicroStream
}

func newRefMicro(cfg MicroConfig, part PartitionInfo) *refMicro {
	if cfg.RowsPerTxn < 1 {
		panic("workload: RowsPerTxn must be >= 1")
	}
	return &refMicro{cfg: cfg, part: part, zipfs: newZipfCache(), streams: make(map[[2]int32]*refMicroStream)}
}

func (m *refMicro) stream(inst engine.InstanceID, worker int) *refMicroStream {
	k := [2]int32{int32(inst), int32(worker)}
	m.mu.RLock()
	st := m.streams[k]
	m.mu.RUnlock()
	if st == nil {
		m.mu.Lock()
		if st = m.streams[k]; st == nil {
			st = &refMicroStream{
				rng:  rand.New(rand.NewSource(m.cfg.Seed + int64(inst)*1315423911 + int64(worker)*2654435761)),
				ops:  make([]engine.Op, 0, m.cfg.RowsPerTxn),
				seen: make(map[int64]bool, m.cfg.RowsPerTxn),
			}
			m.streams[k] = st
		}
		m.mu.Unlock()
	}
	return st
}

func (m *refMicro) kind() engine.OpKind {
	if m.cfg.Write {
		return engine.OpUpdate
	}
	return engine.OpRead
}

func (m *refMicro) Next(inst engine.InstanceID, worker int) engine.Request {
	st := m.stream(inst, worker)
	rng := st.rng
	base, localRows := m.part.Range(m.cfg.Table, int(inst))
	localZipf := m.zipfs.get(localRows, m.cfg.ZipfS)
	kind := m.kind()

	ops := st.ops[:0]
	seen := st.seen
	clear(seen)
	add := func(key int64) {
		seen[key] = true
		ops = append(ops, engine.Op{Table: m.cfg.Table, Key: key, Kind: kind})
	}
	// draw samples until an unseen key appears; under heavy skew duplicates
	// are accepted after a few tries (the engine treats re-locked rows as
	// already covered).
	draw := func(sample func() int64) {
		for tries := 0; ; tries++ {
			key := sample()
			if !seen[key] && tries < 8 {
				add(key)
				return
			}
			if tries >= 8 {
				add(key)
				return
			}
		}
	}

	multisite := rng.Float64() < m.cfg.PctMultisite
	// First row is always local to the submitting worker's partition.
	add(base + localZipf.Sample(rng))
	if multisite {
		globalZipf := m.zipfs.get(m.cfg.GlobalRows, m.cfg.ZipfS)
		for len(ops) < m.cfg.RowsPerTxn {
			draw(func() int64 { return globalZipf.Sample(rng) })
		}
	} else {
		for len(ops) < m.cfg.RowsPerTxn {
			draw(func() int64 { return base + localZipf.Sample(rng) })
		}
	}
	st.ops = ops // keep the (possibly regrown) buffer for the next request
	return engine.Request{Ops: ops}
}

// zipfCache memoizes samplers by (n, s): partitions of equal size share one.
type zipfCache struct {
	mu sync.RWMutex
	m  map[zipfKey]*Zipf
}

type zipfKey struct {
	n int64
	s float64
}

func newZipfCache() *zipfCache { return &zipfCache{m: make(map[zipfKey]*Zipf)} }

func (c *zipfCache) get(n int64, s float64) *Zipf {
	k := zipfKey{n, s}
	c.mu.RLock()
	z := c.m[k]
	c.mu.RUnlock()
	if z == nil {
		c.mu.Lock()
		if z = c.m[k]; z == nil {
			z = NewZipf(n, s)
			c.m[k] = z
		}
		c.mu.Unlock()
	}
	return z
}
