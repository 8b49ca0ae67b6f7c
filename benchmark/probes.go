package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"islands/internal/core"
	"islands/internal/exec"
	"islands/internal/harness"
	"islands/internal/ipc"
	"islands/internal/latch"
	"islands/internal/lock"
	"islands/internal/mem"
	"islands/internal/resultstore"
	"islands/internal/sim"
	"islands/internal/storage"
	"islands/internal/topology"
	"islands/internal/wal"
	"islands/internal/workload"
)

// A probe is a fixed-size host-timed loop over one layer's public
// functions, in a private kernel no workload shares. It returns the sample
// of its timed section and how many operations that section performed.
type probe struct {
	name string // the per-layer metric it feeds
	unit string // host time per operation: "ns", "us" or "ms"
	n    int    // operations per round at full sizing
	run  func(n int) (sample, int)
}

// probeValue is a probe's result: the median over rounds of host time per
// operation in the probe's unit, and of heap objects per operation.
type probeValue struct {
	perOp  float64
	allocs float64
}

var nsPer = map[string]float64{"ns": 1, "us": 1e3, "ms": 1e6}

func measureProbe(p probe, z sizing) probeValue {
	n := p.n / z.ProbeDiv
	if n < 8 {
		n = 8
	}
	per := make([]float64, z.ProbeRounds)
	al := make([]float64, z.ProbeRounds)
	for i := range per {
		s, ops := p.run(n)
		per[i] = float64(s.elapsed.Nanoseconds()) / float64(ops) / nsPer[p.unit]
		al[i] = float64(s.mallocs) / float64(ops)
	}
	return probeValue{median(per), median(al)}
}

// inProc runs body as the only simulated thread of a private kernel, on
// core 0 of a quad-socket memory model, and returns body's sample.
func inProc(body func(k *sim.Kernel, ctx *exec.Ctx) sample) sample {
	k := sim.NewKernel()
	defer k.Close()
	model := mem.NewModel(topology.QuadSocket())
	var s sample
	k.Spawn("probe", func(p *sim.Proc) { s = body(k, exec.New(p, 0, model, nil)) })
	k.Run()
	return s
}

// timeRun times Kernel.Run over procs the caller already spawned.
func timeRun(k *sim.Kernel) sample {
	w := startWatch()
	k.Run()
	return w.stop()
}

// layerProbes lists every fixed-size probe. Loop sizes put a round at a
// few milliseconds: long enough for the clock, short enough that all of
// them fit a traced run.
func layerProbes(dir string) []probe {
	return []probe{
		{"sim.wake_ns", "ns", 64 * 2000, func(n int) (sample, int) {
			k := sim.NewKernel()
			defer k.Close()
			per := n / 64
			for w := 0; w < 64; w++ {
				step := sim.Time(1 + w%7)
				k.Spawn("w", func(p *sim.Proc) {
					for i := 0; i < per; i++ {
						p.Advance(step)
					}
				})
			}
			return timeRun(k), per * 64
		}},
		{"sim.queue_handoff_ns", "ns", 50000, func(n int) (sample, int) {
			k := sim.NewKernel()
			defer k.Close()
			q := sim.NewQueue[int](k)
			k.Spawn("echo", func(p *sim.Proc) {
				for i := 0; i < n; i++ {
					q.PushAfter(3, i)
					q.Pop(p)
				}
			})
			return timeRun(k), n
		}},
		{"mem.read_hit_ns", "ns", 500000, func(n int) (sample, int) {
			model := mem.NewModel(topology.QuadSocket())
			var line mem.Line
			model.Read(0, &line)
			w := startWatch()
			for i := 0; i < n; i++ {
				model.Read(0, &line)
			}
			return w.stop(), n
		}},
		{"mem.write_shared_ns", "ns", 500000, func(n int) (sample, int) {
			// Cores 0 and 23 sit on different sockets: every write finds the
			// line last written across the interconnect.
			model := mem.NewModel(topology.QuadSocket())
			var line mem.Line
			w := startWatch()
			for i := 0; i < n; i++ {
				model.Write(topology.CoreID(23*(i&1)), &line)
			}
			return w.stop(), n
		}},
		{"exec.charge_ns", "ns", 200000, func(n int) (sample, int) {
			return inProc(func(_ *sim.Kernel, ctx *exec.Ctx) sample {
				w := startWatch()
				for i := 0; i < n; i++ {
					ctx.Charge(10)
				}
				return w.stop()
			}), n
		}},
		{"latch.rw_pair_ns", "ns", 50000, func(n int) (sample, int) {
			return inProc(func(_ *sim.Kernel, ctx *exec.Ctx) sample {
				var l latch.RW
				w := startWatch()
				for i := 0; i < n; i++ {
					l.AcquireShared(ctx)
					l.ReleaseShared(ctx)
					l.AcquireExclusive(ctx)
					l.ReleaseExclusive(ctx)
				}
				return w.stop()
			}), n
		}},
		{"lock.acquire_release_ns", "ns", 5000, func(n int) (sample, int) {
			return inProc(func(_ *sim.Kernel, ctx *exec.Ctx) sample {
				m := lock.NewManager(true)
				w := startWatch()
				for i := 0; i < n; i++ {
					owner := uint64(i + 1)
					for k := 0; k < 10; k++ {
						if err := m.Acquire(ctx, owner, lock.Key{Space: 1, ID: int64(i*10 + k)}, lock.X); err != nil {
							panic(err)
						}
					}
					m.ReleaseAll(ctx, owner)
				}
				return w.stop()
			}), n
		}},
		{"lock.conflict_wake_ns", "ns", 20000, func(n int) (sample, int) {
			// Two threads hand one X lock back and forth. Owner ids fall, so
			// every requester is older than the holder and waits (wait-die
			// never kills it): one conflict, one wake per operation.
			k := sim.NewKernel()
			defer k.Close()
			model := mem.NewModel(topology.QuadSocket())
			m := lock.NewManager(true)
			key := lock.Key{Space: 1, ID: 7}
			next := uint64(1) << 40
			for t := 0; t < 2; t++ {
				core := topology.CoreID(t)
				k.Spawn("holder", func(p *sim.Proc) {
					ctx := exec.New(p, core, model, nil)
					for i := 0; i < n/2; i++ {
						next--
						owner := next
						if err := m.Acquire(ctx, owner, key, lock.X); err != nil {
							panic(err)
						}
						p.Advance(10)
						m.ReleaseAll(ctx, owner)
					}
				})
			}
			s := timeRun(k)
			if m.Dies != 0 || m.Waits == 0 {
				panic(fmt.Sprintf("lock probe: %d waits, %d dies; want every hand-off to wait", m.Waits, m.Dies))
			}
			return s, n / 2 * 2
		}},
		{"storage.btree_search_ns", "ns", 50000, func(n int) (sample, int) {
			return inProc(func(_ *sim.Kernel, ctx *exec.Ctx) sample {
				t, tab := loadedTree()
				rng := rand.New(rand.NewSource(1))
				w := startWatch()
				for i := 0; i < n; i++ {
					if _, ok := t.Search(ctx, rng.Int63n(tab.NumRows)); !ok {
						panic("btree probe: key missing")
					}
				}
				return w.stop()
			}), n
		}},
		{"storage.btree_insert_ns", "ns", 50000, func(n int) (sample, int) {
			// Ascending keys past the loaded range: the append pattern of
			// TPC-C's order and history inserts.
			return inProc(func(_ *sim.Kernel, ctx *exec.Ctx) sample {
				t, tab := loadedTree()
				w := startWatch()
				for i := 0; i < n; i++ {
					key := tab.NumRows + int64(i)
					t.Insert(ctx, key, tab.Locate(key%tab.NumRows))
				}
				return w.stop()
			}), n
		}},
		{"storage.fix_unfix_ns", "ns", 100000, func(n int) (sample, int) {
			return inProc(func(_ *sim.Kernel, ctx *exec.Ctx) sample {
				store := storage.NewPageStore()
				tab := probeTable()
				store.AddTable(tab)
				bp := storage.NewBufferPool(store, storage.MMapDisk(), 64)
				id := storage.PageID{Table: tab.ID, No: 3}
				bp.Unfix(ctx, bp.Fix(ctx, id), false)
				w := startWatch()
				for i := 0; i < n; i++ {
					bp.Unfix(ctx, bp.Fix(ctx, id), false)
				}
				return w.stop()
			}), n
		}},
		{"storage.page_synth_us", "us", 2000, func(n int) (sample, int) {
			tab := probeTable()
			w := startWatch()
			for i := 0; i < n; i++ {
				tab.SynthesizePage(int64(i) % tab.NumPages())
			}
			return w.stop(), n
		}},
		{"wal.append_ns", "ns", 100000, func(n int) (sample, int) {
			return inProc(func(k *sim.Kernel, ctx *exec.Ctx) sample {
				m := wal.NewManager(k.DefaultDomain(), wal.DefaultOptions())
				rec := wal.Record{Type: wal.RecUpdate, Txn: 1, Table: 1, Key: 5, WireBytes: 48}
				w := startWatch()
				for i := 0; i < n; i++ {
					m.Append(ctx, rec)
				}
				return w.stop()
			}), n
		}},
		{"wal.flush_group_ns", "ns", 20000, func(n int) (sample, int) {
			// Four committers force the log concurrently, so group commit
			// has waiters to batch; the unit is one commit made durable.
			k := sim.NewKernel()
			defer k.Close()
			model := mem.NewModel(topology.QuadSocket())
			m := wal.NewManager(k.DefaultDomain(), wal.DefaultOptions())
			for t := 0; t < 4; t++ {
				core := topology.CoreID(t)
				k.Spawn("committer", func(p *sim.Proc) {
					ctx := exec.New(p, core, model, nil)
					for i := 0; i < n/4; i++ {
						m.Flush(ctx, m.Append(ctx, wal.Record{Type: wal.RecCommit, Txn: uint64(i)}))
					}
				})
			}
			return timeRun(k), n / 4 * 4
		}},
		{"ipc.send_recv_same_ns", "ns", 40000, func(n int) (sample, int) { return pingPong(n, 0, 1) }},
		{"ipc.send_recv_cross_ns", "ns", 40000, func(n int) (sample, int) { return pingPong(n, 0, 23) }},
		{"engine.local_txn_us", "us", 1, func(int) (sample, int) { return engineTxns(0) }},
		{"engine.twopc_txn_us", "us", 1, func(int) (sample, int) { return engineTxns(1) }},
		{"workload.micro_next_ns", "ns", 100000, func(n int) (sample, int) {
			part := core.NewRangePartitioner(4, map[storage.TableID]int64{1: 240000})
			g := workload.NewMicro(workload.MicroConfig{Table: 1, GlobalRows: 240000, RowsPerTxn: 10,
				Write: true, PctMultisite: 0.2, Seed: 9}, part)
			g.Next(0, 0)
			w := startWatch()
			for i := 0; i < n; i++ {
				g.Next(0, 0)
			}
			return w.stop(), n
		}},
		{"workload.mix_next_ns", "ns", 50000, func(n int) (sample, int) {
			z := workload.SpecSizing().Scaled(10)
			rows := make(map[storage.TableID]int64)
			for _, t := range workload.MixTableSet(24, workload.StandardMix(), z) {
				rows[t.ID] = t.Rows
			}
			g := workload.NewMix(workload.MixConfig{Warehouses: 24, Weights: workload.StandardMix(),
				RemotePct: 0.15, RemoteItemPct: 0.01, Sizing: z, Seed: 9}, core.NewRangePartitioner(4, rows))
			g.Next(0, 0)
			w := startWatch()
			for i := 0; i < n; i++ {
				g.Next(0, 0)
			}
			return w.stop(), n
		}},
		{"workload.zipf_sample_ns", "ns", 200000, func(n int) (sample, int) {
			zipf := workload.NewZipf(240000, 0.9)
			rng := rand.New(rand.NewSource(1))
			w := startWatch()
			for i := 0; i < n; i++ {
				zipf.Sample(rng)
			}
			return w.stop(), n
		}},
		{"harness.dispatch_us_per_cell", "us", 256, func(int) (sample, int) {
			const cells = 256
			rows := make([]string, cells)
			for i := range rows {
				rows[i] = fmt.Sprintf("r%d", i)
			}
			s := &harness.Study{ID: "benchmark-noop", Title: "no-op",
				Tables: []*harness.Table{harness.NewTable("t", "", "row", rows, "", []string{"v"})}}
			for i := 0; i < cells; i++ {
				s.Cells = append(s.Cells, harness.ScalarCell(rows[i],
					func(harness.Options) float64 { return 1 }, harness.ValueEmit(0, i, 0)))
			}
			w := startWatch()
			s.Run(harness.Options{Parallel: 1})
			return w.stop(), cells
		}},
		{"resultstore.hash_config_us", "us", 2000, func(n int) (sample, int) {
			cfg := core.DefaultConfig(topology.QuadSocket(), 24, 240000)
			w := startWatch()
			for i := 0; i < n; i++ {
				h := resultstore.NewHasher()
				h.Value(cfg)
				h.Sum()
			}
			return w.stop(), n
		}},
		{"resultstore.put_us", "us", 1000, func(n int) (sample, int) {
			s, _, _ := storeProbe(dir, n)
			return s, n
		}},
		{"resultstore.get_us", "us", 1000, func(n int) (sample, int) {
			_, s, _ := storeProbe(dir, n)
			return s, n
		}},
		{"resultstore.open_ms_per_1k", "ms", 1000, func(int) (sample, int) {
			_, _, s := storeProbe(dir, 1000)
			return s, 1
		}},
	}
}

func probeTable() *storage.Table {
	return &storage.Table{ID: 1, Name: "rows", RowBytes: 250, NumRows: 100000}
}

func loadedTree() (*storage.BTree, *storage.Table) {
	tab := probeTable()
	t := storage.NewBTree(storage.DefaultBTreeOrder)
	t.BulkLoadRange(tab.NumRows, tab.Locate, 0.9)
	return t, tab
}

// pingPong bounces n messages between endpoints on two cores; the unit is
// one message sent and received.
func pingPong(n int, a, b topology.CoreID) (sample, int) {
	k := sim.NewKernel()
	defer k.Close()
	topo := topology.QuadSocket()
	model := mem.NewModel(topo)
	net := ipc.NewNetwork[int](k, topo, ipc.UnixSocket)
	ea, eb := net.NewEndpoint(a), net.NewEndpoint(b)
	rounds := n / 2
	k.Spawn("a", func(p *sim.Proc) {
		ctx := exec.New(p, a, model, nil)
		for i := 0; i < rounds; i++ {
			ea.Send(ctx, eb, i)
			ea.Recv(ctx)
		}
	})
	k.Spawn("b", func(p *sim.Proc) {
		ctx := exec.New(p, b, model, nil)
		for i := 0; i < rounds; i++ {
			eb.Send(ctx, ea, eb.Recv(ctx))
		}
	})
	return timeRun(k), 2 * rounds
}

// engineTxns runs update-10 transactions on a two-island quad-socket
// deployment at the given multisite fraction; the unit is one commit.
func engineTxns(pctMultisite float64) (sample, int) {
	const rows = 24000
	d := core.NewDeployment(core.DefaultConfig(topology.QuadSocket(), 2, rows))
	defer d.Close()
	d.Start(workload.NewMicro(workload.MicroConfig{Table: 1, GlobalRows: rows, RowsPerTxn: 10,
		Write: true, PctMultisite: pctMultisite, Seed: 9}, d.Part))
	d.Kernel.RunFor(200 * sim.Microsecond)
	w := startWatch()
	m := d.Run(0, sim.Millisecond)
	s := w.stop()
	if m.Committed == 0 || (pctMultisite == 1) != (m.Multisite == m.Committed) {
		panic(fmt.Sprintf("engine probe at %v multisite: %d committed, %d multisite", pctMultisite, m.Committed, m.Multisite))
	}
	return s, int(m.Committed)
}

// storeProbe puts n records into a fresh result store, gets them back, and
// reopens the directory; it returns the three samples. The directory is
// removed before returning.
func storeProbe(dir string, n int) (put, get, open sample) {
	tmp, err := os.MkdirTemp(dir, "probe-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(tmp)
	st, err := harness.OpenStore(tmp)
	if err != nil {
		panic(err)
	}
	keys := make([]resultstore.Key, n)
	for i := range keys {
		h := resultstore.NewHasher()
		h.I64(int64(i))
		keys[i] = h.Sum()
	}
	val := harness.Metrics{Value: 1}
	val.M.PerInstance = make([]uint64, 24)
	w := startWatch()
	for i, k := range keys {
		if err := st.Put(k, "probe", &val, time.Duration(i)); err != nil {
			panic(err)
		}
	}
	put = w.stop()
	var out harness.Metrics
	w = startWatch()
	for _, k := range keys {
		if _, ok := st.Get(k, &out); !ok {
			panic("store probe: record missing")
		}
	}
	get = w.stop()
	if err := st.Close(); err != nil {
		panic(err)
	}
	w = startWatch()
	st, err = harness.OpenStore(tmp)
	open = w.stop()
	if err != nil {
		panic(err)
	}
	if st.Loaded() != n {
		panic(fmt.Sprintf("store probe: reopened %d records, want %d", st.Loaded(), n))
	}
	if err := st.Close(); err != nil {
		panic(err)
	}
	return put, get, open
}

// shardedProbe runs the scale64_2pc_update cell reps times at one kernel
// shard and reps times at min(16, GOMAXPROCS) shards. It returns the
// speed-up of the timed window, the sharded kernel's synchronization
// counters per repetition, and an error if the two shard counts did not
// simulate identically (correctness check d).
func shardedProbe(z sizing, seed int64, reps int) (speedup, windows, wakeups float64, err error) {
	spec := cellSpecs(z)[wlScale64]
	shards := runtime.GOMAXPROCS(0)
	if shards > 16 {
		shards = 16
	}
	var host [2][]float64 // window µs at one shard, at `shards`
	var digest string
	for i := 0; i < reps; i++ {
		for side, n := range []int{1, shards} {
			r, err := runCellRep(spec, z, seed, n, i, nil, false)
			if err != nil {
				return 0, 0, 0, fmt.Errorf("sharded probe at %d shards: %w", n, err)
			}
			if digest == "" {
				digest = r.digest
			}
			if r.digest != digest {
				return 0, 0, 0, fmt.Errorf("sharded probe: %d shards simulated %s, 1 shard %s", n, r.digest, digest)
			}
			host[side] = append(host[side], us(r.window))
			windows, wakeups = float64(r.windows), float64(r.wakeups)
		}
	}
	return median(host[0]) / median(host[1]), windows, wakeups, nil
}
