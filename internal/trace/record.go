package trace

import (
	"sort"
	"sync"

	"islands/internal/engine"
	"islands/internal/sim"
	"islands/internal/storage"
)

// KindReporter is the optional interface a wrapped source implements to
// label records with a transaction kind. workload.Mix satisfies it;
// sources without kinds (Micro, custom) record KindGeneric.
type KindReporter interface {
	// LastKind returns the TxnKind of the request most recently returned
	// by Next for the given stream.
	LastKind(inst engine.InstanceID, worker int) uint8
}

// Recorder wraps a RequestSource and tees every request into an in-memory
// trace. It implements engine.TimedRequestSource so workers hand it their
// virtual clock; wrapped around a plain source and driven from a
// deployment without one, timestamps fall back to 0 (ordering within a
// stream is still generation order).
//
// Per-stream buffers are created lazily under an RWMutex (the same idiom
// as the workload generators): worker goroutines from different kernel
// shards may call concurrently, but each (instance, worker) stream is
// always the same goroutine, so records within a stream need no lock.
// Trace bytes are therefore deterministic regardless of shard count or
// scheduling: each stream's records are its own call sequence, and Finish
// sorts streams canonically.
type Recorder struct {
	src    engine.RequestSource
	timed  engine.TimedRequestSource // src, if it takes timestamps
	kinds  KindReporter              // src, if it reports kinds
	label  string
	tables []storage.TableDecl

	mu      sync.RWMutex
	streams map[[2]int32]*recStream
}

// recStream buffers one worker stream. Ops are appended to a per-stream
// arena and addressed by (offset, length) pairs — the arena may move as it
// grows, so subslices are only taken at Finish time.
type recStream struct {
	instance int32
	worker   int32
	at       []sim.Time
	kind     []uint8
	ops      [][2]int32 // (arena offset, op count) per record
	arena    []engine.Op
}

// NewRecorder wraps src. The label and table set are embedded in the
// produced trace; tables should declare every table the source touches
// (Encode refuses records touching undeclared tables).
func NewRecorder(src engine.RequestSource, label string, tables []storage.TableDecl) *Recorder {
	r := &Recorder{
		src:     src,
		label:   label,
		tables:  append([]storage.TableDecl(nil), tables...),
		streams: make(map[[2]int32]*recStream),
	}
	r.timed, _ = src.(engine.TimedRequestSource)
	r.kinds, _ = src.(KindReporter)
	return r
}

// Next implements engine.RequestSource (timestamp 0 fallback).
func (r *Recorder) Next(inst engine.InstanceID, worker int) engine.Request {
	return r.record(inst, worker, 0, func() engine.Request {
		return r.src.Next(inst, worker)
	})
}

// NextAt implements engine.TimedRequestSource: the worker's virtual clock
// becomes the record timestamp.
func (r *Recorder) NextAt(inst engine.InstanceID, worker int, now sim.Time) engine.Request {
	return r.record(inst, worker, now, func() engine.Request {
		if r.timed != nil {
			return r.timed.NextAt(inst, worker, now)
		}
		return r.src.Next(inst, worker)
	})
}

func (r *Recorder) record(inst engine.InstanceID, worker int, now sim.Time, next func() engine.Request) engine.Request {
	req := next()
	kind := uint8(KindGeneric)
	if r.kinds != nil {
		kind = r.kinds.LastKind(inst, worker)
	}
	s := r.stream(inst, worker)
	s.at = append(s.at, now)
	s.kind = append(s.kind, kind)
	// Copy the ops: generators reuse their op buffers across calls.
	s.ops = append(s.ops, [2]int32{int32(len(s.arena)), int32(len(req.Ops))})
	s.arena = append(s.arena, req.Ops...)
	return req
}

func (r *Recorder) stream(inst engine.InstanceID, worker int) *recStream {
	key := [2]int32{int32(inst), int32(worker)}
	r.mu.RLock()
	s := r.streams[key]
	r.mu.RUnlock()
	if s != nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s = r.streams[key]; s == nil {
		s = &recStream{instance: key[0], worker: key[1]}
		r.streams[key] = s
	}
	return s
}

// Finish assembles the recorded streams into a canonical Trace: streams
// sorted by (instance, worker), records stream-major in generation order,
// ops as stable subslices of per-stream arenas. The Recorder may not be
// driven concurrently with Finish; call it after the deployment stops.
func (r *Recorder) Finish() *Trace {
	r.mu.Lock()
	defer r.mu.Unlock()
	streams := make([]*recStream, 0, len(r.streams))
	for _, s := range r.streams {
		streams = append(streams, s)
	}
	sort.Slice(streams, func(a, b int) bool {
		if streams[a].instance != streams[b].instance {
			return streams[a].instance < streams[b].instance
		}
		return streams[a].worker < streams[b].worker
	})
	t := &Trace{Label: r.label, Tables: append([]storage.TableDecl(nil), r.tables...)}
	total := 0
	for _, s := range streams {
		total += len(s.at)
	}
	t.Streams = make([]Stream, 0, len(streams))
	t.Records = make([]Record, 0, total)
	for _, s := range streams {
		t.Streams = append(t.Streams, Stream{
			Instance: s.instance,
			Worker:   s.worker,
			Count:    len(s.at),
			start:    len(t.Records),
		})
		for i := range s.at {
			rec := Record{At: s.at[i], Kind: s.kind[i]}
			off, n := s.ops[i][0], s.ops[i][1]
			if n > 0 {
				rec.Ops = s.arena[off : off+n : off+n]
			}
			t.Records = append(t.Records, rec)
		}
	}
	return t
}
