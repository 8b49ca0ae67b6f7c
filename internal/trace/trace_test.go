package trace

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"islands/internal/engine"
	"islands/internal/sim"
	"islands/internal/storage"
)

// testTrace builds a small hand-made canonical trace: two instances, two
// streams, mixed kinds and op shapes.
func testTrace() *Trace {
	t := &Trace{
		Label: "unit w=2",
		Tables: []storage.TableDecl{
			{ID: 1, Name: "warehouse", RowBytes: 96, Rows: 2},
			{ID: 3, Name: "customer", RowBytes: 680, Rows: 6000},
		},
	}
	add := func(inst, worker int32, at sim.Time, kind uint8, ops ...engine.Op) {
		n := len(t.Streams)
		if n == 0 || t.Streams[n-1].Instance != inst || t.Streams[n-1].Worker != worker {
			t.Streams = append(t.Streams, Stream{Instance: inst, Worker: worker, start: len(t.Records)})
			n++
		}
		t.Streams[n-1].Count++
		t.Records = append(t.Records, Record{At: at, Kind: kind, Ops: ops})
	}
	add(0, 0, 0, 1,
		engine.Op{Table: 1, Key: 0, Kind: engine.OpUpdate},
		engine.Op{Table: 3, Key: 4321, Kind: engine.OpRead})
	add(0, 0, 150*sim.Microsecond, 0,
		engine.Op{Table: 3, Key: 17, Kind: engine.OpInsert})
	add(1, 0, 20*sim.Microsecond, KindGeneric,
		engine.Op{Table: 1, Key: 1, Kind: engine.OpRead})
	add(1, 0, 20*sim.Microsecond, 4) // same timestamp, no ops
	return t
}

// tracesEqual compares exported fields (Trace holds a sync.Once, so no
// blanket DeepEqual on the struct).
func tracesEqual(a, b *Trace) bool {
	return a.Label == b.Label &&
		reflect.DeepEqual(a.Tables, b.Tables) &&
		reflect.DeepEqual(a.Streams, b.Streams) &&
		reflect.DeepEqual(a.Records, b.Records)
}

func TestRoundTrip(t *testing.T) {
	orig := testTrace()
	var buf bytes.Buffer
	if err := orig.Encode(&buf); err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := Decode(buf.Bytes())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !tracesEqual(orig, got) {
		t.Fatalf("round-trip mismatch:\norig %+v\ngot  %+v", orig, got)
	}
	// Records with no ops must come back with nil Ops (not empty non-nil),
	// matching what DeepEqual above already demands; double-check spans and
	// stream starts survived.
	if got.Span() != orig.Span() {
		t.Fatalf("span: got %v want %v", got.Span(), orig.Span())
	}
	if got.Streams[1].Start() != 2 {
		t.Fatalf("stream 1 start: got %d want 2", got.Streams[1].Start())
	}
}

func TestEncodeRejectsInvalid(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Trace)
		want string
	}{
		{"unsorted streams", func(tr *Trace) {
			tr.Streams[0], tr.Streams[1] = tr.Streams[1], tr.Streams[0]
		}, "not sorted"},
		{"count mismatch", func(tr *Trace) {
			tr.Streams[1].Count++
		}, "sum to"},
		{"time goes back", func(tr *Trace) {
			tr.Records[1].At = 0
			tr.Records[0].At = 1
		}, "back in time"},
		{"unknown txn kind", func(tr *Trace) {
			tr.Records[0].Kind = 99
		}, "unknown kind"},
		{"unknown op kind", func(tr *Trace) {
			tr.Records[0].Ops = []engine.Op{{Table: 1, Kind: 3}}
		}, "unknown kind"},
		{"undeclared table", func(tr *Trace) {
			tr.Records[0].Ops = []engine.Op{{Table: 7, Kind: engine.OpRead}}
		}, "undeclared table"},
		{"duplicate table", func(tr *Trace) {
			tr.Tables[1].ID = tr.Tables[0].ID
		}, "duplicate table"},
		{"table id beyond the slice bound", func(tr *Trace) {
			tr.Tables[1].ID = storage.MaxTableID + 1
		}, "out of range"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := testTrace()
			tc.mut(tr)
			_, err := tr.AppendBinary(nil)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want error containing %q", err, tc.want)
			}
		})
	}
}

func TestDecodeRejectsCorrupt(t *testing.T) {
	valid, err := testTrace().AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"short magic", []byte("ISL")},
		{"bad magic", []byte("NOTATRACEFILE AT ALL")},
		{"bad version", append(append([]byte{}, valid[:8]...), 0xFF, 0x01)},
		{"truncated", valid[:len(valid)/2]},
		{"trailing bytes", append(append([]byte{}, valid...), 0)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Decode(tc.data); err == nil {
				t.Fatalf("decode accepted corrupt input")
			}
		})
	}
	// Every prefix must error, never panic.
	for i := 0; i < len(valid); i++ {
		if _, err := Decode(valid[:i]); err == nil {
			t.Fatalf("decode accepted truncation at %d", i)
		}
	}
}

func TestDecodeHugeCountsRejected(t *testing.T) {
	// A tiny input claiming 2^49 streams must be rejected by the byte-backed
	// count bound, not attempted as an allocation.
	buf := append([]byte{}, magic[:]...)
	buf = append(buf, 1)                                              // version
	buf = append(buf, 0)                                              // label len
	buf = append(buf, 0)                                              // table count
	buf = append(buf, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01) // stream count 2^49
	if _, err := Decode(buf); err == nil || !strings.Contains(err.Error(), "exceeds remaining") {
		t.Fatalf("got %v, want count bound error", err)
	}
}

func TestDump(t *testing.T) {
	var sb strings.Builder
	testTrace().Dump(&sb, 1)
	out := sb.String()
	for _, want := range []string{
		"trace: unit w=2",
		"warehouse",
		"streams: 2  records: 4",
		"payment=1", "generic=1",
		"stream i0/w0: 2 records",
		"u1:0 r3:4321",
		"... 1 more",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q in:\n%s", want, out)
		}
	}
}

func TestRecorder(t *testing.T) {
	src := &scriptedSource{}
	rec := NewRecorder(src, "scripted", []storage.TableDecl{{ID: 1, Name: "t", RowBytes: 8, Rows: 100}})
	// Drive two streams out of order, through both entry points.
	rec.NextAt(1, 0, 10)
	rec.NextAt(0, 0, 5)
	rec.Next(0, 0) // timestamp 0 fallback — but 0 < 5 breaks monotonicity...
	tr := rec.Finish()
	if len(tr.Streams) != 2 || tr.Streams[0].Instance != 0 || tr.Streams[1].Instance != 1 {
		t.Fatalf("streams not canonical: %+v", tr.Streams)
	}
	// Stream (0,0) recorded at=5 then at=0: Encode must refuse (the
	// recorder contract is per-stream monotonic clocks; mixing NextAt and
	// Next on one stream violates it).
	if _, err := tr.AppendBinary(nil); err == nil {
		t.Fatalf("encode accepted non-monotonic mixed-entry stream")
	}
	// Kind labeling: scriptedSource implements KindReporter.
	if tr.Records[0].Kind != 2 {
		t.Fatalf("kind: got %d want 2", tr.Records[0].Kind)
	}
	// Ops must be copies, not aliases of the generator's reused buffer.
	if &tr.Records[0].Ops[0] == &src.ops[0] {
		t.Fatalf("recorder aliased the generator's op buffer")
	}
}

// scriptedSource returns one op from a reused buffer, kind cycling 2,3,2...
type scriptedSource struct {
	calls int
	ops   [1]engine.Op
}

func (s *scriptedSource) Next(inst engine.InstanceID, worker int) engine.Request {
	s.calls++
	s.ops[0] = engine.Op{Table: 1, Key: int64(s.calls), Kind: engine.OpRead}
	return engine.Request{Ops: s.ops[:]}
}

func (s *scriptedSource) LastKind(inst engine.InstanceID, worker int) uint8 {
	return uint8(2 + s.calls%2) // cycles 3, 2, 3, ... (calls is post-increment)
}

func TestReplayerExactMode(t *testing.T) {
	tr := testTrace()
	// Matching geometry: 2 instances, 1 worker each, rotate 0 → exact.
	r, err := NewReplayer(tr, []int{1, 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Exact() {
		t.Fatalf("expected exact mode")
	}
	for i := 0; i < 2; i++ { // two passes: second wraps
		for ri := 0; ri < 2; ri++ {
			got := r.Next(0, 0)
			if !reflect.DeepEqual(got.Ops, tr.Records[ri].Ops) {
				t.Fatalf("pass %d record %d: got %+v", i, ri, got.Ops)
			}
		}
	}
	if got := r.Next(1, 0); !reflect.DeepEqual(got.Ops, tr.Records[2].Ops) {
		t.Fatalf("stream (1,0): got %+v", got.Ops)
	}
	if r.Wraps() != 1 {
		t.Fatalf("wraps: got %d want 1", r.Wraps())
	}
}

func TestReplayerStridedMode(t *testing.T) {
	tr := testTrace()
	// Different geometry (one instance, two workers) → strided over the
	// global time order: indices sorted by (At, index) = 0(@0), 3? no —
	// record times are 0, 150µs, 20µs, 20µs at indices 0,1,2,3 → order
	// 0, 2, 3, 1.
	r, err := NewReplayer(tr, []int{2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Exact() {
		t.Fatalf("expected strided mode")
	}
	wantOrder := []int{0, 2, 3, 1}
	// Worker 0 gets positions 0,2; worker 1 gets 1,3.
	for p := 0; p < 2; p++ {
		for w := 0; w < 2; w++ {
			rec := tr.Records[wantOrder[p*2+w]]
			got := r.Next(0, w)
			if !reflect.DeepEqual(got.Ops, rec.Ops) {
				t.Fatalf("worker %d pull %d: got %+v want %+v", w, p, got.Ops, rec.Ops)
			}
		}
	}
	if r.Wraps() != 0 {
		t.Fatalf("wraps: got %d want 0", r.Wraps())
	}
	r.Next(0, 0) // third pull wraps back to position 0
	if r.Wraps() != 1 {
		t.Fatalf("wraps after exhaustion: got %d want 1", r.Wraps())
	}
}

func TestReplayerRotation(t *testing.T) {
	tr := testTrace()
	// rotate 1 over matching geometry forces strided mode and shifts the
	// deal by one stream.
	r, err := NewReplayer(tr, []int{1, 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Exact() {
		t.Fatalf("rotate != 0 must not be exact")
	}
	// Global order 0,2,3,1; stream g=0 starts at (0+1)%2=1, g=1 at 0.
	if got := r.Next(0, 0); !reflect.DeepEqual(got.Ops, tr.Records[2].Ops) {
		t.Fatalf("rotated stream 0: got %+v", got.Ops)
	}
	if got := r.Next(1, 0); !reflect.DeepEqual(got.Ops, tr.Records[0].Ops) {
		t.Fatalf("rotated stream 1: got %+v", got.Ops)
	}
	// Negative rotation normalizes.
	r2, err := NewReplayer(tr, []int{1, 1}, -1)
	if err != nil {
		t.Fatal(err)
	}
	if got := r2.Next(0, 0); !reflect.DeepEqual(got.Ops, tr.Records[2].Ops) {
		t.Fatalf("negative rotation: got %+v", got.Ops)
	}
}

func TestReplayerMoreWorkersThanRecords(t *testing.T) {
	tr := testTrace() // 4 records
	r, err := NewReplayer(tr, []int{6}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Streams 4 and 5 start at positions 4%4=0 and 5%4=1 (wrapped into
	// range); every stream must return a valid record without panicking.
	order := []int{0, 2, 3, 1}
	for w := 0; w < 6; w++ {
		want := tr.Records[order[w%4]]
		if got := r.Next(0, w); !reflect.DeepEqual(got.Ops, want.Ops) {
			t.Fatalf("worker %d: got %+v want %+v", w, got.Ops, want.Ops)
		}
	}
}

func TestReplayerErrors(t *testing.T) {
	if _, err := NewReplayer(&Trace{}, []int{1}, 0); err == nil {
		t.Fatalf("empty trace accepted")
	}
	tr := testTrace()
	if _, err := NewReplayer(tr, nil, 0); err == nil {
		t.Fatalf("no instances accepted")
	}
	if _, err := NewReplayer(tr, []int{1, 0}, 0); err == nil {
		t.Fatalf("zero workers accepted")
	}
}

// TestReplayerNextAllocs pins Replayer.Next to 0 allocs/op in both modes,
// matching the Micro.Next / Mix.Next convention.
func TestReplayerNextAllocs(t *testing.T) {
	tr := testTrace()
	for _, mode := range []struct {
		name    string
		workers []int
		rotate  int64
	}{
		{"exact", []int{1, 1}, 0},
		{"strided", []int{2}, 3},
	} {
		r, err := NewReplayer(tr, mode.workers, mode.rotate)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(200, func() {
			if mode.name == "exact" {
				r.Next(0, 0)
				r.Next(1, 0)
			} else {
				r.Next(0, 0)
				r.Next(0, 1)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: Replayer.Next allocates %.1f/op, want 0", mode.name, allocs)
		}
	}
}

func BenchmarkReplayerNext(b *testing.B) {
	tr := testTrace()
	r, err := NewReplayer(tr, []int{1, 1}, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Next(0, 0)
	}
}

func TestFileRoundTrip(t *testing.T) {
	tr := testTrace()
	path := t.TempDir() + "/t.trace"
	if err := tr.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !tracesEqual(tr, got) {
		t.Fatalf("file round-trip mismatch")
	}
	if _, err := ReadFile(t.TempDir() + "/missing.trace"); err == nil {
		t.Fatalf("missing file accepted")
	}
}

func TestKindName(t *testing.T) {
	for k, want := range map[uint8]string{
		0: "neworder", 1: "payment", 4: "stocklevel",
		KindGeneric: "generic", 77: "kind77",
	} {
		if got := KindName(k); got != want {
			t.Errorf("KindName(%d) = %q, want %q", k, got, want)
		}
	}
}

func TestRecordWrites(t *testing.T) {
	ro := Record{Ops: []engine.Op{{Kind: engine.OpRead}}}
	rw := Record{Ops: []engine.Op{{Kind: engine.OpRead}, {Kind: engine.OpUpdate}}}
	if ro.Writes() || !rw.Writes() {
		t.Fatalf("Writes misclassified")
	}
}
