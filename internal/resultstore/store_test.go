package resultstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// The test payloads mirror the shape class of the harness Metrics type:
// nested structs, fixed arrays, slices of structs, every scalar family, and
// floats that must round-trip bit-exactly.
type inner struct {
	Committed uint64
	TxnTime   int64
	Break     [4]int64
	Per       []uint64
}

// measurementLike carries an unexported field: SchemaOf must reject it.
type measurementLike struct {
	Window int64
	hidden int
}

type Measurement struct {
	Window int64
	Inner  inner
	TPS    float64
	Avail  float64
}

type Metrics struct {
	M      Measurement
	Value  float64
	Series []Measurement
}

func sampleMetrics() Metrics {
	return Metrics{
		M: Measurement{
			Window: 3_000_000,
			Inner: inner{
				Committed: 123456,
				TxnTime:   -987654321,
				Break:     [4]int64{1, -2, 3, math.MaxInt64},
				Per:       []uint64{7, 8, 9},
			},
			TPS:   12345.6789012345,
			Avail: 1,
		},
		Value: math.Pi,
		Series: []Measurement{
			{Window: 1, TPS: 0.1},
			{Window: 2, TPS: math.SmallestNonzeroFloat64, Avail: math.Copysign(0, -1)},
		},
	}
}

func TestSchemaOf(t *testing.T) {
	s, err := SchemaOf(Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	want := "{M:{Window:i64;Inner:{Committed:u64;TxnTime:i64;Break:[4]i64;Per:[]u64};TPS:f64;Avail:f64};Value:f64;Series:[]{Window:i64;Inner:{Committed:u64;TxnTime:i64;Break:[4]i64;Per:[]u64};TPS:f64;Avail:f64}}"
	if s != want {
		t.Fatalf("schema:\n got %s\nwant %s", s, want)
	}
}

func TestSchemaOfRejects(t *testing.T) {
	cases := []any{
		struct{ P *int }{},           // pointer
		struct{ M map[string]int }{}, // map
		struct{ F func() }{},         // func
		struct{ E struct{} }{},       // empty struct
		struct{ A [0]int }{},         // zero-length array
		measurementLike{},            // unexported field
		struct{ I any }{},            // interface
	}
	for _, c := range cases {
		if _, err := SchemaOf(c); err == nil {
			t.Errorf("SchemaOf(%T): want error, got nil", c)
		}
	}
}

func TestTypedRoundTripExact(t *testing.T) {
	in := sampleMetrics()
	enc := appendTyped(nil, reflect.ValueOf(in))
	var out Metrics
	rest, err := decodeTyped(enc, reflect.ValueOf(&out).Elem())
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes", len(rest))
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip changed the value:\n in  %+v\n out %+v", in, out)
	}
	// Bit-exactness of tricky floats, explicitly.
	if math.Float64bits(out.Series[1].Avail) != math.Float64bits(math.Copysign(0, -1)) {
		t.Fatal("negative zero lost its sign")
	}
}

func TestNilSliceCanonical(t *testing.T) {
	in := Metrics{} // Series nil, Per nil
	enc := appendTyped(nil, reflect.ValueOf(in))
	var out Metrics
	out.Series = []Measurement{} // decode must reset to canonical nil
	if _, err := decodeTyped(enc, reflect.ValueOf(&out).Elem()); err != nil {
		t.Fatal(err)
	}
	if out.Series != nil || out.M.Inner.Per != nil {
		t.Fatal("zero-length slices must decode to nil")
	}
}

func TestStorePersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	in := sampleMetrics()
	var k1, k2 Key
	k1[0], k2[0] = 1, 2
	if err := s.Put(k1, "cell/a", in, 123*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(k1, "cell/a", in, 999*time.Millisecond); err != nil {
		t.Fatal(err) // dup: no-op
	}
	if err := s.PutHint("cell/a", 123*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s, err = Open(dir, Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Loaded() != 1 {
		t.Fatalf("Loaded = %d, want 1", s.Loaded())
	}
	var out Metrics
	elapsed, ok := s.Get(k1, &out)
	if !ok || elapsed != 123*time.Millisecond {
		t.Fatalf("Get: ok=%v elapsed=%v", ok, elapsed)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatal("reopened value differs")
	}
	if _, ok := s.Get(k2, &out); ok {
		t.Fatal("absent key reported present")
	}
	if d, ok := s.Hint("cell/a"); !ok || d != 123*time.Millisecond {
		t.Fatalf("Hint: ok=%v d=%v", ok, d)
	}
	if err := s.Put(k2, "cell/b", in, time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestStoreTruncatedTailIsDropped(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	var k Key
	k[0] = 7
	if err := s.Put(k, "cell/a", sampleMetrics(), time.Millisecond); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Simulate an interrupted append: garbage claiming a long record.
	files, err := filepath.Glob(filepath.Join(dir, "cells-*.isr"))
	if err != nil || len(files) != 1 {
		t.Fatalf("glob: %v %v", files, err)
	}
	f, err := os.OpenFile(files[0], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xFF, 0x01, 0xAB}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	before, _ := os.ReadFile(files[0])

	s, err = Open(dir, Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Loaded() != 1 {
		t.Fatalf("Loaded = %d, want 1 (good prefix served)", s.Loaded())
	}
	var k2 Key
	k2[0] = 8
	if err := s.Put(k2, "cell/b", sampleMetrics(), time.Millisecond); err != nil {
		t.Fatal(err)
	}
	s.Close()
	after, _ := os.ReadFile(files[0])
	if len(after) <= len(before)-3 {
		t.Fatal("append after truncation did not extend the log")
	}

	s, err = Open(dir, Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Loaded() != 2 {
		t.Fatalf("Loaded = %d, want 2 after truncate-and-append", s.Loaded())
	}
}

// testLog is one of the two log files Open keeps under a directory for
// Metrics payloads: where it lives and the header it must start with.
type testLog struct {
	path   string
	header []byte
}

func testLogs(t testing.TB, dir string) [2]testLog {
	t.Helper()
	schema, err := SchemaOf(Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256([]byte(schema))
	return [2]testLog{
		{filepath.Join(dir, "cells-"+hex.EncodeToString(sum[:8])+".isr"), cellsHeader(schema)},
		{filepath.Join(dir, "celltimes.isr"), []byte(hintsMagic)},
	}
}

// A crash between creating a log and finishing its header leaves a strict
// prefix of the header on disk. That is an interrupted create, not a foreign
// file: Open must start the log again and then serve it normally.
func TestStoreRepairsPartialHeader(t *testing.T) {
	var k Key
	k[0] = 9
	for i, ref := range testLogs(t, "") {
		for n := 1; n < len(ref.header); n++ {
			dir := t.TempDir()
			log := testLogs(t, dir)[i]
			if err := os.WriteFile(log.path, log.header[:n], 0o644); err != nil {
				t.Fatal(err)
			}
			s, err := Open(dir, Metrics{})
			if err != nil {
				t.Fatalf("log %d cut at %d header bytes: %v", i, n, err)
			}
			if err := s.Put(k, "cell/a", sampleMetrics(), time.Millisecond); err != nil {
				t.Fatal(err)
			}
			if err := s.PutHint("cell/a", time.Millisecond); err != nil {
				t.Fatal(err)
			}
			s.Close()
			s, err = Open(dir, Metrics{})
			if err != nil {
				t.Fatalf("log %d cut at %d header bytes, reopen: %v", i, n, err)
			}
			var out Metrics
			if _, ok := s.Get(k, &out); !ok || !reflect.DeepEqual(out, sampleMetrics()) {
				t.Fatalf("log %d cut at %d header bytes: Get after repair ok=%v", i, n, ok)
			}
			if _, ok := s.Hint("cell/a"); !ok {
				t.Fatalf("log %d cut at %d header bytes: hint lost after repair", i, n)
			}
			s.Close()
		}

		// A whole header's worth of bytes that are not the header is foreign:
		// Open refuses it and leaves it alone.
		dir := t.TempDir()
		log := testLogs(t, dir)[i]
		bad := append([]byte(nil), log.header...)
		bad[0] ^= 0x20
		if err := os.WriteFile(log.path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if s, err := Open(dir, Metrics{}); err == nil {
			s.Close()
			t.Fatalf("log %d: Open accepted a wrong-magic header", i)
		}
		if got, _ := os.ReadFile(log.path); !bytes.Equal(got, bad) {
			t.Fatalf("log %d: Open rewrote a foreign file", i)
		}
	}
}

func TestStoreSchemaChangeRotatesFile(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	var k Key
	k[0] = 1
	if err := s.Put(k, "cell/a", sampleMetrics(), time.Millisecond); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// A build with a different payload shape opens its own file: the old
	// one is untouched, the new store starts empty, and reopening with the
	// old type still sees the old record.
	s2, err := Open(dir, Measurement{})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Loaded() != 0 {
		t.Fatalf("new-schema store Loaded = %d, want 0", s2.Loaded())
	}
	s2.Close()

	s3, err := Open(dir, Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if s3.Loaded() != 1 {
		t.Fatalf("old-schema store Loaded = %d, want 1", s3.Loaded())
	}
	files, _ := filepath.Glob(filepath.Join(dir, "cells-*.isr"))
	if len(files) != 2 {
		t.Fatalf("want 2 schema-named files, got %v", files)
	}
}

func TestPutHintSkipsSmallRefresh(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.PutHint("c", 1000*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := s.PutHint("c", 1100*time.Millisecond); err != nil { // within 25%: kept at old
		t.Fatal(err)
	}
	if d, _ := s.Hint("c"); d != 1000*time.Millisecond {
		t.Fatalf("small refresh should be skipped, got %v", d)
	}
	if err := s.PutHint("c", 2*time.Second); err != nil { // big change: recorded
		t.Fatal(err)
	}
	if d, _ := s.Hint("c"); d != 2*time.Second {
		t.Fatalf("large refresh should be recorded, got %v", d)
	}
}

func TestHasherDistinguishesInputs(t *testing.T) {
	key := func(f func(h *Hasher)) Key {
		h := NewHasher()
		f(h)
		return h.Sum()
	}
	a := key(func(h *Hasher) { h.Str("ab"); h.Str("c") })
	b := key(func(h *Hasher) { h.Str("a"); h.Str("bc") })
	if a == b {
		t.Fatal("concatenation collision: framing is broken")
	}
	c := key(func(h *Hasher) { h.I64(1) })
	d := key(func(h *Hasher) { h.U64(1) })
	if c == d {
		t.Fatal("signed and unsigned 1 must hash differently")
	}
	// Value hashing: struct content and nil-ness matter; field identity too.
	type s1 struct{ A, B int }
	e := key(func(h *Hasher) { h.Value(s1{1, 2}) })
	f := key(func(h *Hasher) { h.Value(s1{2, 1}) })
	if e == f {
		t.Fatal("field order/content collision")
	}
	g := key(func(h *Hasher) { h.Value([]int(nil)) })
	i := key(func(h *Hasher) { h.Value([]int{}) })
	if g == i {
		t.Fatal("nil and empty slices must hash differently")
	}
	// Pointers hash through to their pointees.
	x := 5
	j := key(func(h *Hasher) { h.Value(&x) })
	l := key(func(h *Hasher) { h.Value(5) })
	if j != l {
		t.Fatal("pointer must hash as its pointee")
	}
}

func TestHasherPanicsOnFuncs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("hashing a func must panic, not silently collide")
		}
	}()
	NewHasher().Value(struct{ F func() }{func() {}})
}
