// Package trace records and replays workloads. A trace is the
// workload-as-first-class-input abstraction: one compact record per
// transaction — virtual timestamp, transaction kind, originating worker
// stream, and the row operations (table, global key, read/write/insert) it
// issues — captured from any running deployment by a Recorder and fed back
// deterministically by a Replayer. Because operations carry global keys,
// a trace recorded on one deployment replays on any candidate geometry:
// the same transactions become local or multisite according to the
// candidate's partitioning, which is exactly the question a trace-driven
// deployment advisor asks.
//
// The on-disk format is versioned and compact (delta-encoded varints,
// roughly two bytes per row operation); Encode and Decode are
// allocation-conscious (one op arena per trace, subsliced per record) and
// Decode rejects arbitrary corrupt input with clean errors — fuzzed by
// FuzzTraceDecode. Dump renders a human-readable text form.
package trace

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"sync"

	"islands/internal/engine"
	"islands/internal/sim"
	"islands/internal/storage"
	"islands/internal/workload"
)

// Version is the current trace format version. Decoders reject other
// versions: the format owns no compatibility shims yet, and a loud error
// beats silently misreading records. Bump it for any layout change.
const Version = 1

// magic identifies a trace file. The trailing byte doubles as a guard
// against text-mode corruption (like PNG's \r\n check, compressed to one
// byte).
var magic = [8]byte{'I', 'S', 'L', 'T', 'R', 'A', 'C', 'E'}

// KindGeneric marks records whose source reported no transaction kind
// (microbenchmarks, custom sources). TPC-C records carry workload.TxnKind.
const KindGeneric = 0xFF

// Stream identifies one recorded request stream: the (instance, worker)
// pair that generated a contiguous run of Count records. Streams are
// canonically sorted by (Instance, Worker); their records keep per-stream
// generation order.
type Stream struct {
	Instance int32
	Worker   int32
	Count    int
	start    int // index of the stream's first record in Records
}

// Start returns the index of the stream's first record in Trace.Records.
func (s Stream) Start() int { return s.start }

// Record is one recorded transaction.
type Record struct {
	// At is the virtual time the request was pulled by its worker
	// (monotonic within a stream).
	At sim.Time
	// Kind is the workload.TxnKind of the transaction, or KindGeneric.
	Kind uint8
	// Ops are the row operations, with global keys (portable across
	// deployment geometries).
	Ops []engine.Op
}

// Writes reports whether any operation mutates data.
func (r *Record) Writes() bool {
	for _, op := range r.Ops {
		if op.Kind != engine.OpRead {
			return true
		}
	}
	return false
}

// Trace is a recorded workload: metadata plus the per-stream record runs.
type Trace struct {
	// Label is a free-form workload description ("tpcc w=24 quad/4ISL").
	Label string
	// Tables declares the recorded deployment's tables, so a replay
	// deployment can be built from the trace alone.
	Tables []storage.TableDecl
	// Streams lists the recorded request streams, sorted by
	// (Instance, Worker); Streams[i]'s records are the contiguous run
	// Records[Streams[i].Start() : Start()+Count].
	Streams []Stream
	// Records holds every recorded transaction, grouped by stream.
	Records []Record

	// orderOnce caches the global time order (Replayer's merge of streams
	// by (At, stream, seq)); computed at most once per Trace, shared by
	// every Replayer built over it.
	orderOnce sync.Once
	order     []int32
}

// Span returns the virtual-time span covered by the trace: the maximum
// record timestamp (records start at 0).
func (t *Trace) Span() sim.Time {
	var max sim.Time
	for i := range t.Records {
		if t.Records[i].At > max {
			max = t.Records[i].At
		}
	}
	return max
}

// timeOrder returns record indices merged across streams into the global
// generation order: ascending At, ties broken by (stream, per-stream seq).
// Because records are grouped stream-major and per-stream timestamps are
// nondecreasing, sorting by (At, record index) realizes exactly that order.
func (t *Trace) timeOrder() []int32 {
	t.orderOnce.Do(func() {
		order := make([]int32, len(t.Records))
		for i := range order {
			order[i] = int32(i)
		}
		sort.SliceStable(order, func(a, b int) bool {
			return t.Records[order[a]].At < t.Records[order[b]].At
		})
		t.order = order
	})
	return t.order
}

// KindName names a record kind for dumps and summaries.
func KindName(k uint8) string {
	if k == KindGeneric {
		return "generic"
	}
	if k < uint8(workload.NumTxnKinds) {
		return workload.TxnKind(k).String()
	}
	return fmt.Sprintf("kind%d", k)
}

// Encode writes the trace in the versioned binary format. It validates the
// trace first: canonically sorted streams, stream counts consistent with
// the record count, monotonic per-stream timestamps, declared tables, and
// valid op kinds — an invalid trace is refused rather than written.
func (t *Trace) Encode(w io.Writer) error {
	buf, err := t.AppendBinary(nil)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// AppendBinary appends the encoded trace to buf and returns the extended
// slice (allocation-conscious path: callers reuse buffers).
func (t *Trace) AppendBinary(buf []byte) ([]byte, error) {
	if err := t.validate(); err != nil {
		return nil, err
	}
	buf = append(buf, magic[:]...)
	buf = binary.AppendUvarint(buf, Version)

	buf = binary.AppendUvarint(buf, uint64(len(t.Label)))
	buf = append(buf, t.Label...)

	buf = binary.AppendUvarint(buf, uint64(len(t.Tables)))
	for _, tab := range t.Tables {
		buf = binary.AppendUvarint(buf, uint64(tab.ID))
		buf = binary.AppendUvarint(buf, uint64(len(tab.Name)))
		buf = append(buf, tab.Name...)
		buf = binary.AppendUvarint(buf, uint64(tab.RowBytes))
		buf = binary.AppendUvarint(buf, uint64(tab.Rows))
	}

	buf = binary.AppendUvarint(buf, uint64(len(t.Streams)))
	for _, s := range t.Streams {
		buf = binary.AppendUvarint(buf, uint64(s.Instance))
		buf = binary.AppendUvarint(buf, uint64(s.Worker))
		buf = binary.AppendUvarint(buf, uint64(s.Count))
	}

	for _, s := range t.Streams {
		prevAt := sim.Time(0)
		for _, rec := range t.Records[s.start : s.start+s.Count] {
			buf = binary.AppendUvarint(buf, uint64(rec.At-prevAt))
			prevAt = rec.At
			buf = append(buf, rec.Kind)
			buf = binary.AppendUvarint(buf, uint64(len(rec.Ops)))
			prevKey := int64(0)
			for _, op := range rec.Ops {
				buf = binary.AppendUvarint(buf, uint64(op.Table)<<2|uint64(op.Kind))
				buf = binary.AppendVarint(buf, op.Key-prevKey)
				prevKey = op.Key
			}
		}
	}
	return buf, nil
}

// validate checks the invariants Encode relies on and Decode enforces.
func (t *Trace) validate() error {
	declared := make(map[storage.TableID]bool, len(t.Tables))
	for _, tab := range t.Tables {
		if tab.ID < 0 || tab.ID > storage.MaxTableID || tab.RowBytes < 0 || tab.Rows < 0 {
			return fmt.Errorf("trace: table %q has an id out of range, or negative row size or rows", tab.Name)
		}
		if declared[tab.ID] {
			return fmt.Errorf("trace: duplicate table id %d", tab.ID)
		}
		declared[tab.ID] = true
	}
	for i, s := range t.Streams {
		if s.Instance < 0 || s.Worker < 0 || s.Count < 0 {
			return fmt.Errorf("trace: stream %d has negative instance, worker or count", i)
		}
		if i > 0 {
			p := t.Streams[i-1]
			if s.Instance < p.Instance || (s.Instance == p.Instance && s.Worker <= p.Worker) {
				return fmt.Errorf("trace: streams not sorted by (instance, worker) at %d", i)
			}
		}
	}
	total := 0
	for i, s := range t.Streams {
		if s.start != total {
			return fmt.Errorf("trace: stream %d records not contiguous (start %d, want %d)", i, s.start, total)
		}
		total += s.Count
	}
	if total != len(t.Records) {
		return fmt.Errorf("trace: stream counts sum to %d but trace has %d records", total, len(t.Records))
	}
	for _, s := range t.Streams {
		prevAt := sim.Time(0)
		for ri, rec := range t.Records[s.start : s.start+s.Count] {
			if rec.At < prevAt {
				return fmt.Errorf("trace: stream i%d/w%d record %d goes back in time", s.Instance, s.Worker, ri)
			}
			prevAt = rec.At
			if rec.Kind != KindGeneric && rec.Kind >= uint8(workload.NumTxnKinds) {
				return fmt.Errorf("trace: record has unknown kind %d", rec.Kind)
			}
			for _, op := range rec.Ops {
				if op.Kind > engine.OpInsert {
					return fmt.Errorf("trace: op has unknown kind %d", op.Kind)
				}
				if !declared[op.Table] {
					return fmt.Errorf("trace: op touches undeclared table %d", op.Table)
				}
			}
		}
	}
	return nil
}

// decoder is a bounds-checked cursor over an encoded trace.
type decoder struct {
	data []byte
	pos  int
}

func (d *decoder) uvarint(what string) (uint64, error) {
	v, n := binary.Uvarint(d.data[d.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("trace: truncated or overlong %s at offset %d", what, d.pos)
	}
	d.pos += n
	return v, nil
}

func (d *decoder) varint(what string) (int64, error) {
	v, n := binary.Varint(d.data[d.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("trace: truncated or overlong %s at offset %d", what, d.pos)
	}
	d.pos += n
	return v, nil
}

func (d *decoder) byte(what string) (byte, error) {
	if d.pos >= len(d.data) {
		return 0, fmt.Errorf("trace: truncated %s at offset %d", what, d.pos)
	}
	b := d.data[d.pos]
	d.pos++
	return b, nil
}

func (d *decoder) str(what string, n uint64) (string, error) {
	if n > uint64(len(d.data)-d.pos) {
		return "", fmt.Errorf("trace: %s length %d exceeds remaining input", what, n)
	}
	s := string(d.data[d.pos : d.pos+int(n)])
	d.pos += int(n)
	return s, nil
}

// remaining returns the unread byte count (for count sanity bounds).
func (d *decoder) remaining() int { return len(d.data) - d.pos }

// Decode parses an encoded trace. Arbitrary corrupt input returns a
// descriptive error; it never panics and never allocates more than the
// input size warrants (every count is checked against the bytes that
// must back it before allocation).
func Decode(data []byte) (*Trace, error) {
	d := &decoder{data: data}
	if len(data) < len(magic) {
		return nil, fmt.Errorf("trace: input shorter than magic")
	}
	if string(data[:len(magic)]) != string(magic[:]) {
		return nil, fmt.Errorf("trace: bad magic")
	}
	d.pos = len(magic)
	ver, err := d.uvarint("version")
	if err != nil {
		return nil, err
	}
	if ver != Version {
		return nil, fmt.Errorf("trace: unsupported version %d (have %d)", ver, Version)
	}

	t := &Trace{}
	n, err := d.uvarint("label length")
	if err != nil {
		return nil, err
	}
	if t.Label, err = d.str("label", n); err != nil {
		return nil, err
	}

	ntab, err := d.uvarint("table count")
	if err != nil {
		return nil, err
	}
	// Each table needs at least 4 encoded bytes (id, name len, row size,
	// rows): a count beyond that is corrupt, not merely large.
	if ntab > uint64(d.remaining())/4 {
		return nil, fmt.Errorf("trace: table count %d exceeds remaining input", ntab)
	}
	declared := make(map[storage.TableID]bool, ntab)
	t.Tables = make([]storage.TableDecl, 0, ntab)
	for i := uint64(0); i < ntab; i++ {
		var tab storage.TableDecl
		id, err := d.uvarint("table id")
		if err != nil {
			return nil, err
		}
		if id > uint64(storage.MaxTableID) {
			return nil, fmt.Errorf("trace: table id %d out of range", id)
		}
		tab.ID = storage.TableID(id)
		if declared[tab.ID] {
			return nil, fmt.Errorf("trace: duplicate table id %d", id)
		}
		declared[tab.ID] = true
		nl, err := d.uvarint("table name length")
		if err != nil {
			return nil, err
		}
		if tab.Name, err = d.str("table name", nl); err != nil {
			return nil, err
		}
		rb, err := d.uvarint("table row size")
		if err != nil {
			return nil, err
		}
		if rb > math.MaxInt32 {
			return nil, fmt.Errorf("trace: table row size %d out of range", rb)
		}
		tab.RowBytes = int(rb)
		rows, err := d.uvarint("table rows")
		if err != nil {
			return nil, err
		}
		if rows > math.MaxInt64 {
			return nil, fmt.Errorf("trace: table rows %d out of range", rows)
		}
		tab.Rows = int64(rows)
		t.Tables = append(t.Tables, tab)
	}

	nstream, err := d.uvarint("stream count")
	if err != nil {
		return nil, err
	}
	if nstream > uint64(d.remaining())/3 {
		return nil, fmt.Errorf("trace: stream count %d exceeds remaining input", nstream)
	}
	t.Streams = make([]Stream, 0, nstream)
	total := uint64(0)
	for i := uint64(0); i < nstream; i++ {
		inst, err := d.uvarint("stream instance")
		if err != nil {
			return nil, err
		}
		worker, err := d.uvarint("stream worker")
		if err != nil {
			return nil, err
		}
		if inst > math.MaxInt32 || worker > math.MaxInt32 {
			return nil, fmt.Errorf("trace: stream %d id out of range", i)
		}
		count, err := d.uvarint("stream record count")
		if err != nil {
			return nil, err
		}
		s := Stream{Instance: int32(inst), Worker: int32(worker), Count: int(count), start: int(total)}
		if i > 0 {
			p := t.Streams[i-1]
			if s.Instance < p.Instance || (s.Instance == p.Instance && s.Worker <= p.Worker) {
				return nil, fmt.Errorf("trace: streams not sorted by (instance, worker) at %d", i)
			}
		}
		total += count
		// Each record needs at least 3 encoded bytes (time delta, kind, op
		// count).
		if total > uint64(d.remaining())/3 {
			return nil, fmt.Errorf("trace: record count %d exceeds remaining input", total)
		}
		t.Streams = append(t.Streams, s)
	}

	t.Records = make([]Record, 0, total)
	// Ops live in one arena, subsliced per record once the arena is fully
	// built (growth would invalidate earlier subslices).
	var arena []engine.Op
	offs := make([]int32, 0, total+1)
	for _, s := range t.Streams {
		prevAt := sim.Time(0)
		for r := 0; r < s.Count; r++ {
			dt, err := d.uvarint("record time delta")
			if err != nil {
				return nil, err
			}
			if dt > math.MaxInt64 || sim.Time(dt) > math.MaxInt64-prevAt {
				return nil, fmt.Errorf("trace: record timestamp overflows")
			}
			at := prevAt + sim.Time(dt)
			prevAt = at
			kind, err := d.byte("record kind")
			if err != nil {
				return nil, err
			}
			if kind != KindGeneric && kind >= uint8(workload.NumTxnKinds) {
				return nil, fmt.Errorf("trace: record has unknown kind %d", kind)
			}
			nops, err := d.uvarint("op count")
			if err != nil {
				return nil, err
			}
			// Each op needs at least 2 encoded bytes (tag, key delta).
			if nops > uint64(d.remaining())/2 {
				return nil, fmt.Errorf("trace: op count %d exceeds remaining input", nops)
			}
			offs = append(offs, int32(len(arena)))
			prevKey := int64(0)
			for o := uint64(0); o < nops; o++ {
				tag, err := d.uvarint("op tag")
				if err != nil {
					return nil, err
				}
				kindBits := engine.OpKind(tag & 3)
				if kindBits > engine.OpInsert {
					return nil, fmt.Errorf("trace: op has unknown kind %d", kindBits)
				}
				if tag>>2 > math.MaxInt32 {
					return nil, fmt.Errorf("trace: op table id %d out of range", tag>>2)
				}
				table := storage.TableID(tag >> 2)
				if !declared[table] {
					return nil, fmt.Errorf("trace: op touches undeclared table %d", table)
				}
				dk, err := d.varint("op key delta")
				if err != nil {
					return nil, err
				}
				key := prevKey + dk
				prevKey = key
				arena = append(arena, engine.Op{Table: table, Key: key, Kind: kindBits})
			}
			t.Records = append(t.Records, Record{At: at, Kind: kind})
		}
	}
	if d.remaining() != 0 {
		return nil, fmt.Errorf("trace: %d trailing bytes after records", d.remaining())
	}
	offs = append(offs, int32(len(arena)))
	for i := range t.Records {
		if offs[i] != offs[i+1] {
			t.Records[i].Ops = arena[offs[i]:offs[i+1]:offs[i+1]]
		}
	}
	return t, nil
}

// Read decodes a trace from a reader (whole-input formats keep Decode the
// primitive).
func Read(r io.Reader) (*Trace, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return Decode(data)
}

// ReadFile decodes a trace file.
func ReadFile(path string) (*Trace, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	t, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%w (reading %s)", err, path)
	}
	return t, nil
}

// WriteFile encodes the trace to a file.
func (t *Trace) WriteFile(path string) error {
	buf, err := t.AppendBinary(nil)
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// Dump writes a human-readable text rendering: the header, the table set,
// per-stream summaries, and up to maxPerStream records of each stream
// (0 = all). The text mode is for eyeballing and diffing traces, not for
// machine consumption — the binary format is the interchange form.
func (t *Trace) Dump(w io.Writer, maxPerStream int) {
	fmt.Fprintf(w, "trace: %s\n", t.Label)
	fmt.Fprintf(w, "tables: %d\n", len(t.Tables))
	for _, tab := range t.Tables {
		fmt.Fprintf(w, "  %-3d %-12s rows=%-10d rowbytes=%d\n", tab.ID, tab.Name, tab.Rows, tab.RowBytes)
	}
	fmt.Fprintf(w, "streams: %d  records: %d  span: %s\n", len(t.Streams), len(t.Records), t.Span())
	kindCounts := map[uint8]int{}
	for i := range t.Records {
		kindCounts[t.Records[i].Kind]++
	}
	fmt.Fprintf(w, "kinds:")
	for k := 0; k <= KindGeneric; k++ {
		if c := kindCounts[uint8(k)]; c > 0 {
			fmt.Fprintf(w, " %s=%d", KindName(uint8(k)), c)
		}
	}
	fmt.Fprintln(w)
	for _, s := range t.Streams {
		fmt.Fprintf(w, "stream i%d/w%d: %d records\n", s.Instance, s.Worker, s.Count)
		n := s.Count
		if maxPerStream > 0 && n > maxPerStream {
			n = maxPerStream
		}
		for _, rec := range t.Records[s.start : s.start+n] {
			fmt.Fprintf(w, "  @%-10s %-11s", rec.At, KindName(rec.Kind))
			for _, op := range rec.Ops {
				fmt.Fprintf(w, " %c%d:%d", "rui"[op.Kind], op.Table, op.Key)
			}
			fmt.Fprintln(w)
		}
		if n < s.Count {
			fmt.Fprintf(w, "  ... %d more\n", s.Count-n)
		}
	}
}
