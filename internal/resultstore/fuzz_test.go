package resultstore

import (
	"bytes"
	"encoding/binary"
	"os"
	"reflect"
	"testing"
	"time"
)

// fuzzSeedLogs fills a store with two cells and two hints and returns the
// bytes of its two log files, to seed the corpus.
func fuzzSeedLogs(f *testing.F) (cells, hints []byte) {
	dir := f.TempDir()
	s, err := Open(dir, Metrics{})
	if err != nil {
		f.Fatal(err)
	}
	var k1, k2 Key
	k1[0], k2[31] = 0xAA, 0x55
	if err := s.Put(k1, "fuzz/a", sampleMetrics(), 3*time.Millisecond); err != nil {
		f.Fatal(err)
	}
	if err := s.Put(k2, "fuzz/b", Metrics{}, 0); err != nil {
		f.Fatal(err)
	}
	if err := s.PutHint("fuzz/a", 3*time.Millisecond); err != nil {
		f.Fatal(err)
	}
	if err := s.PutHint("fuzz/b", time.Second); err != nil {
		f.Fatal(err)
	}
	s.Close()
	logs := testLogs(f, dir)
	if cells, err = os.ReadFile(logs[0].path); err != nil {
		f.Fatal(err)
	}
	if hints, err = os.ReadFile(logs[1].path); err != nil {
		f.Fatal(err)
	}
	return cells, hints
}

// FuzzStoreDecode feeds arbitrary bytes, as the content of the cells log and
// of the hints log, to the replay that Open runs over each (replayLog with
// the store's own record loaders). No input may panic or hang it. It either
// refuses the bytes as foreign, or accepts a clean prefix of them from which
// every loaded key Gets, and which replays to itself with the same records:
// what Open leaves on disk, a second Open finds whole. The last step checks
// exactly that through Open, on files.
func FuzzStoreDecode(f *testing.F) {
	cells, hints := fuzzSeedLogs(f)
	hdr := len(testLogs(f, "")[0].header)
	f.Add(cells)
	f.Add(cells[:hdr+(len(cells)-hdr)/2]) // truncated mid-record
	f.Add(cells[:len(cellsMagic)])        // magic only: a create cut inside the header
	f.Add([]byte{})
	f.Add(cells[:hdr])                                    // header, no records
	f.Add(append(append([]byte{}, cells...), 0xFF, 0x7F)) // trailing junk
	flipped := append([]byte{}, cells...)
	flipped[hdr+(len(flipped)-hdr)/3] ^= 0x40 // bit flip inside the first record
	f.Add(flipped)
	// Decode bomb: a record whose M.Inner.Per claims 2^40 elements. Its value
	// starts Window, Committed, TxnTime, Break[0..3], then Per's count.
	bomb := append(make([]byte, len(Key{})), 1, 'x', 0) // key, name "x", elapsed 0
	bomb = append(bomb, 0, 0, 0, 0, 0, 0, 0)
	bomb = binary.AppendUvarint(bomb, 1<<40)
	f.Add(append(binary.AppendUvarint(append([]byte{}, cells[:hdr]...), uint64(len(bomb))), bomb...))
	wrongMagic := append([]byte{}, cells...)
	wrongMagic[0] ^= 0x20
	f.Add(wrongMagic)
	f.Add(hints)
	f.Add(hints[:len(hints)-1]) // hint cut mid-record

	dir := f.TempDir()
	logs := testLogs(f, dir)
	f.Fuzz(func(t *testing.T, data []byte) {
		for i, log := range logs {
			replay := func(data []byte) (*Store, int, bool) {
				s := &Store{proto: reflect.TypeOf(Metrics{}), cells: map[Key]cellEntry{}, hints: map[string]time.Duration{}}
				load := s.loadCellRecord
				if i == 1 {
					load = s.loadHintRecord
				}
				good, ok := replayLog(data, log.header, load)
				return s, good, ok
			}
			s, good, ok := replay(data)
			if !ok {
				continue
			}
			var out Metrics
			for k := range s.cells {
				if _, ok := s.Get(k, &out); !ok {
					t.Fatalf("log %d: loaded key %x does not Get", i, k[:4])
				}
			}
			clean := data[:good]
			if good == 0 {
				clean = log.header
			} else if good < len(log.header) {
				t.Fatalf("log %d: clean prefix of %d bytes is shorter than the header", i, good)
			}
			s2, good2, ok := replay(clean)
			if !ok || good2 != len(clean) || len(s2.cells) != len(s.cells) || len(s2.hints) != len(s.hints) {
				t.Fatalf("log %d: the clean prefix does not replay to itself (ok=%v, %d of %d bytes, %d/%d cells, %d/%d hints)",
					i, ok, good2, len(clean), len(s2.cells), len(s.cells), len(s2.hints), len(s.hints))
			}

			if err := os.WriteFile(log.path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			for pass := 0; pass < 2; pass++ {
				opened, err := Open(dir, Metrics{})
				if err != nil {
					t.Fatalf("log %d, open %d: %v", i, pass, err)
				}
				if len(opened.cells) != len(s.cells) || len(opened.hints) != len(s.hints) || opened.Loaded() != len(s.cells) {
					t.Fatalf("log %d, open %d: loaded %d cells %d hints, replay loaded %d and %d",
						i, pass, opened.Loaded(), len(opened.hints), len(s.cells), len(s.hints))
				}
				opened.Close()
				if got, _ := os.ReadFile(log.path); !bytes.Equal(got, clean) {
					t.Fatalf("log %d, open %d: file is not the clean prefix", i, pass)
				}
			}
			os.Remove(log.path)
		}
	})
}
