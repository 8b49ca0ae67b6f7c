package resultstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"time"
)

// File names and magics. The cells file carries the schema hash in its
// name, so a build whose payload shape changed writes a fresh file and the
// old archive stays readable by old code — stale caches self-invalidate at
// the file level (the code-fingerprint salt inside every Key invalidates at
// the record level). The hints file is schema-independent: it maps cell
// names to wall-clocks and survives payload changes, which is exactly what
// lets learned cost hints from last week's build schedule this week's cold
// run.
const (
	cellsMagic = "ISLRSLT1"
	hintsMagic = "ISLHINT1"
)

// Store is a persistent content-addressed archive of cell results plus a
// name-keyed archive of cell wall-clocks (learned cost hints). One Store
// serves any number of concurrent readers and writers within a process;
// records are append-only and deduplicated by key.
type Store struct {
	dir    string
	schema string
	proto  reflect.Type

	mu     sync.RWMutex
	cells  map[Key]cellEntry
	hints  map[string]time.Duration
	cellsF *os.File
	hintsF *os.File

	// loadedCells counts records loaded from disk at Open (reopen tests and
	// hit accounting distinguish them from fresh Puts).
	loadedCells int
}

type cellEntry struct {
	name    string
	elapsed time.Duration
	value   []byte // encoded per the schema
}

// Open opens (creating if needed) the store under dir for payloads of
// proto's type. The payload type must be plain exported data (SchemaOf).
// A log whose tail was cut mid-append — a crashed run — is truncated back
// to its last whole record and everything before it is served; one cut
// inside its header is started again. Any other header is an error.
func Open(dir string, proto any) (*Store, error) {
	schema, err := SchemaOf(proto)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	sum := sha256.Sum256([]byte(schema))
	s := &Store{
		dir:    dir,
		schema: schema,
		proto:  reflect.TypeOf(proto),
		cells:  make(map[Key]cellEntry),
		hints:  make(map[string]time.Duration),
	}
	s.cellsF, err = s.openLog(filepath.Join(dir, "cells-"+hex.EncodeToString(sum[:8])+".isr"),
		cellsHeader(schema), s.loadCellRecord)
	if err != nil {
		return nil, err
	}
	s.hintsF, err = s.openLog(filepath.Join(dir, "celltimes.isr"), []byte(hintsMagic), s.loadHintRecord)
	if err != nil {
		s.cellsF.Close()
		return nil, err
	}
	s.loadedCells = len(s.cells)
	return s, nil
}

func cellsHeader(schema string) []byte {
	h := []byte(cellsMagic)
	h = binary.AppendUvarint(h, uint64(len(schema)))
	return append(h, schema...)
}

// openLog opens one append-only record log: replay what is there, cut the
// file back to its clean prefix so later appends extend a clean log, and
// write the header when the log has yet to be started.
func (s *Store) openLog(path string, header []byte, load func(payload []byte) error) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Close()
		return nil, err
	}
	good, ok := replayLog(data, header, load)
	if !ok {
		f.Close()
		return nil, fmt.Errorf("resultstore: %s has a foreign header (not this store's format/schema)", path)
	}
	if good < len(data) {
		if err := f.Truncate(int64(good)); err != nil {
			f.Close()
			return nil, err
		}
	}
	if good == 0 {
		_, err = f.Write(header)
	} else {
		_, err = f.Seek(int64(good), 0)
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// replayLog feeds the whole records of one log file's bytes through load and
// returns the length of the clean prefix: the header plus every record before
// the first that is cut short or that load rejects (an interrupted append).
// A clean prefix of 0 means the log has yet to be started: data is empty, or
// a strict prefix of the header — a create interrupted before the header
// reached the disk, after which no record can follow, so starting again loses
// nothing. Bytes that are neither belong to another format or schema: !ok.
func replayLog(data, header []byte, load func(payload []byte) error) (good int, ok bool) {
	if len(data) < len(header) && bytes.HasPrefix(header, data) {
		return 0, true
	}
	if !bytes.HasPrefix(data, header) {
		return 0, false
	}
	rest := data[len(header):]
	for len(rest) > 0 {
		payload, next, err := decodeBytes(rest)
		if err != nil || load(payload) != nil {
			break
		}
		rest = next
	}
	return len(data) - len(rest), true
}

func (s *Store) loadCellRecord(payload []byte) error {
	var k Key
	if len(payload) < len(k) {
		return errTruncated
	}
	copy(k[:], payload)
	payload = payload[len(k):]
	name, payload, err := decodeBytes(payload)
	if err != nil {
		return err
	}
	elapsed, n := binary.Uvarint(payload)
	if n <= 0 {
		return errTruncated
	}
	// The value bytes are kept encoded; Get decodes on demand. Validate
	// them now so a corrupt record is rejected at load, not at first Get.
	value := payload[n:]
	out := reflect.New(s.proto)
	rest, err := decodeTyped(value, out.Elem())
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("resultstore: %d trailing bytes in record", len(rest))
	}
	s.cells[k] = cellEntry{name: string(name), elapsed: time.Duration(elapsed), value: append([]byte(nil), value...)}
	return nil
}

func (s *Store) loadHintRecord(payload []byte) error {
	name, payload, err := decodeBytes(payload)
	if err != nil {
		return err
	}
	elapsed, n := binary.Uvarint(payload)
	if n <= 0 {
		return errTruncated
	}
	if len(payload) != n {
		return fmt.Errorf("resultstore: %d trailing bytes in hint", len(payload)-n)
	}
	s.hints[string(name)] = time.Duration(elapsed)
	return nil
}

// Get decodes the record keyed k into out (a pointer to the proto type)
// and reports whether it was present, along with the recorded execution
// wall-clock.
func (s *Store) Get(k Key, out any) (time.Duration, bool) {
	s.mu.RLock()
	e, ok := s.cells[k]
	s.mu.RUnlock()
	if !ok {
		return 0, false
	}
	v := reflect.ValueOf(out)
	if v.Kind() != reflect.Pointer || v.Elem().Type() != s.proto {
		panic(fmt.Sprintf("resultstore: Get wants *%s, got %T", s.proto, out))
	}
	v.Elem().SetZero()
	rest, err := decodeTyped(e.value, v.Elem())
	if err != nil || len(rest) != 0 {
		return 0, false // validated at load; unreachable short of memory corruption
	}
	return e.elapsed, true
}

// Put archives one executed cell under key k. A key already present is a
// no-op (first write wins; by the determinism contract a duplicate's value
// is identical). val may be the payload value or a pointer to it.
func (s *Store) Put(k Key, name string, val any, elapsed time.Duration) error {
	v := reflect.ValueOf(val)
	if v.Kind() == reflect.Pointer {
		v = v.Elem()
	}
	if v.Type() != s.proto {
		return fmt.Errorf("resultstore: Put wants %s, got %T", s.proto, val)
	}
	value := appendTyped(nil, v)

	payload := make([]byte, 0, len(k)+len(name)+len(value)+16)
	payload = append(payload, k[:]...)
	payload = binary.AppendUvarint(payload, uint64(len(name)))
	payload = append(payload, name...)
	payload = binary.AppendUvarint(payload, uint64(elapsed))
	payload = append(payload, value...)

	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.cells[k]; dup {
		return nil
	}
	if err := appendRecord(s.cellsF, payload); err != nil {
		return err
	}
	s.cells[k] = cellEntry{name: name, elapsed: elapsed, value: value}
	return nil
}

// Hint returns the stored wall-clock for a cell name — the learned cost
// hint the executor feeds into dispatch order.
func (s *Store) Hint(name string) (time.Duration, bool) {
	s.mu.RLock()
	d, ok := s.hints[name]
	s.mu.RUnlock()
	return d, ok
}

// PutHint records a cell's execution wall-clock under its name. Refreshes
// within 25% of the stored hint are skipped: dispatch order only needs the
// magnitude, and the log should not grow by one record per cell per run
// forever.
func (s *Store) PutHint(name string, elapsed time.Duration) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.hints[name]; ok {
		diff := elapsed - old
		if diff < 0 {
			diff = -diff
		}
		if diff*4 <= old {
			return nil
		}
	}
	payload := binary.AppendUvarint(nil, uint64(len(name)))
	payload = append(payload, name...)
	payload = binary.AppendUvarint(payload, uint64(elapsed))
	if err := appendRecord(s.hintsF, payload); err != nil {
		return err
	}
	s.hints[name] = elapsed
	return nil
}

func appendRecord(f *os.File, payload []byte) error {
	rec := binary.AppendUvarint(make([]byte, 0, len(payload)+4), uint64(len(payload)))
	rec = append(rec, payload...)
	_, err := f.Write(rec)
	return err
}

// Len returns the number of distinct cell records held.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.cells)
}

// Loaded returns how many cell records were read from disk at Open (before
// any Put of this process).
func (s *Store) Loaded() int { return s.loadedCells }

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Close flushes nothing (appends are written through) and releases the log
// handles. The Store must not be used after Close.
func (s *Store) Close() error {
	err1 := s.cellsF.Close()
	err2 := s.hintsF.Close()
	if err1 != nil {
		return err1
	}
	return err2
}
