// Package resultstore is a persistent, content-addressed archive of
// experiment cell results. Each record is one executed cell: a 32-byte
// semantic key (a hash of everything the cell's simulation consumes —
// machine geometry, interconnect, config, workload spec, seed, measurement
// mode — salted with a code fingerprint), the cell's name, its wall-clock,
// and its full metrics payload encoded bit-exactly. Because every cell of
// this repo is a deterministic pure function of those inputs (the
// determinism contract of DESIGN.md), a stored record can stand in for a
// fresh execution byte-for-byte: the harness executor consults the store
// before dispatching a cell and emits cached metrics on hit.
//
// The on-disk format is versioned and self-describing: each archive file
// carries a schema string derived from the payload's Go type, and the file
// name carries the schema's hash, so a build whose Metrics shape changed
// writes a fresh file and leaves old archives readable by old code. Floats
// are stored as raw IEEE bits — decoding reproduces every value exactly,
// which is what lets a warm run reprint a fingerprint byte-identically.
package resultstore

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"reflect"
)

// Key is a content-addressed cell key: a SHA-256 over the cell's semantic
// inputs plus the code-fingerprint salt.
type Key [32]byte

// String returns the key's short hex form (for logs and dumps).
func (k Key) String() string { return hex.EncodeToString(k[:8]) }

// Hasher accumulates the semantic inputs of one cell into a Key. Every
// write is framed (a tag byte plus a length where the payload is variable),
// so distinct input sequences cannot collide by concatenation.
type Hasher struct {
	h   hash.Hash
	buf []byte
}

// NewHasher returns an empty hasher.
func NewHasher() *Hasher { return &Hasher{h: sha256.New()} }

// emit frames a variable-length payload: its tag, its length and the
// payload itself, appended to h.buf and written once, so a string payload is
// never copied to the heap.
func emit[P string | []byte](h *Hasher, tag byte, payload P) {
	h.buf = append(h.buf[:0], tag)
	h.buf = binary.AppendUvarint(h.buf, uint64(len(payload)))
	h.buf = append(h.buf, payload...)
	h.h.Write(h.buf)
}

func (h *Hasher) fixed(tag byte, v uint64) {
	h.buf = append(h.buf[:0], tag)
	h.buf = binary.LittleEndian.AppendUint64(h.buf, v)
	h.h.Write(h.buf)
}

// Str hashes a string input.
func (h *Hasher) Str(s string) { emit(h, 's', s) }

// Bytes hashes an opaque byte-string input (salts, content digests).
func (h *Hasher) Bytes(b []byte) { emit(h, 'b', b) }

// I64 hashes a signed integer input.
func (h *Hasher) I64(v int64) { h.fixed('i', uint64(v)) }

// U64 hashes an unsigned integer input.
func (h *Hasher) U64(v uint64) { h.fixed('u', v) }

// F64 hashes a float input by its IEEE bits (NaNs and signed zeros stay
// distinct, exactly like the simulation treats them).
func (h *Hasher) F64(v float64) { h.fixed('f', math.Float64bits(v)) }

// Bool hashes a boolean input.
func (h *Hasher) Bool(v bool) {
	var b uint64
	if v {
		b = 1
	}
	h.fixed('t', b)
}

// Value hashes an arbitrary data value by deep reflection: scalars by bits,
// strings framed, slices and arrays with their lengths, structs field by
// field (field names included, so renames conservatively change keys),
// pointers dereferenced, interfaces with their concrete type name. This is
// how cell specs hash whole core.Config and topology.Machine values without
// a hand-written field list that could silently fall behind the structs —
// a newly added field changes keys automatically. Unexported fields are
// hashed too (the interconnect's hop matrix lives in one).
//
// Value panics on kinds that have no stable content identity (funcs, maps,
// channels): a spec carrying one must be hashed by its observable effect
// instead, the way MicroCell hashes the config its Tweak produced.
func (h *Hasher) Value(v any) {
	h.value(reflect.ValueOf(v))
}

func (h *Hasher) value(v reflect.Value) {
	if !v.IsValid() {
		h.fixed('z', 0)
		return
	}
	switch v.Kind() {
	case reflect.Bool:
		h.Bool(v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		h.I64(v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		h.U64(v.Uint())
	case reflect.Float32, reflect.Float64:
		h.F64(v.Float())
	case reflect.String:
		h.Str(v.String())
	case reflect.Pointer:
		if v.IsNil() {
			h.fixed('z', 0)
			return
		}
		h.value(v.Elem())
	case reflect.Interface:
		if v.IsNil() {
			h.fixed('z', 0)
			return
		}
		h.Str(v.Elem().Type().String())
		h.value(v.Elem())
	case reflect.Slice:
		if v.IsNil() {
			h.fixed('z', 0)
			return
		}
		h.fixed('[', uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			h.value(v.Index(i))
		}
	case reflect.Array:
		h.fixed('[', uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			h.value(v.Index(i))
		}
	case reflect.Struct:
		t := v.Type()
		h.fixed('{', uint64(t.NumField()))
		for i := 0; i < t.NumField(); i++ {
			h.Str(t.Field(i).Name)
			h.value(v.Field(i))
		}
	default:
		panic(fmt.Sprintf("resultstore: cannot hash %s (kind %s) into a cell key", v.Type(), v.Kind()))
	}
}

// Sum returns the accumulated key. The hasher may keep accumulating after
// Sum (Sum does not reset).
func (h *Hasher) Sum() Key {
	var k Key
	h.h.Sum(k[:0])
	return k
}
