package resultstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
)

// The archive format is self-describing: each file header carries a schema
// string derived from the payload's Go type, and every record's value bytes
// are encoded by walking that type. One codec reads and writes it —
// reflection over the live Go type (appendTyped/decodeTyped, used by
// Store.Open/Get/Put). The schema string is never parsed: SchemaOf derives
// it, its hash names the cells file, and Open byte-compares it against the
// header, so bytes written from a different payload shape are never decoded.
//
// Schema grammar (no whitespace):
//
//	scalar: bool | i8 | i16 | i32 | i64 | u8 | u16 | u32 | u64 | f32 | f64 | str
//	slice:  "[]" elem
//	array:  "[" N "]" elem
//	struct: "{" name ":" elem (";" name ":" elem)* "}"  |  "{}"
//
// Value wire format, by schema node:
//
//	bool   one byte, strictly 0 or 1
//	iN     zigzag varint
//	uN     uvarint
//	f32    4 bytes little-endian IEEE bits (exact)
//	f64    8 bytes little-endian IEEE bits (exact)
//	str    uvarint byte count + bytes
//	slice  uvarint element count + elements
//	array  exactly N elements
//	struct fields in declaration order
//
// Floats travel as raw bits so decoding reproduces every value exactly;
// that exactness is what lets a warm store replay a fingerprint
// byte-identically.

// SchemaOf derives the canonical schema string of a payload type. Field
// names are part of the schema, so renames version the archive like
// retypings do. Types the grammar cannot carry (pointers, maps, interfaces,
// funcs, unexported fields) are errors: the payload must be plain data.
func SchemaOf(proto any) (string, error) {
	var b strings.Builder
	if err := schemaOfType(&b, reflect.TypeOf(proto), 0); err != nil {
		return "", err
	}
	return b.String(), nil
}

// maxSchemaDepth bounds the nesting of a payload type.
const maxSchemaDepth = 32

func schemaOfType(b *strings.Builder, t reflect.Type, depth int) error {
	if t == nil {
		return errors.New("resultstore: nil payload type")
	}
	if depth > maxSchemaDepth {
		return fmt.Errorf("resultstore: type %s nests deeper than %d", t, maxSchemaDepth)
	}
	switch t.Kind() {
	case reflect.Bool:
		b.WriteString("bool")
	case reflect.Int8:
		b.WriteString("i8")
	case reflect.Int16:
		b.WriteString("i16")
	case reflect.Int32:
		b.WriteString("i32")
	case reflect.Int64, reflect.Int:
		b.WriteString("i64")
	case reflect.Uint8:
		b.WriteString("u8")
	case reflect.Uint16:
		b.WriteString("u16")
	case reflect.Uint32:
		b.WriteString("u32")
	case reflect.Uint64, reflect.Uint:
		b.WriteString("u64")
	case reflect.Float32:
		b.WriteString("f32")
	case reflect.Float64:
		b.WriteString("f64")
	case reflect.String:
		b.WriteString("str")
	case reflect.Slice:
		b.WriteString("[]")
		return schemaOfType(b, t.Elem(), depth+1)
	case reflect.Array:
		// Zero-length arrays (like empty structs below) are rejected: a
		// value that encodes to zero bytes would break the bound decodeTyped
		// puts on a slice count (every element costs at least one byte).
		if t.Len() == 0 {
			return fmt.Errorf("resultstore: cannot archive zero-length array %s", t)
		}
		fmt.Fprintf(b, "[%d]", t.Len())
		return schemaOfType(b, t.Elem(), depth+1)
	case reflect.Struct:
		if t.NumField() == 0 {
			return fmt.Errorf("resultstore: cannot archive empty struct %s", t)
		}
		b.WriteByte('{')
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				return fmt.Errorf("resultstore: %s has unexported field %s; archive payloads must be plain exported data", t, f.Name)
			}
			if i > 0 {
				b.WriteByte(';')
			}
			b.WriteString(f.Name)
			b.WriteByte(':')
			if err := schemaOfType(b, f.Type, depth+1); err != nil {
				return err
			}
		}
		b.WriteByte('}')
	default:
		return fmt.Errorf("resultstore: cannot archive %s (kind %s)", t, t.Kind())
	}
	return nil
}

// appendTyped encodes v per the grammar. v's type must be one SchemaOf
// accepts (Store.Open verified that once).
func appendTyped(dst []byte, v reflect.Value) []byte {
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			return append(dst, 1)
		}
		return append(dst, 0)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return binary.AppendVarint(dst, v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return binary.AppendUvarint(dst, v.Uint())
	case reflect.Float32:
		return binary.LittleEndian.AppendUint32(dst, math.Float32bits(float32(v.Float())))
	case reflect.Float64:
		return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.Float()))
	case reflect.String:
		dst = binary.AppendUvarint(dst, uint64(v.Len()))
		return append(dst, v.String()...)
	case reflect.Slice:
		dst = binary.AppendUvarint(dst, uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			dst = appendTyped(dst, v.Index(i))
		}
		return dst
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			dst = appendTyped(dst, v.Index(i))
		}
		return dst
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			dst = appendTyped(dst, v.Field(i))
		}
		return dst
	}
	panic(fmt.Sprintf("resultstore: cannot encode kind %s", v.Kind()))
}

// decodeTyped decodes data into the addressable value v, returning the
// remaining bytes. Decoding is strict: truncation, overflowing varints and
// out-of-range scalars are errors, never silent wraps.
func decodeTyped(data []byte, v reflect.Value) ([]byte, error) {
	switch v.Kind() {
	case reflect.Bool:
		if len(data) < 1 {
			return nil, errTruncated
		}
		switch data[0] {
		case 0:
			v.SetBool(false)
		case 1:
			v.SetBool(true)
		default:
			return nil, fmt.Errorf("resultstore: bad bool byte %d", data[0])
		}
		return data[1:], nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		x, n := binary.Varint(data)
		if n <= 0 {
			return nil, errTruncated
		}
		if v.OverflowInt(x) {
			return nil, fmt.Errorf("resultstore: %d overflows %s", x, v.Type())
		}
		v.SetInt(x)
		return data[n:], nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, errTruncated
		}
		if v.OverflowUint(x) {
			return nil, fmt.Errorf("resultstore: %d overflows %s", x, v.Type())
		}
		v.SetUint(x)
		return data[n:], nil
	case reflect.Float32:
		if len(data) < 4 {
			return nil, errTruncated
		}
		v.SetFloat(float64(math.Float32frombits(binary.LittleEndian.Uint32(data))))
		return data[4:], nil
	case reflect.Float64:
		if len(data) < 8 {
			return nil, errTruncated
		}
		v.SetFloat(math.Float64frombits(binary.LittleEndian.Uint64(data)))
		return data[8:], nil
	case reflect.String:
		s, rest, err := decodeBytes(data)
		if err != nil {
			return nil, err
		}
		v.SetString(string(s))
		return rest, nil
	case reflect.Slice:
		count, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, errTruncated
		}
		data = data[n:]
		if count > uint64(len(data)) { // every element costs >= 1 byte
			return nil, errTruncated
		}
		if count == 0 {
			// Zero-length decodes to nil: the canonical empty slice, so a
			// round trip of a nil slice is the identity.
			v.SetZero()
			return data, nil
		}
		s := reflect.MakeSlice(v.Type(), int(count), int(count))
		var err error
		for i := 0; i < int(count); i++ {
			if data, err = decodeTyped(data, s.Index(i)); err != nil {
				return nil, err
			}
		}
		v.Set(s)
		return data, nil
	case reflect.Array:
		var err error
		for i := 0; i < v.Len(); i++ {
			if data, err = decodeTyped(data, v.Index(i)); err != nil {
				return nil, err
			}
		}
		return data, nil
	case reflect.Struct:
		var err error
		for i := 0; i < v.NumField(); i++ {
			if data, err = decodeTyped(data, v.Field(i)); err != nil {
				return nil, err
			}
		}
		return data, nil
	}
	panic(fmt.Sprintf("resultstore: cannot decode kind %s", v.Kind()))
}

var errTruncated = errors.New("resultstore: truncated value")

// decodeBytes reads a uvarint-framed byte string, bounding the claimed
// count by the remaining input before allocating.
func decodeBytes(data []byte) ([]byte, []byte, error) {
	count, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, nil, errTruncated
	}
	data = data[n:]
	if count > uint64(len(data)) {
		return nil, nil, errTruncated
	}
	return data[:count], data[count:], nil
}
