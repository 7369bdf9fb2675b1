package obs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"slices"
	"strconv"
	"sync"
)

// This file is the cache's value codec: a compact binary encoding of the
// plain value trees cells return, read back without parsing text. An
// encoding is an 8-byte fingerprint of the value's type, then the value:
//
//   - a bool is one byte, 0 or 1; an int a zigzag varint, a uint a
//     varint, a float64 its IEEE bits (8 bytes, little-endian);
//   - a string is its length as a varint, then its bytes;
//   - a slice or a map starts with a varint count, 0 for nil or else the
//     length plus one, then its elements, or its key/value pairs in the
//     byte order of their encoded keys; a []byte's elements are its
//     bytes;
//   - a pointer is one byte, 0 for nil or 1 followed by what it points
//     to; a struct is its exported fields in declaration order.
//
// Every value has exactly one encoding, so an entry's bytes are a
// function of its value and a decoder refuses anything else (a longer
// varint, an unsorted map, trailing bytes). Other kinds (interfaces,
// arrays, float32, channels, funcs) and structs whose fields are all
// unexported, like time.Time, cannot be encoded.

var (
	errMalformed = errors.New("obs: malformed value")
	errShape     = errors.New("obs: value of another shape")
)

// shapes memoises each type's fingerprint, or why it cannot be encoded.
var shapes sync.Map // reflect.Type → shape

type shape struct {
	sum uint64
	err error
}

// shapeOf fingerprints t from its kinds and exported field names, so
// a value stored under one shape never decodes into another.
func shapeOf(t reflect.Type) (uint64, error) {
	if s, ok := shapes.Load(t); ok {
		return s.(shape).sum, s.(shape).err
	}
	desc, err := describe(nil, t, nil)
	h := fnv.New64a()
	h.Write(desc)
	s := shape{h.Sum64(), err}
	shapes.Store(t, s)
	return s.sum, s.err
}

// describe appends t's shape to b; open holds the structs being
// described, so a recursive type refers back to itself by depth.
func describe(b []byte, t reflect.Type, open []reflect.Type) ([]byte, error) {
	var err error
	switch k := t.Kind(); k {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float64, reflect.String:
		return append(b, k.String()...), nil
	case reflect.Pointer:
		return describe(append(b, '*'), t.Elem(), open)
	case reflect.Slice:
		return describe(append(b, "[]"...), t.Elem(), open)
	case reflect.Map:
		// A float, pointer or struct key could encode two distinct keys
		// alike (NaN, equal pointees, unexported fields).
		switch t.Key().Kind() {
		case reflect.Float64, reflect.Pointer, reflect.Struct:
			return nil, fmt.Errorf("obs: cannot encode %v: map key kind", t)
		}
		if b, err = describe(append(b, "map["...), t.Key(), open); err != nil {
			return nil, err
		}
		return describe(append(b, ']'), t.Elem(), open)
	case reflect.Struct:
		if i := slices.Index(open, t); i >= 0 {
			return strconv.AppendInt(append(b, '@'), int64(i), 10), nil
		}
		open = append(open, t)
		b = append(b, '{')
		exported := 0
		for i := range t.NumField() {
			if f := t.Field(i); f.IsExported() {
				if b, err = describe(append(append(b, f.Name...), ' '), f.Type, open); err != nil {
					return nil, err
				}
				b = append(b, ';')
				exported++
			}
		}
		if exported == 0 && t.NumField() > 0 {
			return nil, fmt.Errorf("obs: cannot encode %v: no exported fields", t)
		}
		return append(b, '}'), nil
	}
	return nil, fmt.Errorf("obs: cannot encode %v", t)
}

// EncodeValue returns v's encoding, or an error when v's type holds a
// kind the codec does not encode.
func EncodeValue(v any) ([]byte, error) { return appendEncoding(nil, v) }

// appendEncoding appends v's encoding to b.
func appendEncoding(b []byte, v any) ([]byte, error) {
	rv := reflect.ValueOf(v)
	if !rv.IsValid() {
		return nil, errors.New("obs: cannot encode nil")
	}
	sum, err := shapeOf(rv.Type())
	if err != nil {
		return nil, err
	}
	return appendValue(binary.LittleEndian.AppendUint64(b, sum), rv), nil
}

// appendValue appends v, of a type shapeOf accepted, to b.
func appendValue(b []byte, v reflect.Value) []byte {
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			return append(b, 1)
		}
		return append(b, 0)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return binary.AppendVarint(b, v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return binary.AppendUvarint(b, v.Uint())
	case reflect.Float64:
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(v.Float()))
	case reflect.String:
		return append(binary.AppendUvarint(b, uint64(v.Len())), v.String()...)
	case reflect.Pointer:
		if v.IsNil() {
			return append(b, 0)
		}
		return appendValue(append(b, 1), v.Elem())
	case reflect.Slice:
		if v.IsNil() {
			return append(b, 0)
		}
		b = binary.AppendUvarint(b, uint64(v.Len())+1)
		if v.Type().Elem().Kind() == reflect.Uint8 {
			return append(b, v.Bytes()...)
		}
		for i := range v.Len() {
			b = appendValue(b, v.Index(i))
		}
		return b
	case reflect.Map:
		if v.IsNil() {
			return append(b, 0)
		}
		type pair struct {
			key []byte
			val reflect.Value
		}
		pairs := make([]pair, 0, v.Len())
		for it := v.MapRange(); it.Next(); {
			pairs = append(pairs, pair{appendValue(nil, it.Key()), it.Value()})
		}
		slices.SortFunc(pairs, func(p, q pair) int { return bytes.Compare(p.key, q.key) })
		b = binary.AppendUvarint(b, uint64(len(pairs))+1)
		for _, p := range pairs {
			b = appendValue(append(b, p.key...), p.val)
		}
		return b
	case reflect.Struct:
		for i := range v.NumField() {
			if f := v.Field(i); f.CanInterface() {
				b = appendValue(b, f)
			}
		}
		return b
	}
	panic("obs: appendValue of a type shapeOf refused: " + v.Type().String())
}

// DecodeValue decodes an EncodeValue encoding into the value out points
// to. It fails on bytes that are not exactly one encoding of a value of
// that type; after a failure *out is unspecified.
func DecodeValue(data []byte, out any) error {
	p := reflect.ValueOf(out)
	if p.Kind() != reflect.Pointer || p.IsNil() {
		return fmt.Errorf("obs: decode into %T", out)
	}
	sum, err := shapeOf(p.Type().Elem())
	if err != nil {
		return err
	}
	if len(data) < 8 || binary.LittleEndian.Uint64(data) != sum {
		return errShape
	}
	d := decoder{data[8:]}
	if err := d.value(p.Elem()); err != nil {
		return err
	}
	if len(d.b) != 0 {
		return errMalformed
	}
	return nil
}

// decoder reads a value off the front of b.
type decoder struct{ b []byte }

// uvarint reads a varint in its shortest form.
func (d *decoder) uvarint() (uint64, error) {
	x, n := binary.Uvarint(d.b)
	if n <= 0 || (n > 1 && d.b[n-1] == 0) {
		return 0, errMalformed
	}
	d.b = d.b[n:]
	return x, nil
}

// count reads a slice or map count; nil reports a nil one. Every
// element takes at least one byte, so a count above what is left is
// malformed (as is a string longer than what is left), and no decode
// allocates more elements than its input has bytes.
func (d *decoder) count() (n int, isNil bool, err error) {
	x, err := d.uvarint()
	if err != nil || x == 0 {
		return 0, true, err
	}
	if x-1 > uint64(len(d.b)) {
		return 0, false, errMalformed
	}
	return int(x - 1), false, nil
}

// flag reads a bool or a pointer's nil mark.
func (d *decoder) flag() (bool, error) {
	if len(d.b) == 0 || d.b[0] > 1 {
		return false, errMalformed
	}
	set := d.b[0] == 1
	d.b = d.b[1:]
	return set, nil
}

// value decodes into v, which is settable.
func (d *decoder) value(v reflect.Value) error {
	switch v.Kind() {
	case reflect.Bool:
		set, err := d.flag()
		v.SetBool(set)
		return err
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		u, err := d.uvarint()
		x := int64(u>>1) ^ -int64(u&1)
		if err != nil || v.OverflowInt(x) {
			return errMalformed
		}
		v.SetInt(x)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		x, err := d.uvarint()
		if err != nil || v.OverflowUint(x) {
			return errMalformed
		}
		v.SetUint(x)
	case reflect.Float64:
		if len(d.b) < 8 {
			return errMalformed
		}
		v.SetFloat(math.Float64frombits(binary.LittleEndian.Uint64(d.b)))
		d.b = d.b[8:]
	case reflect.String:
		n, err := d.uvarint()
		if err != nil || n > uint64(len(d.b)) {
			return errMalformed
		}
		v.SetString(string(d.b[:n]))
		d.b = d.b[n:]
	case reflect.Pointer:
		set, err := d.flag()
		if err != nil || !set {
			v.SetZero()
			return err
		}
		p := reflect.New(v.Type().Elem())
		v.Set(p)
		return d.value(p.Elem())
	case reflect.Slice:
		n, isNil, err := d.count()
		if err != nil || isNil {
			v.SetZero()
			return err
		}
		if v.Type().Elem().Kind() == reflect.Uint8 {
			v.SetBytes(bytes.Clone(d.b[:n:n]))
			d.b = d.b[n:]
			return nil
		}
		s := reflect.MakeSlice(v.Type(), n, n)
		v.Set(s)
		if xs, ok := s.Interface().([]float64); ok {
			return d.floats(xs)
		}
		for i := range n {
			if err := d.value(s.Index(i)); err != nil {
				return err
			}
		}
	case reflect.Map:
		n, isNil, err := d.count()
		if err != nil || isNil {
			v.SetZero()
			return err
		}
		m := reflect.MakeMapWithSize(v.Type(), n)
		v.Set(m)
		k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
		var last []byte
		for i := range n {
			at := d.b
			if err := d.value(k); err != nil {
				return err
			}
			key := at[:len(at)-len(d.b)]
			if i > 0 && bytes.Compare(last, key) >= 0 {
				return errMalformed
			}
			last = key
			if err := d.value(e); err != nil {
				return err
			}
			m.SetMapIndex(k, e)
		}
	case reflect.Struct:
		for i := range v.NumField() {
			if f := v.Field(i); f.CanSet() {
				if err := d.value(f); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// floats fills xs, eight bytes an element: the samples most cells
// return, read without a reflect call per element.
func (d *decoder) floats(xs []float64) error {
	if len(d.b) < 8*len(xs) {
		return errMalformed
	}
	for i := range xs {
		xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(d.b[8*i:]))
	}
	d.b = d.b[8*len(xs):]
	return nil
}
