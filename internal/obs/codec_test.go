package obs

import (
	"bytes"
	"reflect"
	"testing"
	"time"
)

// TestEncodingIsAFunctionOfTheValue: equal values encode alike whatever
// order their maps were filled in, nil and empty stay apart, and every
// value decodes back to itself.
func TestEncodingIsAFunctionOfTheValue(t *testing.T) {
	a, b := map[string]int{}, map[string]int{}
	for i, k := range []string{"tor", "obfs4", "meek", "dnstt", "snowflake"} {
		a[k] = i
	}
	for i, k := range []string{"snowflake", "dnstt", "meek", "obfs4", "tor"} {
		b[k] = 4 - i
	}
	if !bytes.Equal(mustEncode(t, a), mustEncode(t, b)) {
		t.Fatal("equal maps filled in different orders encode differently")
	}
	if bytes.Equal(mustEncode(t, []int(nil)), mustEncode(t, []int{})) ||
		bytes.Equal(mustEncode(t, map[int]bool(nil)), mustEncode(t, map[int]bool{})) {
		t.Fatal("nil and empty encode alike")
	}
	tl := &Timeline{Interval: time.Second, Regressions: 2, Samples: []Sample{
		{T: time.Second, Relays: []RelayPoint{{Relay: "guard", Pending: -1, Delay: time.Millisecond}}},
		{T: 2 * time.Second, Recovery: []RecoveryPoint{{Method: "obfs4", Rebuilds: 3}}},
	}}
	withHidden := sampleOut()
	withHidden.hidden = 7
	for _, v := range []any{sampleOut(), fuzzOut{}, tl, map[int8][]string{-1: nil, 2: {""}}, []*bool{nil}} {
		p := reflect.New(reflect.TypeOf(v))
		if err := DecodeValue(mustEncode(t, v), p.Interface()); err != nil {
			t.Fatalf("%T: %v", v, err)
		}
		if got := p.Elem().Interface(); !reflect.DeepEqual(got, v) {
			t.Fatalf("%T round trip: %+v, want %+v", v, got, v)
		}
	}
	var got fuzzOut
	if err := DecodeValue(mustEncode(t, withHidden), &got); err != nil || got.hidden != 0 {
		t.Fatalf("unexported field: err %v, decoded %d", err, got.hidden)
	}
}

// TestEncodeValueRefuses: a kind the codec does not encode is an error
// from EncodeValue and DecodeValue, never a panic or a silent loss; a
// cell whose Out holds one fails its store.
func TestEncodeValueRefuses(t *testing.T) {
	for _, v := range []any{
		nil,
		struct{ X any }{1},
		struct{ When time.Time }{},
		[]float32{1},
		[2]int{},
		map[float64]int{},
		map[*int]int{},
		struct{ C chan int }{},
		struct{ F func() }{},
	} {
		if _, err := EncodeValue(v); err == nil {
			t.Errorf("EncodeValue(%T) succeeded", v)
		}
	}
	var out struct{ X any }
	if err := DecodeValue(make([]byte, 16), &out); err == nil {
		t.Error("DecodeValue into an interface field succeeded")
	}
}
