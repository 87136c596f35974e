package serde

import (
	"reflect"
	"sync"

	"repro/internal/core"
)

// registry maps a concrete type to the codec constructor added with
// Register. It lets workload packages teach the engines a hand-written
// encoding for their record types — the analogue of registering classes
// with Kryo or of a custom Flink TypeSerializer.
var registry sync.Map // reflect.Type → registration

// registration is one Register call in the two forms Of needs: typed for T
// itself, erased for T inside a derived parent.
type registration struct {
	typed  func(Style) any // Codec[T]
	erased func(Style) ptrCodec
}

// Register installs a codec constructor for T. Later Of calls use it for
// every style, for T itself and for T nested in a struct, slice, array or
// map. Registering a type twice replaces the previous constructor.
func Register[T any](make func(Style) Codec[T]) {
	registry.Store(reflect.TypeFor[T](), registration{
		typed:  func(s Style) any { return make(s) },
		erased: func(s Style) ptrCodec { return erase(make(s)) },
	})
	resetDerived()
}

// Of returns the codec for T under the given style, resolved in this order:
//
//  1. the constructor registered for T;
//  2. the built-in codec, for string, []byte, int64, int, float64 and bool;
//  3. a derived codec, compiled from T's structure on first use and cached:
//     structs field by field, slices, arrays and maps element by element,
//     every other integer and float kind, each part resolved by these same
//     rules and written in its existing wire form, so Of[core.Pair[K,V]]
//     and OfPair[K,V] are the same bytes (see derive.go);
//  4. for the parts with no structural encoding, encoding/gob per record
//     (see fallback.go), counted in the codec's Fallbacks.
//
// This is what the paper credits Flink's serializers for — the engine looks
// at the record type once, up front — applied to all three styles: the
// styles differ by the per-record headers they write, not by how the codec
// was found.
func Of[T any](style Style) Codec[T] {
	if e, ok := registry.Load(reflect.TypeFor[T]()); ok {
		return e.(registration).typed(style).(Codec[T])
	}
	var zero T
	switch any(zero).(type) {
	case string:
		return any(StringCodec(style)).(Codec[T])
	case []byte:
		return any(BytesCodec(style)).(Codec[T])
	case int64:
		return any(Int64Codec(style)).(Codec[T])
	case int:
		return any(IntCodec(style)).(Codec[T])
	case float64:
		return any(Float64Codec(style)).(Codec[T])
	case bool:
		return any(BoolCodec(style)).(Codec[T])
	}
	return derived[T](style)
}

// OfPair returns the codec for core.Pair[K,V] composed from Of[K] and
// Of[V]; the engines' shuffle paths use it for every keyed exchange.
func OfPair[K comparable, V any](style Style) Codec[core.Pair[K, V]] {
	return PairCodec(style, Of[K](style), Of[V](style))
}
