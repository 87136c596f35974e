package serde

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"reflect"
)

// The gob fallback is the last step of Of's resolution order, reached only
// by the parts of a type with no structural encoding: pointers, interfaces,
// funcs, channels, complex numbers, structs with unexported fields and
// types that contain themselves. Each such part is one length-prefixed gob
// stream per record, so its type information is compiled and re-sent every
// time — generic, correct and slow. No built-in workload reaches it; every
// codec that does reports how many such parts it has in Codec.Fallbacks,
// and the engines add that to JobMetrics.CodecFallbacks.
//
// These two functions are the only place gob is constructed. v is a
// pointer to the value.

func gobEncode(dst []byte, v reflect.Value) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).EncodeValue(v); err != nil {
		// Encoding a value we produced ourselves cannot fail unless the
		// type is unsupported (e.g. contains funcs); that is a
		// programming error, not a runtime condition.
		panic(fmt.Sprintf("serde: gob encode %s: %v", v.Type().Elem(), err))
	}
	dst = binary.AppendUvarint(dst, uint64(buf.Len()))
	return append(dst, buf.Bytes()...)
}

func gobDecode(src []byte, v reflect.Value) (int, error) {
	l, n := binary.Uvarint(src)
	if n <= 0 || uint64(len(src)-n) < l {
		return 0, ErrShortBuffer
	}
	if err := gob.NewDecoder(bytes.NewReader(src[n : n+int(l)])).DecodeValue(v); err != nil {
		return 0, fmt.Errorf("serde: gob decode: %w", err)
	}
	return n + int(l), nil
}
