package dataflow

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"unsafe"

	"repro/internal/core"
)

// textEncoder is SaveAsText's record encoder, resolved once per call: a
// core.Pair whose Key and Value are of string or integer kinds is written
// by pairText, every other T by fmt.
func textEncoder[T any]() func(dst []byte, v T) []byte {
	if enc := pairText[T](); enc != nil {
		return enc
	}
	return func(dst []byte, v T) []byte { return append(fmt.Append(dst, v), '\n') }
}

// pairText returns the encoder of a core.Pair T whose Key and Value are of
// string or integer kinds and have no methods, or nil for any other T. It
// writes fmt's %v form, "{key value}\n", byte for byte, reading each field
// at its offset instead of boxing the record into an interface.
func pairText[T any]() func(dst []byte, v T) []byte {
	t := reflect.TypeOf((*T)(nil)).Elem()
	if t.Kind() != reflect.Struct || t.PkgPath() != pairPkg || !strings.HasPrefix(t.Name(), "Pair[") || t.NumMethod() != 0 {
		return nil
	}
	k, v := t.Field(0), t.Field(1)
	if !plainText(k.Type) || !plainText(v.Type) {
		return nil
	}
	kOff, vOff, kKind, vKind := k.Offset, v.Offset, k.Type.Kind(), v.Type.Kind()
	return func(dst []byte, rec T) []byte {
		p := unsafe.Pointer(&rec)
		dst = append(dst, '{')
		dst = appendPlain(dst, unsafe.Add(p, kOff), kKind)
		dst = append(dst, ' ')
		dst = appendPlain(dst, unsafe.Add(p, vOff), vKind)
		return append(dst, '}', '\n')
	}
}

// pairPkg is core.Pair's package path.
var pairPkg = reflect.TypeOf(core.Pair[int, int]{}).PkgPath()

// plainText reports whether fmt prints values of t under %v as the plain
// form of its kind: a string or integer kind with no methods, so neither a
// String, an Error nor a Format method.
func plainText(t reflect.Type) bool {
	if t.NumMethod() != 0 {
		return false
	}
	switch t.Kind() {
	case reflect.String,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return true
	}
	return false
}

// appendPlain appends the plain form of the plainText value of kind k at p.
func appendPlain(dst []byte, p unsafe.Pointer, k reflect.Kind) []byte {
	switch k {
	case reflect.String:
		return append(dst, *(*string)(p)...)
	case reflect.Int:
		return strconv.AppendInt(dst, int64(*(*int)(p)), 10)
	case reflect.Int8:
		return strconv.AppendInt(dst, int64(*(*int8)(p)), 10)
	case reflect.Int16:
		return strconv.AppendInt(dst, int64(*(*int16)(p)), 10)
	case reflect.Int32:
		return strconv.AppendInt(dst, int64(*(*int32)(p)), 10)
	case reflect.Int64:
		return strconv.AppendInt(dst, *(*int64)(p), 10)
	case reflect.Uint:
		return strconv.AppendUint(dst, uint64(*(*uint)(p)), 10)
	case reflect.Uint8:
		return strconv.AppendUint(dst, uint64(*(*uint8)(p)), 10)
	case reflect.Uint16:
		return strconv.AppendUint(dst, uint64(*(*uint16)(p)), 10)
	case reflect.Uint32:
		return strconv.AppendUint(dst, uint64(*(*uint32)(p)), 10)
	default:
		return strconv.AppendUint(dst, *(*uint64)(p), 10)
	}
}
