package core

import (
	"fmt"
	"strconv"
	"strings"
)

// Pair is a key-value record, the currency of grouping and shuffle
// operations in both engines. It mirrors Spark's Tuple2 used by PairRDDs
// and Flink's Tuple2 used by grouped DataSets.
type Pair[K comparable, V any] struct {
	Key   K
	Value V
}

// KV builds a Pair. It reads better than a composite literal at call sites
// that construct many pairs.
func KV[K comparable, V any](k K, v V) Pair[K, V] {
	return Pair[K, V]{Key: k, Value: v}
}

// ByteSize expresses data volumes. It follows the binary convention used by
// both frameworks' configuration files (1 KB = 1024 B).
type ByteSize int64

// Byte size units.
const (
	Byte ByteSize = 1
	KB            = 1024 * Byte
	MB            = 1024 * KB
	GB            = 1024 * MB
	TB            = 1024 * GB
)

// String renders the size with the largest unit that keeps two significant
// decimals, e.g. "3.50TB".
func (b ByteSize) String() string {
	switch {
	case b >= TB:
		return fmt.Sprintf("%.2fTB", float64(b)/float64(TB))
	case b >= GB:
		return fmt.Sprintf("%.2fGB", float64(b)/float64(GB))
	case b >= MB:
		return fmt.Sprintf("%.2fMB", float64(b)/float64(MB))
	case b >= KB:
		return fmt.Sprintf("%.2fKB", float64(b)/float64(KB))
	}
	return fmt.Sprintf("%dB", int64(b))
}

// ParseByteSize parses strings such as "256MB", "64KB", "3.5TB" or a bare
// number of bytes. It accepts the unit suffixes B, KB, MB, GB and TB
// (case-insensitive) with an optional fractional value.
func ParseByteSize(s string) (ByteSize, error) {
	t := strings.TrimSpace(strings.ToUpper(s))
	unit := Byte
	switch {
	case strings.HasSuffix(t, "TB"):
		unit, t = TB, t[:len(t)-2]
	case strings.HasSuffix(t, "GB"):
		unit, t = GB, t[:len(t)-2]
	case strings.HasSuffix(t, "MB"):
		unit, t = MB, t[:len(t)-2]
	case strings.HasSuffix(t, "KB"):
		unit, t = KB, t[:len(t)-2]
	case strings.HasSuffix(t, "B"):
		t = t[:len(t)-1]
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(t), 64)
	if err != nil {
		return 0, fmt.Errorf("core: invalid byte size %q: %v", s, err)
	}
	if v < 0 {
		return 0, fmt.Errorf("core: negative byte size %q", s)
	}
	return ByteSize(v * float64(unit)), nil
}

// HashKey hashes any comparable key to a well-mixed 64-bit value. Common
// key types used by the workloads (strings, integers, byte arrays) take a
// fast path; anything else is formatted and hashed, which is slow but
// correct — mirroring how generic serializers fall back to reflection. The
// switch is over a pointer to the key, which fits an interface word as is:
// switching on any(k) would box the key, one heap allocation per string.
// HashKey routes records to partitions and orders flink's sort-strategy
// runs, so it is deterministic — the same value in every process — and
// must stay so: a seeded hash here would move records between partitions
// from run to run. The shuffle's combine table finds a key's entry with its
// own process-seeded hash instead (shuffle.KeyBy), which never routes or
// orders anything.
func HashKey[K comparable](k K) uint64 {
	switch p := any(&k).(type) {
	case *string:
		return fnv1a(*p)
	case *int:
		return mix64(uint64(*p))
	case *int32:
		return mix64(uint64(*p))
	case *int64:
		return mix64(uint64(*p))
	case *uint32:
		return mix64(uint64(*p))
	case *uint64:
		return mix64(*p)
	case *[10]byte:
		return fnv1a(p[:])
	default:
		return fnv1a(fmt.Sprintf("%v", k))
	}
}

// fnv1a is 64-bit FNV-1a exactly as hash/fnv computes it, inlined so that
// hashing a key allocates neither a hasher nor a byte copy of a string.
func fnv1a[B string | []byte](b B) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(b); i++ {
		h = (h ^ uint64(b[i])) * 1099511628211
	}
	return h
}

// mix64 is the splitmix64 finalizer; it turns sequential integers into
// uniformly distributed hash values so hash partitioning does not skew.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
