package core

import (
	"testing"
	"testing/quick"
)

func TestByteSizeString(t *testing.T) {
	cases := []struct {
		in   ByteSize
		want string
	}{
		{0, "0B"},
		{512, "512B"},
		{KB, "1.00KB"},
		{256 * MB, "256.00MB"},
		{22 * GB, "22.00GB"},
		{ByteSize(3.5 * float64(TB)), "3.50TB"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("ByteSize(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestParseByteSize(t *testing.T) {
	cases := []struct {
		in   string
		want ByteSize
	}{
		{"256MB", 256 * MB},
		{"64KB", 64 * KB},
		{"3.5TB", ByteSize(3.5 * float64(TB))},
		{"1024", 1024},
		{"22 GB", 22 * GB},
		{"128b", 128},
	}
	for _, c := range cases {
		got, err := ParseByteSize(c.in)
		if err != nil {
			t.Fatalf("ParseByteSize(%q): %v", c.in, err)
		}
		if got != c.want {
			t.Errorf("ParseByteSize(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestParseByteSizeErrors(t *testing.T) {
	for _, in := range []string{"", "abc", "-5MB", "12XB"} {
		if _, err := ParseByteSize(in); err == nil {
			t.Errorf("ParseByteSize(%q) succeeded, want error", in)
		}
	}
}

func TestParseByteSizeRoundTrip(t *testing.T) {
	f := func(n uint32) bool {
		b := ByteSize(n)
		got, err := ParseByteSize(b.String())
		if err != nil {
			return false
		}
		// String keeps two decimals, so allow 1% error for large values.
		diff := int64(got) - int64(b)
		if diff < 0 {
			diff = -diff
		}
		return diff <= int64(b)/100+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHashKeyDeterministic(t *testing.T) {
	if HashKey("word") != HashKey("word") {
		t.Error("HashKey not deterministic for strings")
	}
	if HashKey(int64(42)) != HashKey(int64(42)) {
		t.Error("HashKey not deterministic for int64")
	}
	if HashKey("a") == HashKey("b") {
		t.Error("distinct strings should (overwhelmingly) hash differently")
	}
}

// TestHashKeyGolden pins the hash values themselves: partition assignment,
// flink's key-hash order and so cross-engine parity are functions of them,
// so a faster HashKey must return exactly what the fmt/hash-fnv form did.
func TestHashKeyGolden(t *testing.T) {
	type odd struct{ A, B int }
	for _, c := range []struct {
		name      string
		got, want uint64
	}{
		{`""`, HashKey(""), 0xcbf29ce484222325},
		{`"word"`, HashKey("word"), 0x7058fcf636683f3d},
		{`"the quick brown fox"`, HashKey("the quick brown fox"), 0x59aeb7b40bd8c122},
		{"int(-7)", HashKey(int(-7)), 0x6c1e186443822970},
		{"int32(-7)", HashKey(int32(-7)), 0x6c1e186443822970},
		{"int64(42)", HashKey(int64(42)), 0xbdd732262feb6e95},
		{"uint32(42)", HashKey(uint32(42)), 0xbdd732262feb6e95},
		{"uint64(1<<63)", HashKey(uint64(1) << 63), 0x481ec0a212a9f3db},
		{"[10]byte", HashKey([10]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), 0x909856bd77277e52},
		{"struct (fmt fallback)", HashKey(odd{1, 2}), 0x433afdc69ac990ba},
		{"float64 (fmt fallback)", HashKey(3.5), 0x5714061822379de3},
		{"uint8 (fmt fallback)", HashKey(uint8(200)), 0x603ec818278d901d},
	} {
		if c.got != c.want {
			t.Errorf("HashKey(%s) = %#x, want %#x", c.name, c.got, c.want)
		}
	}
}

// TestHashKeyDoesNotAllocate: the hash sits under every partitioner, route
// and combine-table insert, once per record.
func TestHashKeyDoesNotAllocate(t *testing.T) {
	var sink uint64
	s, i, b := "vadalor", int64(42), [10]byte{1, 2, 3}
	for name, fn := range map[string]func(){
		"string":   func() { sink += HashKey(s) },
		"int64":    func() { sink += HashKey(i) },
		"[10]byte": func() { sink += HashKey(b) },
	} {
		if n := testing.AllocsPerRun(100, fn); n != 0 {
			t.Errorf("HashKey(%s) allocates %v times per call", name, n)
		}
	}
	_ = sink
}

func TestHashKeyIntMixing(t *testing.T) {
	// Sequential keys must spread over partitions; count collisions mod 16.
	buckets := make([]int, 16)
	for i := 0; i < 16000; i++ {
		buckets[HashKey(int64(i))%16]++
	}
	for i, n := range buckets {
		if n < 500 || n > 1500 {
			t.Errorf("bucket %d has %d of 16000 keys; splitmix64 should balance", i, n)
		}
	}
}

func TestKV(t *testing.T) {
	p := KV("k", 7)
	if p.Key != "k" || p.Value != 7 {
		t.Errorf("KV produced %+v", p)
	}
}
