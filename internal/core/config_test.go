package core

import (
	"strings"
	"testing"
)

func TestDefaultConfigMatchesPaperDefaults(t *testing.T) {
	c := NewConfig()
	if c.Err() != nil {
		t.Fatalf("NewConfig recorded %v", c.Err())
	}
	want := Config{
		SparkExecutorMemory:    22 * GB,
		SparkShuffleManager:    "tungsten-sort", // the paper pins it
		SparkSerializer:        "java",
		FlinkTaskManagerMemory: 4 * GB,
		FlinkMemoryFraction:    0.7,
		FlinkNetworkBuffers:    2048,
		FlinkCombineStrategy:   "sort",
		MRSortRecords:          1 << 16,
		ShuffleCompress:        "none",
		ExecBatchSize:          DefaultExecBatchSize,
		BufferSize:             32 * KB,  // Section IV-B
		HDFSBlockSize:          256 * MB, // Table II
	}
	if *c != want {
		t.Errorf("NewConfig() = %+v\nwant        %+v", *c, want)
	}
}

// Every value a string setting declares legal is accepted and reads back.
func TestConfigLegalValuesRoundTrip(t *testing.T) {
	var choices int
	for _, s := range new(Config).settings() {
		for _, v := range s.legal {
			choices++
			c := NewConfig().Set(s.key, v)
			if c.Err() != nil || c.Format(s.key) != v {
				t.Errorf("Set(%s, %q): Format = %q, Err = %v", s.key, v, c.Format(s.key), c.Err())
			}
		}
	}
	if len(Legal(ShuffleStrategy)) != 2 || len(Legal(ShuffleCompress)) != 2 || choices < 10 {
		t.Errorf("legal values: shuffle.strategy %v, shuffle.compress %v, %d in all",
			Legal(ShuffleStrategy), Legal(ShuffleCompress), choices)
	}
}

// A value set through Set equals the typed setter's.
func TestConfigTypedAccessors(t *testing.T) {
	for _, tc := range []struct {
		key   string
		typed func(*Config) *Config
		raw   string
	}{
		{FlinkNetworkBuffers, func(c *Config) *Config { return c.SetInt(FlinkNetworkBuffers, 4096) }, "4096"},
		{BufferSize, func(c *Config) *Config { return c.SetBytes(BufferSize, 64*KB) }, "64KB"},
		{HDFSBlockSize, func(c *Config) *Config { return c.SetBytes(HDFSBlockSize, 128*MB) }, "134217728"},
	} {
		typed, raw := tc.typed(NewConfig()), NewConfig().Set(tc.key, tc.raw)
		if *typed != *raw || typed.Err() != nil {
			t.Errorf("%s: typed setter %s, Set(%q) %s (err %v)", tc.key, typed.Format(tc.key), tc.raw, raw.Format(tc.key), typed.Err())
		}
		if *typed == *NewConfig() {
			t.Errorf("%s: setting %q changed nothing", tc.key, tc.raw)
		}
	}
}

// A value copy is the clone: setting it leaves the original alone.
func TestConfigCloneIsolation(t *testing.T) {
	base := NewConfig()
	derived := *base
	derived.SetInt(SparkDefaultParallelism, 1536).Set("spark.serialiser", "kryo")
	if base.SparkDefaultParallelism == 1536 || base.Err() != nil {
		t.Error("setting a copy leaked into the original")
	}
}

// An unknown key or an illegal value leaves the field unchanged and is
// recorded under its key.
func TestConfigSetRecordsBadValues(t *testing.T) {
	for _, kv := range [][2]string{
		{"spark.serialiser", "kryo"},
		{SparkSerializer, "kyro"},
		{FlinkCombineStrategy, "Sort"},
		{ShuffleStrategy, "merge"},
		{ShuffleCompress, "true"},
		{ExecBatchSize, "-1"},
		{FlinkMemoryFraction, "1.5"},
		{BufferSize, "12XB"},
	} {
		c := NewConfig().Set(kv[0], kv[1])
		if *c == *NewConfig() {
			t.Errorf("Set(%s, %q) recorded nothing", kv[0], kv[1])
		}
		if c.Err() == nil || !strings.Contains(c.Err().Error(), kv[0]) {
			t.Errorf("Set(%s, %q): Err = %v, want an error naming the key", kv[0], kv[1], c.Err())
		}
		if c.Format(kv[0]) != NewConfig().Format(kv[0]) {
			t.Errorf("Set(%s, %q) changed the value to %q", kv[0], kv[1], c.Format(kv[0]))
		}
	}
}
