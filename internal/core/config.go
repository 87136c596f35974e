package core

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Parameter names. These follow the paper's Section IV taxonomy: task
// parallelism, shuffle tuning, memory management and data serialization,
// plus the graph-specific edge partitioning of Section VI-E.
const (
	// SparkDefaultParallelism is the default number of partitions in RDDs
	// returned by transformations (spark.def.parallelism in the paper).
	SparkDefaultParallelism = "spark.default.parallelism"
	// SparkExecutorMemory is the executor JVM heap size; Spark allocates
	// all executor memory on the heap.
	SparkExecutorMemory = "spark.executor.memory"
	// SparkStorageFraction is the heap fraction reserved for cached RDDs.
	SparkStorageFraction = "spark.storage.fraction"
	// SparkShuffleFraction is the heap fraction reserved for shuffle
	// buffers and spill staging.
	SparkShuffleFraction = "spark.shuffle.fraction"
	// SparkShuffleManager selects the shuffle implementation; the paper
	// pins it to "tungsten-sort" for fairness with Flink's sort-based
	// aggregation. Accepted values: "hash", "sort", "tungsten-sort".
	SparkShuffleManager = "spark.shuffle.manager"
	// SparkSerializer selects the serializer: "java" (default) or "kryo".
	SparkSerializer = "spark.serializer"
	// SparkEdgePartitions is the GraphX edge partition count
	// (spark.edge.partition in the paper's graph experiments).
	SparkEdgePartitions = "spark.edge.partitions"

	// FlinkDefaultParallelism is the operator parallelism; Flink sizes it
	// to the available task slots.
	FlinkDefaultParallelism = "flink.default.parallelism"
	// FlinkTaskManagerMemory is the total memory per task manager.
	FlinkTaskManagerMemory = "flink.taskmanager.memory"
	// FlinkMemoryFraction is the portion of task manager memory given to
	// the managed runtime (sorting, hash tables, caching).
	FlinkMemoryFraction = "flink.taskmanager.memory.fraction"
	// FlinkNetworkBuffers is the number of network buffers (logical
	// connections between mappers and reducers); too few fails the job.
	FlinkNetworkBuffers = "flink.network.buffers"
	// FlinkTaskSlots is the number of task slots per task manager.
	FlinkTaskSlots = "flink.taskmanager.slots"

	// ShuffleStrategy selects the shared shuffle implementation for every
	// engine: "hash" (bucketed, pipelined repartition) or "sort"
	// (spill-and-merge with map-side combine). Empty keeps each engine's
	// native default — sort for Spark (tungsten-sort) and MapReduce,
	// hash for Flink's pipelined exchange. See internal/shuffle.
	ShuffleStrategy = "shuffle.strategy"
	// ShuffleCompress selects shuffle block compression: "none" (default)
	// or "lz", the built-in LZ codec ("true" is an alias for "lz").
	ShuffleCompress = "shuffle.compress"
	// ShuffleSpillThreshold caps the serialized bytes a sort-shuffle task
	// buffers before spilling a sorted run, on top of the engine's own
	// memory grant (0 = memory pressure and engine defaults only).
	ShuffleSpillThreshold = "shuffle.spill.threshold"

	// ExecBatchSize is the record count of one execution batch in the
	// vectorized dataflow path: fused narrow chains invoke their compiled
	// kernel once per batch of this many records (selection vectors carry
	// filters), and the engines feed the shuffle map side batch-at-a-time.
	// 0 keeps DefaultExecBatchSize. See internal/dataflow/fuse.go.
	ExecBatchSize = "exec.batch.size"

	// BufferSize is the network/shuffle buffer size shared by both
	// frameworks in the paper's tables (buffer.size, default 32KB).
	BufferSize = "buffer.size"
	// HDFSBlockSize is the DFS block size (HDFS.block.size in the paper).
	HDFSBlockSize = "hdfs.block.size"
)

// DefaultExecBatchSize is the execution batch width used when
// exec.batch.size is unset or non-positive: wide enough to amortize
// per-batch kernel dispatch and shuffle-emit bookkeeping to noise, small
// enough that a batch of typical records stays cache-resident.
const DefaultExecBatchSize = 256

// ExecBatch resolves the execution batch width: exec.batch.size when
// positive, DefaultExecBatchSize otherwise —
// including for a nil Config, so engines constructed without one still
// batch at the default width.
func ExecBatch(c *Config) int {
	if c != nil {
		if n := c.Int(ExecBatchSize, 0); n > 0 {
			return n
		}
	}
	return DefaultExecBatchSize
}

// Config is a typed view over string-keyed settings, mirroring both
// frameworks' configuration objects. The zero value is not usable; call
// NewConfig (paper defaults) or NewEmptyConfig.
//
// Keys written through Set (and its typed variants) after construction are
// EXPLICIT: the user pinned them, and automatic tuning layers (the planner)
// must not override them. Defaults loaded by NewConfig and values written
// through SetDerived are not explicit. Explicit reports the distinction.
type Config struct {
	mu sync.RWMutex
	m  map[string]string
	// explicit marks keys the user set after construction; sealed flips on
	// once the constructor's defaults are loaded.
	explicit map[string]bool
	sealed   bool
}

// NewConfig returns a Config pre-loaded with the defaults both frameworks
// ship (32KB buffers, java serialization for Spark, 0.7 memory fraction for
// Flink) as described in Section IV.
func NewConfig() *Config {
	c := &Config{m: make(map[string]string), explicit: make(map[string]bool)}
	c.Set(SparkShuffleManager, "tungsten-sort")
	c.Set(SparkSerializer, "java")
	c.SetFloat(SparkStorageFraction, 0.6)
	c.SetFloat(SparkShuffleFraction, 0.2)
	c.SetBytes(SparkExecutorMemory, 22*GB)
	c.SetInt(SparkDefaultParallelism, 0) // 0 = derive from cluster
	c.SetInt(FlinkDefaultParallelism, 0)
	c.SetBytes(FlinkTaskManagerMemory, 4*GB)
	c.SetFloat(FlinkMemoryFraction, 0.7)
	c.SetInt(FlinkNetworkBuffers, 2048)
	c.SetInt(FlinkTaskSlots, 0) // 0 = one per core
	c.SetBytes(BufferSize, 32*KB)
	c.SetBytes(HDFSBlockSize, 256*MB)
	c.mu.Lock()
	c.sealed = true // everything above is defaults, not user intent
	c.mu.Unlock()
	return c
}

// NewEmptyConfig returns a Config with no entries. Every subsequent Set is
// explicit (there are no defaults to distinguish from).
func NewEmptyConfig() *Config {
	return &Config{m: make(map[string]string), explicit: make(map[string]bool), sealed: true}
}

// Clone returns an independent copy; experiments derive per-run configs
// from a shared base without interference. Explicitness carries over.
func (c *Config) Clone() *Config {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := NewEmptyConfig()
	for k, v := range c.m {
		out.m[k] = v
	}
	for k, v := range c.explicit {
		out.explicit[k] = v
	}
	return out
}

// Set stores a raw string value, marking the key explicit (user-pinned).
func (c *Config) Set(key, value string) *Config {
	c.mu.Lock()
	c.m[key] = value
	if c.sealed {
		c.explicit[key] = true
	}
	c.mu.Unlock()
	return c
}

// SetDerived stores a value WITHOUT marking the key explicit — the write
// path for automatic tuning layers (the planner), so later layers can still
// tell machine choices from user pins. It never overwrites an explicit key.
func (c *Config) SetDerived(key, value string) *Config {
	c.mu.Lock()
	if !c.explicit[key] {
		c.m[key] = value
	}
	c.mu.Unlock()
	return c
}

// Explicit reports whether the user pinned the key via Set after
// construction (constructor defaults and SetDerived writes don't count).
func (c *Config) Explicit(key string) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.explicit[key]
}

// SetInt stores an integer value.
func (c *Config) SetInt(key string, v int) *Config { return c.Set(key, strconv.Itoa(v)) }

// SetFloat stores a float value.
func (c *Config) SetFloat(key string, v float64) *Config {
	return c.Set(key, strconv.FormatFloat(v, 'g', -1, 64))
}

// SetBytes stores a byte size value.
func (c *Config) SetBytes(key string, v ByteSize) *Config {
	return c.Set(key, strconv.FormatInt(int64(v), 10))
}

// String returns the raw value or def when absent.
func (c *Config) String(key, def string) string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if v, ok := c.m[key]; ok {
		return v
	}
	return def
}

// Int returns the integer value or def when absent/invalid.
func (c *Config) Int(key string, def int) int {
	if v, err := strconv.Atoi(c.String(key, "")); err == nil {
		return v
	}
	return def
}

// Float returns the float value or def when absent/invalid.
func (c *Config) Float(key string, def float64) float64 {
	if v, err := strconv.ParseFloat(c.String(key, ""), 64); err == nil {
		return v
	}
	return def
}

// Bytes returns the byte-size value or def when absent/invalid. Values may
// be raw byte counts or suffixed sizes ("64KB").
func (c *Config) Bytes(key string, def ByteSize) ByteSize {
	s := c.String(key, "")
	if s == "" {
		return def
	}
	if v, err := ParseByteSize(s); err == nil {
		return v
	}
	return def
}

// Keys returns the sorted parameter names present in the config.
func (c *Config) Keys() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	keys := make([]string, 0, len(c.m))
	for k := range c.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Describe renders the configuration as "key=value" lines for experiment
// logs, the counterpart of the paper's configuration tables.
func (c *Config) Describe() string {
	var b strings.Builder
	for _, k := range c.Keys() {
		fmt.Fprintf(&b, "%s=%s\n", k, c.String(k, ""))
	}
	return b.String()
}
