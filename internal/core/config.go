package core

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// Parameter names. These follow the paper's Section IV taxonomy: task
// parallelism, shuffle tuning, memory management and data serialization,
// plus the graph-specific edge partitioning of Section VI-E. Each key's
// default and legal values are declared once, in Config.settings.
const (
	// SparkDefaultParallelism is the default number of partitions in RDDs
	// returned by transformations (spark.def.parallelism in the paper);
	// 0 derives it from the cluster's cores.
	SparkDefaultParallelism = "spark.default.parallelism"
	// SparkExecutorMemory is the executor JVM heap size; Spark allocates
	// all executor memory on the heap.
	SparkExecutorMemory = "spark.executor.memory"
	// SparkShuffleManager selects the shuffle implementation; the paper
	// pins it to "tungsten-sort" for fairness with Flink's sort-based
	// aggregation.
	SparkShuffleManager = "spark.shuffle.manager"
	// SparkSerializer selects the serializer: Java or Kryo.
	SparkSerializer = "spark.serializer"
	// SparkEdgePartitions is the GraphX edge partition count
	// (spark.edge.partition in the paper's graph experiments); 0 uses the
	// default parallelism.
	SparkEdgePartitions = "spark.edge.partitions"

	// FlinkDefaultParallelism is the operator parallelism; 0 sizes it to
	// the available task slots.
	FlinkDefaultParallelism = "flink.default.parallelism"
	// FlinkTaskManagerMemory is the total memory per task manager.
	FlinkTaskManagerMemory = "flink.taskmanager.memory"
	// FlinkMemoryFraction is the portion of task manager memory given to
	// the managed runtime (sorting, hash tables, caching).
	FlinkMemoryFraction = "flink.taskmanager.memory.fraction"
	// FlinkNetworkBuffers is the number of network buffers (logical
	// connections between mappers and reducers); too few fails the job.
	FlinkNetworkBuffers = "flink.network.buffers"
	// FlinkTaskSlots is the number of task slots per task manager; 0 is
	// one per core.
	FlinkTaskSlots = "flink.taskmanager.slots"
	// FlinkCombineStrategy bounds the GroupCombine's table: "sort" (the
	// 0.10 combiner the paper analyzes) charges it to the node's managed
	// memory and drains it whenever a grant is refused, "hash" (the
	// strategy the paper notes Flink was investigating) never asks the
	// pool and drains once at end-of-input.
	FlinkCombineStrategy = "flink.combine.strategy"

	// MRReduceTasks is the number of reduce tasks per job
	// (mapreduce.job.reduces); 0 derives one per node.
	MRReduceTasks = "mapreduce.job.reduces"
	// MRSortRecords is the map-side sort buffer capacity in records (the
	// io.sort.mb analog). A map task spills a sorted run every time its
	// buffer fills.
	MRSortRecords = "mapreduce.task.io.sort.records"

	// ShuffleStrategy selects the shared shuffle implementation for every
	// engine: "hash" (bucketed, pipelined repartition) or "sort"
	// (spill-and-merge with map-side combine). Unset keeps each engine's
	// native default — sort for Spark (tungsten-sort) and MapReduce,
	// hash for Flink's pipelined exchange. See internal/shuffle.
	ShuffleStrategy = "shuffle.strategy"
	// ShuffleCompress selects shuffle block compression: "none" or "lz",
	// the built-in LZ codec.
	ShuffleCompress = "shuffle.compress"
	// ShuffleSpillThreshold caps the serialized bytes a sort-shuffle task
	// buffers before spilling a sorted run, on top of the engine's own
	// memory grant (0 = memory pressure and engine defaults only).
	ShuffleSpillThreshold = "shuffle.spill.threshold"

	// ExecBatchSize is the record count of one execution batch in the
	// vectorized dataflow path: fused narrow chains invoke their compiled
	// kernel once per batch of this many records (selection vectors carry
	// filters), and the engines feed the shuffle map side batch-at-a-time.
	// See internal/dataflow/fuse.go.
	ExecBatchSize = "exec.batch.size"

	// BufferSize is the network/shuffle buffer size shared by both
	// frameworks in the paper's tables (buffer.size).
	BufferSize = "buffer.size"
	// HDFSBlockSize is the DFS block size (HDFS.block.size in the paper).
	HDFSBlockSize = "hdfs.block.size"
)

// DefaultExecBatchSize is the default execution batch width: wide enough
// to amortize per-batch kernel dispatch and shuffle-emit bookkeeping to
// noise, small enough that a batch of typical records stays cache-resident.
const DefaultExecBatchSize = 256

// Config holds one value per setting, mirroring both frameworks'
// configuration objects: a field per key, named as the key's constant.
// The zero value is not usable; call NewConfig (paper defaults).
//
// Set parses a value through the key's declaration. An unknown key or an
// illegal value leaves the field unchanged and is recorded; Err returns
// what was recorded, and dataflow.Open refuses a Config that has any. An
// engine copies the Config when it is built, so a Set afterwards does not
// reach it, and a value copy is an independent Config.
type Config struct {
	SparkDefaultParallelism int
	SparkExecutorMemory     ByteSize
	SparkShuffleManager     string
	SparkSerializer         string
	SparkEdgePartitions     int

	FlinkDefaultParallelism int
	FlinkTaskManagerMemory  ByteSize
	FlinkMemoryFraction     float64
	FlinkNetworkBuffers     int
	FlinkTaskSlots          int
	FlinkCombineStrategy    string

	MRReduceTasks int
	MRSortRecords int

	ShuffleStrategy       string
	ShuffleCompress       string
	ShuffleSpillThreshold ByteSize

	ExecBatchSize int
	BufferSize    ByteSize
	HDFSBlockSize ByteSize

	err error
}

// settings declares every key once, bound to c: the field it sets, the
// default both frameworks ship (Section IV) and the values it accepts.
func (c *Config) settings() []setting {
	return []setting{
		intKey(SparkDefaultParallelism, &c.SparkDefaultParallelism, 0, 0),
		bytesKey(SparkExecutorMemory, &c.SparkExecutorMemory, 22*GB, 1),
		choiceKey(SparkShuffleManager, &c.SparkShuffleManager, "tungsten-sort", "tungsten-sort", "sort", "hash"),
		choiceKey(SparkSerializer, &c.SparkSerializer, "java", "java", "kryo"),
		intKey(SparkEdgePartitions, &c.SparkEdgePartitions, 0, 0),

		intKey(FlinkDefaultParallelism, &c.FlinkDefaultParallelism, 0, 0),
		bytesKey(FlinkTaskManagerMemory, &c.FlinkTaskManagerMemory, 4*GB, 1),
		fractionKey(FlinkMemoryFraction, &c.FlinkMemoryFraction, 0.7),
		intKey(FlinkNetworkBuffers, &c.FlinkNetworkBuffers, 2048, 1),
		intKey(FlinkTaskSlots, &c.FlinkTaskSlots, 0, 0),
		choiceKey(FlinkCombineStrategy, &c.FlinkCombineStrategy, "sort", "sort", "hash"),

		intKey(MRReduceTasks, &c.MRReduceTasks, 0, 0),
		intKey(MRSortRecords, &c.MRSortRecords, 1<<16, 1),

		choiceKey(ShuffleStrategy, &c.ShuffleStrategy, "", "hash", "sort"),
		choiceKey(ShuffleCompress, &c.ShuffleCompress, "none", "none", "lz"),
		bytesKey(ShuffleSpillThreshold, &c.ShuffleSpillThreshold, 0, 0),

		intKey(ExecBatchSize, &c.ExecBatchSize, DefaultExecBatchSize, 1),
		bytesKey(BufferSize, &c.BufferSize, 32*KB, 1),
		bytesKey(HDFSBlockSize, &c.HDFSBlockSize, 256*MB, 1),
	}
}

// NewConfig returns a Config holding every key's paper default.
func NewConfig() *Config {
	c := &Config{}
	for _, s := range c.settings() {
		s.reset()
	}
	return c
}

// Set parses value into key's field. An unknown key or a value the key
// does not accept leaves the Config unchanged and is recorded for Err.
func (c *Config) Set(key, value string) *Config {
	s, ok := c.setting(key)
	if !ok {
		c.err = errors.Join(c.err, fmt.Errorf("core: unknown setting %q", key))
	} else if err := s.parse(value); err != nil {
		c.err = errors.Join(c.err, fmt.Errorf("core: %s=%q: %w", key, value, err))
	}
	return c
}

// SetInt sets an integer value.
func (c *Config) SetInt(key string, v int) *Config { return c.Set(key, strconv.Itoa(v)) }

// SetBytes sets a byte size value.
func (c *Config) SetBytes(key string, v ByteSize) *Config { return c.Set(key, formatBytes(v)) }

// Err returns every unknown key and illegal value Set was given, or nil.
func (c *Config) Err() error { return c.err }

// Format renders key's value as Set accepts it (byte sizes as byte
// counts), for the paper's configuration tables; "" for an unknown key.
func (c *Config) Format(key string) string {
	if s, ok := c.setting(key); ok {
		return s.show()
	}
	return ""
}

// Legal returns the values a string setting accepts, in declaration
// order; nil for a numeric or unknown key.
func Legal(key string) []string {
	s, _ := new(Config).setting(key)
	return s.legal
}

func (c *Config) setting(key string) (setting, bool) {
	for _, s := range c.settings() {
		if s.key == key {
			return s, true
		}
	}
	return setting{}, false
}

// A setting is one key's declaration bound to the field of one Config.
type setting struct {
	key   string
	legal []string // the values a string setting accepts
	reset func()   // stores the default
	parse func(string) error
	show  func() string
}

// declare binds key to field f: reset stores def, parse stores a value
// that read parses and check accepts.
func declare[T any](key string, f *T, def T, read func(string) (T, error), show func(T) string, check func(T) error) setting {
	return setting{
		key:   key,
		reset: func() { *f = def },
		parse: func(s string) error {
			v, err := read(s)
			if err == nil {
				err = check(v)
			}
			if err == nil {
				*f = v
			}
			return err
		},
		show: func() string { return show(*f) },
	}
}

func intKey(key string, f *int, def, lo int) setting {
	return declare(key, f, def, strconv.Atoi, strconv.Itoa, atLeast(lo))
}

func bytesKey(key string, f *ByteSize, def, lo ByteSize) setting {
	return declare(key, f, def, ParseByteSize, formatBytes, atLeast(lo))
}

// fractionKey declares a share of a whole, in (0, 1].
func fractionKey(key string, f *float64, def float64) setting {
	return declare(key, f, def, func(s string) (float64, error) { return strconv.ParseFloat(s, 64) },
		formatFloat, func(v float64) error {
			if v <= 0 || v > 1 {
				return errors.New("want a fraction in (0, 1]")
			}
			return nil
		})
}

// choiceKey declares a string setting that accepts def and legal.
func choiceKey(key string, f *string, def string, legal ...string) setting {
	s := declare(key, f, def, func(s string) (string, error) { return s, nil },
		func(v string) string { return v }, func(v string) error {
			if v != def && !slices.Contains(legal, v) {
				return fmt.Errorf("want one of %s", strings.Join(legal, ", "))
			}
			return nil
		})
	s.legal = legal
	return s
}

func atLeast[T int | ByteSize](lo T) func(T) error {
	return func(v T) error {
		if v < lo {
			return fmt.Errorf("want at least %d", lo)
		}
		return nil
	}
}

func formatFloat(v float64) string  { return strconv.FormatFloat(v, 'g', -1, 64) }
func formatBytes(v ByteSize) string { return strconv.FormatInt(int64(v), 10) }
