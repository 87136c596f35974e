package core

import (
	"strings"
	"sync"
	"testing"
)

func TestDefaultConfigMatchesPaperDefaults(t *testing.T) {
	c := NewConfig()
	if got := c.Bytes(BufferSize, 0); got != 32*KB {
		t.Errorf("default buffer.size = %v, want 32KB (paper Section IV-B)", got)
	}
	if got := c.String(SparkSerializer, ""); got != "java" {
		t.Errorf("default spark serializer = %q, want java", got)
	}
	if got := c.String(SparkShuffleManager, ""); got != "tungsten-sort" {
		t.Errorf("shuffle manager = %q, want tungsten-sort (paper pins it)", got)
	}
	if got := c.Float(FlinkMemoryFraction, 0); got != 0.7 {
		t.Errorf("flink memory fraction = %v, want 0.7", got)
	}
	if got := c.Bytes(HDFSBlockSize, 0); got != 256*MB {
		t.Errorf("hdfs block size = %v, want 256MB (Table II)", got)
	}
}

func TestConfigTypedAccessors(t *testing.T) {
	c := NewEmptyConfig()
	c.SetInt("i", 42)
	c.SetFloat("f", 2.5)
	c.SetBytes("sz", 64*KB)
	c.Set("raw", "128MB")
	if c.Int("i", 0) != 42 || c.Float("f", 0) != 2.5 {
		t.Error("typed round-trips failed")
	}
	if c.Bytes("sz", 0) != 64*KB {
		t.Error("bytes round-trip failed")
	}
	if c.Bytes("raw", 0) != 128*MB {
		t.Error("suffixed bytes value not parsed")
	}
	if c.Int("missing", 7) != 7 || c.Float("missing", 1.5) != 1.5 {
		t.Error("defaults not honored")
	}
	if c.Bytes("missing", 3*GB) != 3*GB {
		t.Error("bytes default not honored")
	}
}

func TestConfigCloneIsolation(t *testing.T) {
	base := NewConfig()
	derived := base.Clone()
	derived.SetInt(SparkDefaultParallelism, 1536)
	if base.Int(SparkDefaultParallelism, -1) == 1536 {
		t.Error("mutating a clone leaked into the base config")
	}
}

func TestConfigDescribeSorted(t *testing.T) {
	c := NewEmptyConfig()
	c.Set("zzz", "1")
	c.Set("aaa", "2")
	d := c.Describe()
	if strings.Index(d, "aaa") > strings.Index(d, "zzz") {
		t.Errorf("Describe not sorted: %q", d)
	}
}

func TestConfigConcurrentAccess(t *testing.T) {
	c := NewConfig()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c.SetInt(SparkDefaultParallelism, i*100+j)
				_ = c.Int(SparkDefaultParallelism, 0)
				_ = c.Keys()
			}
		}(i)
	}
	wg.Wait()
}
