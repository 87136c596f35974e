// Package workloads defines the paper's benchmarks once each, against the
// engine-agnostic dataflow and graph APIs, so one definition runs on all
// three mini-engines with the operator sequences of Table I
// (S spark, F flink, MR mapreduce):
//
//	Word Count     S: flatMap→mapToPair→reduceByKey→saveAsTextFile
//	               F: flatMap→groupBy→sum→writeAsText
//	               MR: map(tokenize)→combine→reduce
//	Grep           S/F: filter→count; MR: map(match)→combine→reduce
//	Tera Sort      S: newAPIHadoopFile→repartitionAndSortWithinPartitions→save
//	               F: read→map(OptimizedText)→partitionCustom→sortPartition→write
//	               MR: map→rangePartition→identityReduce
//	K-Means        S: loop { map→reduceByKey→collectAsMap }
//	               F: bulkIterate { map(withBroadcastSet)→groupBy→reduce→map }
//	               MR: one chained job per round over the staged input
//	Page Rank      unified Pregel: S loop-unrolled rounds; F delta iteration;
//	               MR chained DFS jobs (graphs.go)
//	Conn. Comp.    unified Pregel (same three lowerings)
//	SSSP           unified Pregel, the third graph scenario
//
// Each function returns enough to verify correctness; the experiment
// harness, the examples and the benchmarks all call through here.
package workloads

import (
	"encoding/binary"
	"math"

	"repro/internal/datagen"
	"repro/internal/serde"
)

// KSum is the K-Means partial aggregate: coordinate sums and a count.
type KSum struct {
	X, Y float64
	N    int64
}

func init() {
	// Register compact schema codecs for the workload record types so the
	// engines serialize them efficiently under every strategy (the Kryo
	// registration / TypeInfo extraction step).
	serde.Register(func(s serde.Style) serde.Codec[datagen.Point] {
		return serde.FixedCodec(s, "Point", 16,
			func(dst []byte, p datagen.Point) {
				binary.BigEndian.PutUint64(dst, math.Float64bits(p.X))
				binary.BigEndian.PutUint64(dst[8:], math.Float64bits(p.Y))
			},
			func(src []byte) datagen.Point {
				return datagen.Point{
					X: math.Float64frombits(binary.BigEndian.Uint64(src)),
					Y: math.Float64frombits(binary.BigEndian.Uint64(src[8:])),
				}
			})
	})
	serde.Register(func(s serde.Style) serde.Codec[KSum] {
		return serde.FixedCodec(s, "KSum", 24,
			func(dst []byte, k KSum) {
				binary.BigEndian.PutUint64(dst, math.Float64bits(k.X))
				binary.BigEndian.PutUint64(dst[8:], math.Float64bits(k.Y))
				binary.BigEndian.PutUint64(dst[16:], uint64(k.N))
			},
			func(src []byte) KSum {
				return KSum{
					X: math.Float64frombits(binary.BigEndian.Uint64(src)),
					Y: math.Float64frombits(binary.BigEndian.Uint64(src[8:])),
					N: int64(binary.BigEndian.Uint64(src[16:])),
				}
			})
	})
	serde.Register(func(s serde.Style) serde.Codec[PRVertex] {
		return serde.FixedCodec(s, "PRVertex", 16,
			func(dst []byte, v PRVertex) {
				binary.BigEndian.PutUint64(dst, math.Float64bits(v.Rank))
				binary.BigEndian.PutUint64(dst[8:], uint64(v.OutDeg))
			},
			func(src []byte) PRVertex {
				return PRVertex{
					Rank:   math.Float64frombits(binary.BigEndian.Uint64(src)),
					OutDeg: int64(binary.BigEndian.Uint64(src[8:])),
				}
			})
	})
	serde.Register(func(s serde.Style) serde.Codec[datagen.Edge] {
		return serde.FixedCodec(s, "Edge", 16,
			func(dst []byte, e datagen.Edge) {
				binary.BigEndian.PutUint64(dst, uint64(e.Src))
				binary.BigEndian.PutUint64(dst[8:], uint64(e.Dst))
			},
			func(src []byte) datagen.Edge {
				return datagen.Edge{
					Src: int64(binary.BigEndian.Uint64(src)),
					Dst: int64(binary.BigEndian.Uint64(src[8:])),
				}
			})
	})
}
