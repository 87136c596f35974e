// Package flinkexec is empty. Package dataflow opens the flink engine by name
// (dataflow.Open("flink")) and lowers every operator onto it itself; this
// package is kept only because the repository benchmark (bench/) still
// imports it, and goes when that import does.
package flinkexec
