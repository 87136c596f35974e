// Package sparkexec is empty. Package dataflow opens the spark engine by name
// (dataflow.Open("spark")) and lowers every operator onto it itself; this
// package is kept only because the repository benchmark (bench/) still
// imports it, and goes when that import does.
package sparkexec
