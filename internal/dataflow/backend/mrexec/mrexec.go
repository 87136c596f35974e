// Package mrexec is empty. Package dataflow opens the mapreduce engine by name
// (dataflow.Open("mapreduce")) and lowers every operator onto it itself; this
// package is kept only because the repository benchmark (bench/) still
// imports it, and goes when that import does.
package mrexec
