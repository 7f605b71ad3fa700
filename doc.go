// Package repro is a from-scratch Go reproduction of "Large-Scale
// Compute-Intensive Analysis via a Combined In-Situ and Co-Scheduling
// Workflow Approach" (Sewell et al., SC '15): the HACC/CosmoTools analysis
// workflow study.
//
// The library lives under internal/ (see DESIGN.md for the system
// inventory), the runnable tools under cmd/, and the usage walkthroughs in
// the Example functions of the example_test.go files, whose output go test
// checks. EXPERIMENTS.md records paper-versus-reproduction numbers for
// every table and figure; the benchmarks in bench_test.go regenerate them.
package repro
