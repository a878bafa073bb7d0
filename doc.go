// Package repro reproduces "Fine-grained accelerator partitioning for
// Machine Learning and Scientific Computing in Function as a Service
// Platform" (Dhakal et al., SC-W 2023) as a self-contained Go system:
// a Parsl-like FaaS runtime whose HighThroughputExecutor partitions
// GPUs via CUDA-MPS percentages and MIG instances, running on a
// discrete-event GPU simulator calibrated to the paper's testbed.
//
// Entry points:
//
//   - internal/core: the Platform facade and experiment drivers
//   - cmd/paperbench: regenerate every figure and table
//   - cmd/gpufaas: ad-hoc scenarios
//   - examples/: runnable walkthroughs
//
// See DESIGN.md for the architecture and EXPERIMENTS.md for
// paper-vs-measured results.
package repro
