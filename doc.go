// Package repro is a from-scratch Go reproduction of "Towards an
// Event-Driven Programming Model for OpenMP" (Fan, Sinnen, Giacaman, ICPP
// 2016): the Pyjama virtual-target runtime (internal/core, internal/pyjama),
// its source-to-source compiler (internal/transform, cmd/pjc), the OpenMP
// fork-join substrate (internal/omp), the simulated GUI/EDT framework
// (internal/eventloop, internal/gui), the Java Grande kernels
// (internal/kernels), and the evaluation harness that regenerates every
// figure and table of the paper (internal/evaluation, cmd/edtbench,
// cmd/httpbench, cmd/report), measured by the benchmark in benchmark/.
//
// See README.md for a tour, DESIGN.md for the system inventory, and
// EXPERIMENTS.md for paper-versus-measured results.
package repro
