// Package bench contains the experiment harnesses that regenerate the
// paper's evaluation artifacts: Table 1 (multicast overhead of the toolkit
// routines), Figure 2 (throughput of asynchronous CBCAST and latency of the
// three primitives versus message size), Figure 3 (breakdown of ABCAST
// execution time), the Section 5 end-to-end twenty-questions throughput, and
// the Section 7 CPU-utilisation observation. Their one entry point is the
// cmd/isis-bench binary. The repository's performance yardstick is a
// different program, the bench directory at the repository root.
package bench
