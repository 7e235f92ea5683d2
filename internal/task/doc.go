// Package task implements the ISIS light-weight task facility of Section 4.1
// of the paper: a single process can execute multiple concurrent tasks, one
// per arriving message. Each process binds routines to entry points (1-byte
// identifiers); when a message arrives, it is passed through a chain of
// filters (the protection facility installs one, and the final "filter" is
// the one that creates new tasks) and then a new task runs the routine bound
// to the destination entry point.
//
// The 1987 implementation used fixed-stack, non-preemptive coroutines: a
// task ran until it blocked, so messages arriving at one entry point were
// processed in arrival order unless the handler explicitly waited. Here each
// task is a goroutine, and that ordering property is preserved by running
// the tasks of each entry point sequentially (one worker per entry);
// different entry points execute concurrently. A handler that blocks
// therefore delays only later messages for its own entry, which matches how
// the toolkit's tools use entries (one entry per tool or per replicated
// item).
package task
