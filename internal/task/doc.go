// Package task implements the ISIS light-weight task facility of Section 4.1
// of the paper: a single process can execute multiple concurrent tasks, one
// per arriving message. Each process binds routines to entry points (1-byte
// identifiers); when a message arrives, it is passed through a chain of
// filters (the protection facility installs one, and the final "filter" is
// the one that creates new tasks) and then a new task runs the routine bound
// to the destination entry point.
//
// A Manager is a process's one queue, of tasks (Dispatch) and calls (Call: the
// protocols process's view callbacks, state blocks and state captures), with
// one rule: a task waits for the earlier tasks of its own entry and for every
// earlier call; a call waits for every earlier task and call. The 1987
// implementation used non-preemptive coroutines, so messages arriving at one
// entry point were processed in arrival order unless the handler explicitly
// waited. Here each entry in use has a goroutine that runs its tasks in turn,
// and the calls one more; a handler that blocks delays only later messages
// for its own entry, and later calls, which matches how the toolkit's tools
// use entries (one entry per tool or per replicated item). Scheduling only
// queues, however long the queue grows: filters run just before the handler.
package task
