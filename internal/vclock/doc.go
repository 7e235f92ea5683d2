// Package vclock implements the vector timestamps used by the CBCAST
// protocol (Section 3.1 of the paper). Each member of a process group keeps
// a vector clock with one entry per member rank in the current view; a
// CBCAST carries the sender's timestamp, and a receiver delays delivery
// until the message is causally deliverable. A timestamp travels as uvarints,
// its entry count and then each entry (AppendEncode), so a clock of three
// entries under 128 takes four bytes.
package vclock
