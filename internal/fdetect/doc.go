// Package fdetect implements the ISIS site-monitoring facility of Section
// 3.7 of the paper: failures of remote sites are detected by timeout, and the
// timeout interval adapts to the observed inter-arrival times so that an
// overloaded (slow) site is not hastily declared dead. Process failures
// within a site are detected directly by the local protocols process and do
// not involve this package.
//
// The detector sends nothing: any frame from a site is a heartbeat. Once an
// interval it polls the transport, which reports every peer it has a stream
// with and whether it was heard from since the last poll, and sends each
// otherwise idle peer a keepalive. A peer's first poll starts monitoring it.
//
// The detector reports clean events: once a site is declared failed, it
// stays failed until it is heard from again, at which point a recovery event
// is reported (in the full system the recovered site rejoins with a new
// incarnation, or merges back after a partition; see internal/protos).
package fdetect
