// Package sim provides a deterministic, process-oriented discrete-event
// simulation kernel.
//
// Simulated processes are coroutines (iter.Pull), and within a partition
// exactly one of them executes at a time: the kernel resumes the process
// whose wakeup event is next in virtual time, which runs until it blocks
// again. Event ordering is by (time, sequence-number), so runs with the
// same seed are bit-for-bit reproducible regardless of the host scheduler.
//
// The kernel offers the primitives a message-passing simulation needs:
//
//   - Hold: advance virtual time (modelling computation or fixed delays)
//   - Mailbox: key-matched message queues (MPI-style source/tag match)
//   - Resource: FIFO bandwidth servers (NICs, disks)
//   - Gate: freeze/unfreeze points (checkpoint "Lock MPI")
//   - Counter: monotone counters with await-at-least (channel drains)
//
// Processes and primitives carry a Label, formatted only when a deadlock
// report names them, and each primitive is returned by value for its owner
// to embed.
//
// NewRand builds the simulation's seeded random streams: math/rand's
// values, without its 4.9 KB register until a stream's 274th draw.
//
// API discipline: all kernel methods must be called either before Run, from
// within the currently active process, or from a kernel-context callback
// registered with At. The kernel is not safe for use from foreign goroutines.
package sim

import (
	"fmt"
	"time"
)

// Time is a point in virtual time, measured in nanoseconds since the start
// of the simulation.
type Time int64

// Common durations.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// Seconds converts a floating-point number of seconds to a Time.
func Seconds(s float64) Time { return Time(s * float64(Second)) }

// Seconds reports t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats t using time.Duration notation (e.g. "1.5s").
func (t Time) String() string { return time.Duration(t).String() }

// DeadlockError is returned by Kernel.Run when the event queue is empty but
// live processes remain blocked with no scheduled wakeup.
type DeadlockError struct {
	Now     Time
	Blocked []string // "name: state" for each blocked process
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at %v: %d blocked process(es): %v",
		e.Now, len(e.Blocked), e.Blocked)
}
