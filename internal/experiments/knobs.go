// Run-wide experiment knobs. Like the worker cap (workers.go), these are
// process-level settings the CLIs forward from flags: they parameterize how
// capacity searches run without threading configuration through every
// experiment constructor. Every knob defaults to "no override", under which
// experiments compute byte-identical tables to a build without the knob.
package experiments

import "sync/atomic"

// queueCap holds the per-link queue depth override; 0 keeps each MAC's
// default. This changes physics: a shallower queue drops packets sooner, so
// tables may legitimately differ.
var queueCap atomic.Int64

// SetQueueCap overrides the finite per-link (TDMA) / per-node (DCF) queue
// depth, in packets, for subsequent capacity-search experiments; n <= 0
// restores each MAC's default depth.
func SetQueueCap(n int) {
	if n < 0 {
		n = 0
	}
	queueCap.Store(int64(n))
}

// QueueCap returns the current queue-depth override (0 = MAC default).
func QueueCap() int { return int(queueCap.Load()) }
