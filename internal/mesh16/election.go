package mesh16

// The 802.16 mesh election arbitrates access to control-subframe transmit
// opportunities without any central coordinator: for a given transmit
// opportunity, every contending node computes a pseudo-random mixing value
// from (opportunity number, node ID); the node with the largest value wins.
// All nodes run the same deterministic function over the same inputs, so
// they agree on the winner without exchanging messages.

// mix is the deterministic smearing function (the standard uses an
// equivalent inline hash). It must be stateless and identical at all nodes.
func mix(slot uint32, id NodeID16) uint32 {
	x := slot*2654435761 ^ uint32(id)*40503
	x ^= x >> 16
	x *= 2246822519
	x ^= x >> 13
	x *= 3266489917
	x ^= x >> 16
	return x
}

// ElectionValue returns the node's pseudo-random competition value for a
// control transmit opportunity.
func ElectionValue(opportunity uint32, id NodeID16) uint32 {
	return mix(opportunity, id)
}

// Wins reports whether node id wins transmit opportunity op against all
// competitors. Ties (astronomically rare) break toward the smaller node ID,
// which every node again computes identically.
func Wins(op uint32, id NodeID16, competitors []NodeID16) bool {
	mine := ElectionValue(op, id)
	for _, c := range competitors {
		if c == id {
			continue
		}
		theirs := ElectionValue(op, c)
		if theirs > mine || (theirs == mine && c < id) {
			return false
		}
	}
	return true
}

// Winner returns the winning node among nodes for opportunity op (the list
// must be non-empty; duplicates are ignored).
func Winner(op uint32, nodes []NodeID16) NodeID16 {
	best := nodes[0]
	bestV := ElectionValue(op, best)
	for _, n := range nodes[1:] {
		v := ElectionValue(op, n)
		if v > bestV || (v == bestV && n < best) {
			best, bestV = n, v
		}
	}
	return best
}
