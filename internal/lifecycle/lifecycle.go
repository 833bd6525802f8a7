// Package lifecycle makes flows first-class dynamic objects: arrival
// processes (FlowSource) decide *when* flows are born, and size
// distributions (SizeDist) decide *how much* each one transfers. The
// experiment layer binds the two to a warm engine — a source's launch
// callback attaches a sender/receiver pair, runs it to byte-completion,
// and detaches it, releasing every timer, queue slot, and pooled segment.
//
// Determinism contract: a source or distribution draws only from the RNG
// stream handed to it, and those streams are derived from the replicate
// seed with StreamSeed — never from wall clock, goroutine identity, or
// worker count. Two runs with the same configuration and seed produce the
// same birth times and the same sizes, byte for byte, at any parallelism.
package lifecycle

import "rsstcp/internal/sim"

// Stream salts keep the arrival-time and flow-size draws on independent
// RNG streams: consuming one extra arrival must never shift the sizes.
const (
	// SaltArrivals derives the arrival-process stream.
	SaltArrivals uint64 = iota
	// SaltSizes derives the flow-size stream.
	SaltSizes
)

// StreamSeed derives an independent, well-mixed RNG seed for one stream of
// a replicate: the splitmix64 finalizer the topology layer uses for its
// per-hop injector streams, salted so neighbouring streams land far apart
// even for adjacent base seeds.
func StreamSeed(seed, salt uint64) uint64 {
	return sim.Mix64(seed ^ (salt+1)*0xbf58476d1ce4e5b9)
}
