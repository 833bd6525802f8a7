package netem

import "rsstcp/internal/packet"

// InService reports whether a segment is on the port's serializer.
func (p *Port) InService() bool { return p.cur != nil }

// enqueue runs hop i's admission and buffering without starting its
// serializer, so a test holds the queue length where it wants it.
func (a *HopArena) enqueue(i int, seg *packet.Segment) bool { return a.hops[i].enqueue(seg) }
