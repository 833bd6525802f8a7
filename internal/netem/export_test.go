package netem

// InService reports whether a segment is on the port's serializer.
func (p *Port) InService() bool { return p.cur != nil }
