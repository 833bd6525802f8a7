package netem

// REDConfig parameterizes Random Early Detection (Floyd & Jacobson 1993) on
// an arena hop (HopSpec.RED; HopArena.enqueue runs the admission test).
// Thresholds are in packets to match the drop-tail discipline.
type REDConfig struct {
	// Capacity is the hard packet limit (tail drop beyond it).
	Capacity int
	// MinThreshold is the average queue length below which nothing drops.
	MinThreshold float64
	// MaxThreshold is the average length at which drop probability
	// reaches MaxP; above it every arrival drops.
	MaxThreshold float64
	// MaxP is the drop probability at MaxThreshold (classic 0.1).
	MaxP float64
	// Weight is the EWMA weight for the average queue estimate
	// (classic 0.002).
	Weight float64
}

// DefaultREDConfig returns the classic gentle-free RED parameters scaled to
// a queue of capPackets.
func DefaultREDConfig(capPackets int) REDConfig {
	return REDConfig{
		Capacity:     capPackets,
		MinThreshold: float64(capPackets) * 0.25,
		MaxThreshold: float64(capPackets) * 0.75,
		MaxP:         0.1,
		Weight:       0.002,
	}
}
