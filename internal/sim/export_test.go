package sim

// RetiredFlowRefs reports what m holds of the records it recycles: the
// reference count of each done record still waiting for its holders, in
// completion order, and how many records sit free for reuse.
func RetiredFlowRefs(m *Metrics) (waiting []int32, free int) {
	for i := range m.retired.Len() {
		waiting = append(waiting, (*m.retired.At(i)).refs)
	}
	return waiting, m.free.Len()
}

// PortEnabled reports whether pt's transmitter is running.
func PortEnabled(pt *Port) bool { return pt.enabled }
