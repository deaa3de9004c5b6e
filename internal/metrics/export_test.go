package metrics

// Histogram returns the named histogram's value (zero, false if absent).
func (s *Snapshot) Histogram(name string) (HistogramValue, bool) {
	for _, h := range s.Histograms {
		if h.Name == name {
			return h, true
		}
	}
	return HistogramValue{}, false
}
