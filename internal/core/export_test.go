package core

// ChannelLogged returns the total in-transit bytes recorded as channel
// state across all ranks and epochs.
func (v *VCL) ChannelLogged() int64 {
	var b int64
	for _, c := range v.chanLogged {
		b += c
	}
	return b
}
