package gb_test

import (
	"context"
	"testing"

	"repro/gb"
)

// TestVCLCheckpointMetrics: the VCL baseline streams per-checkpoint records
// like the group engine does, so ckpt_* metrics are nonzero under VCL and
// mode comparisons are observable end to end (the PR-6 observability gap).
func TestVCLCheckpointMetrics(t *testing.T) {
	ctx := context.Background()
	mo := gb.NewMetricsObserver()
	res, err := gb.Run(ctx, gb.Synthetic(8, 30),
		gb.WithMode(gb.VCL),
		gb.WithSchedule(gb.Schedule{At: gb.Second}),
		gb.WithObserver(mo))
	if err != nil {
		t.Fatalf("VCL run: %v", err)
	}
	if res.Epochs == 0 || len(res.Records) == 0 {
		t.Fatalf("VCL run checkpointed nothing: epochs=%d records=%d", res.Epochs, len(res.Records))
	}
	done, ok := res.Metrics.Counter("ckpt_completed_total")
	if !ok || done != int64(len(res.Records)) {
		t.Errorf("ckpt_completed_total = %d (present=%v), want %d", done, ok, len(res.Records))
	}
	if img, _ := res.Metrics.Counter("ckpt_image_bytes_total"); img == 0 {
		t.Error("ckpt_image_bytes_total stayed zero under VCL")
	}
	var dur gb.HistogramValue
	ok = false
	for _, h := range res.Metrics.Histograms {
		if h.Name == "ckpt_duration_seconds" {
			dur, ok = h, true
		}
	}
	if !ok || dur.Count != int64(len(res.Records)) || dur.Sum <= 0 {
		t.Errorf("ckpt_duration_seconds = %+v (present=%v), want %d observations", dur, ok, len(res.Records))
	}
}
