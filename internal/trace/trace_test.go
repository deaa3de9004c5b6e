package trace

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/sim"
)

func rec(t float64, src, dst int, bytes int64, deliver bool) Record {
	return Record{T: sim.Seconds(t), Src: src, Dst: dst, Tag: 1, Bytes: bytes, Deliver: deliver}
}

func TestRecorderImplementsTracer(t *testing.T) {
	r := &Recorder{}
	r.Send(sim.Second, 0, 1, 5, 100)
	r.Deliver(sim.Seconds(2), 0, 1, 5, 100)
	if len(r.Records) != 2 {
		t.Fatalf("records = %d", len(r.Records))
	}
	if r.Records[0].Deliver || !r.Records[1].Deliver {
		t.Error("deliver flags wrong")
	}
	var sends []Record
	for _, rec := range r.Records {
		if !rec.Deliver {
			sends = append(sends, rec)
		}
	}
	if len(sends) != 1 || sends[0].Deliver {
		t.Errorf("Sends() = %v", sends)
	}
}

func TestAggregateUnorderedPairs(t *testing.T) {
	records := []Record{
		rec(1, 0, 1, 100, false),
		rec(2, 1, 0, 200, false), // same unordered pair as above
		rec(3, 0, 2, 50, false),
		rec(4, 2, 2, 999, false), // self-message: ignored
		rec(5, 0, 1, 1, true),    // delivery: ignored
	}
	pairs := Aggregate(records)
	if len(pairs) != 2 {
		t.Fatalf("pairs = %+v", pairs)
	}
	if pairs[0].A != 0 || pairs[0].B != 1 || pairs[0].Bytes != 300 || pairs[0].Count != 2 {
		t.Errorf("pair[0] = %+v, want {0 1 2 300}", pairs[0])
	}
	if pairs[1].A != 0 || pairs[1].B != 2 || pairs[1].Bytes != 50 {
		t.Errorf("pair[1] = %+v", pairs[1])
	}
}

func TestAggregateSortOrder(t *testing.T) {
	records := []Record{
		rec(1, 4, 5, 100, false),
		rec(1, 2, 3, 100, false),
		rec(1, 2, 3, 0, false), // same bytes total? no: adds count
		rec(1, 0, 1, 500, false),
	}
	pairs := Aggregate(records)
	// (0,1): 500 bytes; (2,3): 100 bytes 2 msgs; (4,5): 100 bytes 1 msg.
	want := [][2]int{{0, 1}, {2, 3}, {4, 5}}
	for i, w := range want {
		if pairs[i].A != w[0] || pairs[i].B != w[1] {
			t.Fatalf("order = %+v, want %v", pairs, want)
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	records := []Record{
		rec(1.5, 0, 1, 12345, false),
		rec(2.25, 1, 0, 99, true),
		rec(3, 7, 3, 1<<40, false),
	}
	var buf bytes.Buffer
	if err := Write(&buf, records); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(records) {
		t.Fatalf("len = %d", len(got))
	}
	for i := range records {
		if got[i] != records[i] {
			t.Errorf("record %d: %+v != %+v", i, got[i], records[i])
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader("X 1 2 3 4 5\n")); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := Read(strings.NewReader("S not-a-number\n")); err == nil {
		t.Error("malformed line accepted")
	}
}

func TestTimelineMarksActivityAndCheckpoints(t *testing.T) {
	records := []Record{
		rec(1, 0, 1, 10, true), // delivery to rank 1 at t=1
		rec(5, 1, 0, 10, true), // delivery to rank 0 at t=5 (inside ckpt)
	}
	ck := []Window{{From: sim.Seconds(4), To: sim.Seconds(6)}}
	out := Timeline(records, []int{0, 1}, 0, sim.Seconds(10), 10, ck)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("timeline:\n%s", out)
	}
	lane0 := lines[1][6:] // after "P0    " prefix
	lane1 := lines[2][6:]
	if lane1[1] != '*' {
		t.Errorf("rank1 bucket1 = %c, want *\n%s", lane1[1], out)
	}
	if lane0[5] != '#' {
		t.Errorf("rank0 bucket5 = %c, want # (progress inside ckpt)\n%s", lane0[5], out)
	}
	if lane1[4] != '_' || lane1[5] != '_' {
		t.Errorf("rank1 ckpt buckets = %c%c, want __ (gap)\n%s", lane1[4], lane1[5], out)
	}
}

func TestGapFraction(t *testing.T) {
	// Checkpoint window 10s..20s; deliveries only in the first half.
	var records []Record
	for i := 0; i < 10; i++ {
		records = append(records, rec(10+float64(i)*0.5, 0, 1, 10, true))
	}
	ck := []Window{{From: sim.Seconds(10), To: sim.Seconds(20)}}
	got := GapFraction(records, []int{1}, ck, sim.Second)
	if got < 0.45 || got > 0.55 {
		t.Errorf("GapFraction = %v, want ≈0.5", got)
	}
	// All silent: fraction 1.
	if g := GapFraction(nil, []int{1}, ck, sim.Second); g != 1 {
		t.Errorf("empty trace gap = %v, want 1", g)
	}
	// No windows: 0.
	if g := GapFraction(records, []int{1}, nil, sim.Second); g != 0 {
		t.Errorf("no-window gap = %v, want 0", g)
	}
}

func TestGapFractionIgnoresOtherRanks(t *testing.T) {
	records := []Record{rec(10.5, 0, 9, 10, true)} // delivery to rank 9 only
	ck := []Window{{From: sim.Seconds(10), To: sim.Seconds(11)}}
	if g := GapFraction(records, []int{1}, ck, sim.Second); g != 1 {
		t.Errorf("gap = %v, want 1 (activity on other ranks must not count)", g)
	}
}

func TestWindowContains(t *testing.T) {
	w := Window{From: sim.Second, To: sim.Seconds(2)}
	if !w.Contains(sim.Second) || w.Contains(sim.Seconds(2)) || w.Contains(0) {
		t.Error("Window.Contains half-open semantics violated")
	}
}
