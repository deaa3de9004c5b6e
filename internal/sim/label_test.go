package sim

import "testing"

func TestLabelString(t *testing.T) {
	for _, tc := range []struct {
		l    Label
		want string
	}{
		{Label{}, ""},
		{L("mpirun"), "mpirun"},
		{L("rank", 0), "rank0"},
		{L("nic-out", 16383), "nic-out16383"},
		{L("rx", 5, 3), "rx5<-3"},
		{L("rx", 0, 65535), "rx0<-65535"},
	} {
		if got := tc.l.String(); got != tc.want {
			t.Errorf("%#v.String() = %q, want %q", tc.l, got, tc.want)
		}
	}
}

func TestLabelRejectsWhatItCannotPrint(t *testing.T) {
	for name, ids := range map[string][]int{
		"three ids": {1, 2, 3},
		"negative":  {-1},
		"too large": {1<<32 - 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: L accepted %v", name, ids)
				}
			}()
			L("x", ids...)
		}()
	}
}
