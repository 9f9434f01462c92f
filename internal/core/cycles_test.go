package core

import "testing"

func TestCycleCost(t *testing.T) {
	tests := []struct {
		m    int
		want int
	}{
		{0, 0},
		{1, 4}, // 1 + 0 + 2 + 1
		{2, 5}, // 1 + 1 + 2 + 1
		{4, 6}, // 1 + 2 + 2 + 1
		{8, 7}, // the paper's headline number for 8 queues
		{16, 8},
	}
	for _, tt := range tests {
		if got := CycleCost(tt.m); got != tt.want {
			t.Errorf("CycleCost(%d) = %d, want %d", tt.m, got, tt.want)
		}
	}
}

func TestCycleOverheadTrident3(t *testing.T) {
	// §IV-A: 7 cycles of an ≥800-cycle Trident 3 pipeline is 0.88%.
	got := CycleOverhead(8, 800)
	if got < 0.00874 || got > 0.00876 {
		t.Fatalf("CycleOverhead(8, 800) = %v, want 0.00875 (0.88%%)", got)
	}
	if CycleOverhead(8, 0) != 0 {
		t.Error("zero pipeline budget should give 0")
	}
}
