package pias

import (
	"testing"

	"dynaq/internal/units"
)

func TestTwoLevelClassification(t *testing.T) {
	if DemotionThreshold != 100*units.KB {
		t.Fatalf("threshold = %v", DemotionThreshold)
	}
	classOf := ClassOf(3)
	tests := []struct {
		seq  int64
		want int
	}{
		{0, 0},
		{99999, 0},
		{100000, 3}, // first demoted byte
		{5000000, 3},
	}
	for _, tt := range tests {
		if got := classOf(tt.seq); got != tt.want {
			t.Errorf("ClassOf(%d) = %d, want %d", tt.seq, got, tt.want)
		}
	}
}

func TestDistinctServiceClasses(t *testing.T) {
	a, b := ClassOf(1), ClassOf(2)
	if a(200000) != 1 || b(200000) != 2 {
		t.Fatal("demoted classes must follow the service class")
	}
	if a(0) != 0 || b(0) != 0 {
		t.Fatal("early bytes must share the high-priority class")
	}
}
