package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestGmean(t *testing.T) {
	if g := Gmean([]float64{2, 8}); math.Abs(g-4) > 1e-12 {
		t.Fatalf("Gmean(2,8) = %f", g)
	}
	if g := Gmean([]float64{1, 1, 1}); math.Abs(g-1) > 1e-12 {
		t.Fatalf("Gmean(1,1,1) = %f", g)
	}
	if !math.IsNaN(Gmean(nil)) {
		t.Fatal("Gmean(nil) not NaN")
	}
}

func TestGmeanPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on zero")
		}
	}()
	Gmean([]float64{1, 0})
}

func TestGmeanBetweenMinMax(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, r := range raw {
			xs[i] = float64(r%1000) + 1
			lo = math.Min(lo, xs[i])
			hi = math.Max(hi, xs[i])
		}
		g := Gmean(xs)
		return g >= lo-1e-9 && g <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMean(t *testing.T) {
	if m := Mean([]float64{1, 2, 3}); math.Abs(m-2) > 1e-12 {
		t.Fatalf("Mean = %f", m)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Fatal("Mean(nil) not NaN")
	}
}

func TestTableAlignment(t *testing.T) {
	tb := NewTable("bench", "value")
	tb.Row("mcf", "1.25")
	tb.Row("gmean", "2.50")
	s := tb.String()
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d", len(lines))
	}
	if !strings.Contains(lines[1], "mcf") || !strings.Contains(lines[2], "2.50") {
		t.Fatalf("table content wrong:\n%s", s)
	}
}

func TestSpark(t *testing.T) {
	if Spark(nil) != "" {
		t.Fatal("empty spark not empty")
	}
	s := Spark([]float64{0, 1, 2, 3})
	if len([]rune(s)) != 4 {
		t.Fatalf("spark length %d", len([]rune(s)))
	}
	r := []rune(s)
	if r[0] != '▁' || r[3] != '█' {
		t.Fatalf("spark extremes wrong: %q", s)
	}
	flat := []rune(Spark([]float64{5, 5, 5}))
	if flat[0] != flat[1] || flat[1] != flat[2] {
		t.Fatalf("flat spark not flat: %q", string(flat))
	}
}
