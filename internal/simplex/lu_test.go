package simplex

import (
	"math"
	"testing"

	"dctraffic/internal/linalg"
	"dctraffic/internal/stats"
)

// TestLUKernel pins refactor/luFtran/luBtran against the dense SolveLU
// reference on dense random matrices whose partial pivoting genuinely
// permutes rows (the warm path is the only consumer of these kernels, so
// the cold bit-identity tests never exercise them).
func TestLUKernel(t *testing.T) {
	for seed := uint64(41); seed < 49; seed++ {
		r := stats.NewRNG(seed)
		m := 6
		a := linalg.NewMatrix(m, m)
		for i := 0; i < m; i++ {
			for j := 0; j < m; j++ {
				a.Set(i, j, math.Floor(r.Float64()*10)-4) // forces row swaps
			}
		}
		s := NewSolver(a)
		b := make([]float64, m)
		for i := range b {
			b[i] = 1
		}
		s.resetCold(b)
		for i := 0; i < m; i++ { // basis = all real columns
			s.pos[s.n+i] = -1
			s.basic[i] = i
			s.pos[i] = i
		}
		if err := s.refactor(); err != nil {
			t.Fatal(err)
		}
		w := make([]float64, m)
		for i := range w {
			w[i] = r.Float64()*4 - 2
		}
		got := append([]float64(nil), w...)
		s.luFtran(got)
		want, err := linalg.SolveLU(a, w)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Abs(want[i]-got[i]) > 1e-9 {
				t.Errorf("seed %d: luFtran[%d]: got %v want %v", seed, i, got[i], want[i])
			}
		}
		at := linalg.NewMatrix(m, m)
		for i := 0; i < m; i++ {
			for j := 0; j < m; j++ {
				at.Set(i, j, a.At(j, i))
			}
		}
		gotT := append([]float64(nil), w...)
		s.luBtran(gotT)
		wantT, err := linalg.SolveLU(at, w)
		if err != nil {
			t.Fatal(err)
		}
		for i := range wantT {
			if math.Abs(wantT[i]-gotT[i]) > 1e-9 {
				t.Errorf("seed %d: luBtran[%d]: got %v want %v", seed, i, gotT[i], wantT[i])
			}
		}
	}
}
