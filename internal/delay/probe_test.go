package delay

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/gate"
	"repro/internal/tech"
)

// probeModels are the model variants the optimizers run the probe on:
// the paper's full model and the two ablations of internal/experiments.
func probeModels() []struct {
	name string
	m    *Model
} {
	p := tech.CMOS025()
	return []struct {
		name string
		m    *Model
	}{
		{"full", NewModel(p)},
		{"no-miller", &Model{Proc: p, CoupleMiller: false, SlopeEffect: true}},
		{"no-slope", &Model{Proc: p, CoupleMiller: true, SlopeEffect: false}},
	}
}

// randomProbePath builds an n-stage path of random primitive cells with
// log-uniform sizes and off-path loads (some zero), stage pin at index
// pin forced to cell type t so every cell, non-inverting Buf included,
// appears at every position of the short paths.
func randomProbePath(rng *rand.Rand, p *tech.Process, n, pin int, t gate.Type) *Path {
	prims := gate.Primitives()
	logU := func(lo, hi float64) float64 {
		return lo * math.Exp(rng.Float64()*math.Log(hi/lo))
	}
	pa := &Path{Name: "probe", TauIn: logU(5, 200)}
	for j := 0; j < n; j++ {
		ty := prims[rng.Intn(len(prims))]
		if j == pin {
			ty = t
		}
		coff := 0.0
		if rng.Intn(3) > 0 {
			coff = logU(0.1*p.CRef, 30*p.CRef)
		}
		pa.Stages = append(pa.Stages, Stage{Cell: gate.MustLookup(ty), CIn: logU(p.CRef, 60*p.CRef), COff: coff})
	}
	pa.Stages[n-1].COff = logU(p.CRef, 80*p.CRef)
	return pa
}

// probeSizes returns the trial sizes for one coordinate: the current
// size, the drive range's ends and a few random points.
func probeSizes(rng *rand.Rand, p *tech.Process, cur float64) []float64 {
	xs := []float64{cur, p.CRef, p.CMax, cur / 4, cur * 4}
	for k := 0; k < 3; k++ {
		xs = append(xs, p.CRef*math.Exp(rng.Float64()*math.Log(p.CMax/p.CRef)))
	}
	return xs
}

// TestProbeMatchesPathDelayWorst pins the probe's contract: for every
// stage i and size x, At(i, x) is bit-for-bit PathDelayWorst of the
// path with C_IN(i) = x, on all three model variants, and a probe
// leaves the path untouched.
func TestProbeMatchesPathDelayWorst(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, v := range probeModels() {
		name, m := v.name, v.m
		for _, n := range []int{1, 2, 3, 115} {
			for k, ty := range gate.Primitives() {
				pa := randomProbePath(rng, m.Proc, n, k%n, ty)
				if err := pa.Validate(); err != nil {
					t.Fatal(err)
				}
				ref := pa.Clone()
				var p Probe
				p.Load(m, pa)
				for i := 0; i < n; i++ {
					for _, x := range probeSizes(rng, m.Proc, pa.Stages[i].CIn) {
						got := p.At(i, x)
						ref.Stages[i].CIn = x
						want := m.PathDelayWorst(ref)
						ref.Stages[i].CIn = pa.Stages[i].CIn
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%s n=%d %v@%d: At(%d, %g) = %v, PathDelayWorst = %v",
								name, n, ty, k%n, i, x, got, want)
						}
					}
				}
				for j := range pa.Stages {
					if pa.Stages[j] != ref.Stages[j] {
						t.Fatalf("%s n=%d: At modified stage %d", name, n, j)
					}
				}
			}
		}
	}
}

// TestProbeSetMatchesFreshLoad checks the cache maintenance: after Set
// calls in arbitrary order, the probe's state is bit-identical to a
// fresh Load of the resized path, and its probes still match the full
// evaluation.
func TestProbeSetMatchesFreshLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, v := range probeModels() {
		name, m := v.name, v.m
		for _, n := range []int{1, 2, 3, 115} {
			pa := randomProbePath(rng, m.Proc, n, 0, gate.Buf)
			var p Probe
			p.Load(m, pa)
			for step := 0; step < 4*n+8; step++ {
				i := rng.Intn(n)
				x := m.Proc.CRef * math.Exp(rng.Float64()*math.Log(m.Proc.CMax/m.Proc.CRef))
				p.Set(i, x)
				if pa.Stages[i].CIn != x {
					t.Fatalf("%s n=%d: Set(%d, %g) left C_IN %g", name, n, i, x, pa.Stages[i].CIn)
				}
			}
			var fresh Probe
			fresh.Load(m, pa)
			if len(p.st) != len(fresh.st) {
				t.Fatalf("%s n=%d: %d cached stages, fresh Load has %d", name, n, len(p.st), len(fresh.st))
			}
			for j := range fresh.st {
				if !sameProbeStage(p.st[j], fresh.st[j]) {
					t.Fatalf("%s n=%d stage %d: after Sets %+v, fresh Load %+v", name, n, j, p.st[j], fresh.st[j])
				}
			}
			ref := pa.Clone()
			for i := 0; i < n; i++ {
				x := 2 * pa.Stages[i].CIn
				ref.Stages[i].CIn = x
				if got, want := p.At(i, x), m.PathDelayWorst(ref); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s n=%d: At(%d) after Sets = %v, PathDelayWorst = %v", name, n, i, got, want)
				}
				ref.Stages[i].CIn = pa.Stages[i].CIn
			}
		}
	}
}

// TestProbeReloadShorterPath checks that a probe reused on a shorter
// path (the workspace case) forgets the longer path's stages.
func TestProbeReloadShorterPath(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	m := model()
	var p Probe
	p.Load(m, randomProbePath(rng, m.Proc, 115, 0, gate.Inv))
	short := randomProbePath(rng, m.Proc, 3, 1, gate.Buf)
	p.Load(m, short)
	ref := short.Clone()
	ref.Stages[2].CIn = 7 * m.Proc.CRef
	if got, want := p.At(2, 7*m.Proc.CRef), m.PathDelayWorst(ref); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("reused probe: At = %v, PathDelayWorst = %v", got, want)
	}
}

func sameProbeStage(a, b probeStage) bool {
	same := func(x, y [2]float64) bool {
		return math.Float64bits(x[0]) == math.Float64bits(y[0]) && math.Float64bits(x[1]) == math.Float64bits(y[1])
	}
	return a.rising == b.rising && math.Float64bits(a.cl) == math.Float64bits(b.cl) &&
		same(a.d, b.d) && same(a.tau, b.tau) && same(a.pre, b.pre)
}
