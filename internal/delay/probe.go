package delay

import "math"

// Probe prices single-coordinate size changes of a path's worst-edge
// delay incrementally, for the optimizers' line searches. The eq. (2-3)
// transition of a stage depends only on its own C_IN and C_L, so
// resizing stage i changes exactly three per-stage terms: stage i−1 (its
// load holds i's pin), stage i itself, and stage i+1 (its input-slope
// term only). The probe caches, for both launch edges, every stage's
// delay, output transition and left-fold prefix sum; a probe recomputes
// the three terms and re-adds the cached suffix in PathDelayLaunch's
// left-to-right order, so At is bit-identical to PathDelayWorst of the
// path with the one size changed, at O(1) gate evaluations plus O(n−i)
// adds instead of O(n) gate evaluations.
//
// Between Load and the last At the path may change only through Set.
// The zero value is ready to use; its buffers are reused by later Loads.
type Probe struct {
	m  *Model
	pa *Path
	st []probeStage
}

// probeStage is the cached state of one stage. Index e of each pair is
// the launch edge: 0 for a rising path input, 1 for a falling one.
type probeStage struct {
	rising bool       // input edge of this stage under a rising launch
	cl     float64    // LoadAt of this stage
	d      [2]float64 // stage delay
	tau    [2]float64 // output transition
	pre    [2]float64 // left fold of d over the stages before this one
}

// Load caches the state of pa under m for the probes that follow.
//
//pops:noalloc the stage cache grows only under the cap guard
func (p *Probe) Load(m *Model, pa *Path) {
	p.m, p.pa = m, pa
	n := len(pa.Stages)
	if cap(p.st) < n {
		p.st = make([]probeStage, n)
	}
	p.st = p.st[:n]
	rising := true
	for j := range pa.Stages {
		p.st[j].rising = rising
		p.st[j].cl = pa.LoadAt(j)
		p.term(j)
		if pa.Stages[j].Cell.Invert {
			rising = !rising
		}
	}
	p.fold(1)
}

// At returns the worst-edge path delay with stage i sized x, bit-for-bit
// PathDelayWorst of that path; the path itself is left unchanged.
//
//pops:noalloc one call per line-search probe
func (p *Probe) At(i int, x float64) float64 {
	m, pa, ps := p.m, p.pa, p.st
	n := len(ps)
	var total, tau [2]float64
	tau[0], tau[1] = pa.TauIn, pa.TauIn
	if i > 0 {
		// Stage i−1: the probed pin is part of its load.
		s, c := &pa.Stages[i-1], &ps[i-1]
		cl := pa.loadWith(i-1, s.CIn, x)
		for e := range total {
			if i > 1 {
				tau[e] = ps[i-2].tau[e]
			}
			var d float64
			d, tau[e] = m.stageTerm(&s.Cell, s.CIn, cl, tau[e], c.rising == (e == 0))
			total[e] = c.pre[e] + d
		}
	}
	// Stage i itself, at the probed size.
	var next float64
	if i+1 < n {
		next = pa.Stages[i+1].CIn
	}
	s, c := &pa.Stages[i], &ps[i]
	cl := pa.loadWith(i, x, next)
	for e := range total {
		var d float64
		d, tau[e] = m.stageTerm(&s.Cell, x, cl, tau[e], c.rising == (e == 0))
		total[e] += d
	}
	// Stage i+1: only its input-slope term moves.
	if i+1 < n {
		s, c := &pa.Stages[i+1], &ps[i+1]
		for e := range total {
			d, _ := m.stageTerm(&s.Cell, s.CIn, c.cl, tau[e], c.rising == (e == 0))
			total[e] += d
		}
	}
	for j := i + 2; j < n; j++ {
		total[0] += ps[j].d[0]
		total[1] += ps[j].d[1]
	}
	return math.Max(total[0], total[1])
}

// Set resizes stage i of the loaded path to x and updates the cache to
// what a fresh Load of the resized path would hold.
//
//pops:noalloc one call per accepted line-search step
func (p *Probe) Set(i int, x float64) {
	pa := p.pa
	pa.Stages[i].CIn = x
	lo, hi := max(i-1, 0), min(i+1, len(p.st)-1)
	if i > 0 {
		p.st[i-1].cl = pa.LoadAt(i - 1)
	}
	p.st[i].cl = pa.LoadAt(i)
	for j := lo; j <= hi; j++ {
		p.term(j)
	}
	p.fold(lo + 1)
}

// term recomputes stage j's delays and output transitions from its
// cached load and its predecessor's cached transitions.
func (p *Probe) term(j int) {
	s, c := &p.pa.Stages[j], &p.st[j]
	for e := range c.d {
		tauIn := p.pa.TauIn
		if j > 0 {
			tauIn = p.st[j-1].tau[e]
		}
		c.d[e], c.tau[e] = p.m.stageTerm(&s.Cell, s.CIn, c.cl, tauIn, c.rising == (e == 0))
	}
}

// fold recomputes the prefix sums of stages from..n−1 (pre of stage 0
// is always zero, the fold's starting value).
func (p *Probe) fold(from int) {
	for j := max(from, 1); j < len(p.st); j++ {
		for e := range p.st[j].pre {
			p.st[j].pre[e] = p.st[j-1].pre[e] + p.st[j-1].d[e]
		}
	}
}
