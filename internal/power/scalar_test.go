package power

import (
	"math/rand"

	"repro/internal/gate"
	"repro/internal/netlist"
)

// simulateScalar is the retained scalar reference of the vector
// simulation: one map-keyed evaluation per vector, the historical
// implementation the bit-parallel simulate replaced. It runs only in
// the equivalence tests and the scalar rows of BenchmarkPowerProfile —
// never on a production path — and defines the contract simulate must
// match: identical RNG consumption, identical toggle and high counts.
func simulateScalar(c *netlist.Circuit, o Options) ([]*netlist.Node, map[*netlist.Node]int, map[*netlist.Node]int, error) {
	order, err := c.TopoOrder()
	if err != nil {
		return nil, nil, nil, err
	}
	rng := rand.New(rand.NewSource(o.Seed))

	// Current input assignment, evolved by random flips.
	in := make(map[string]bool, len(c.Inputs))
	for _, n := range c.Inputs {
		in[n.Name] = rng.Intn(2) == 1
	}

	prev := make(map[*netlist.Node]bool, len(order))
	toggles := make(map[*netlist.Node]int, len(order))
	highs := make(map[*netlist.Node]int, len(order))

	eval := func(dst map[*netlist.Node]bool) {
		for _, n := range order {
			switch {
			case n.Type == gate.Input:
				dst[n] = in[n.Name]
			case n.Type == gate.Output:
				dst[n] = dst[n.Fanin[0]]
			default:
				args := make([]bool, len(n.Fanin))
				for i, f := range n.Fanin {
					args[i] = dst[f]
				}
				dst[n] = gate.Eval(n.Type, args)
			}
		}
	}
	eval(prev)

	cur := make(map[*netlist.Node]bool, len(order))
	for v := 0; v < o.Vectors; v++ {
		for _, n := range c.Inputs {
			if rng.Float64() < o.InputActivity {
				in[n.Name] = !in[n.Name]
			}
		}
		eval(cur)
		for _, n := range order {
			if cur[n] != prev[n] {
				toggles[n]++
			}
			if cur[n] {
				highs[n]++
			}
			prev[n] = cur[n]
		}
	}
	return order, toggles, highs, nil
}

// scalarProfile is SimulateProfile over the retained scalar reference
// simulation — the comparison arm of the equivalence tests and of
// BenchmarkPowerProfile's scalar rows. Production callers always go
// through SimulateProfile's bit-parallel path.
func scalarProfile(c *netlist.Circuit, opts Options) (*Profile, error) {
	o := opts.withDefaults()
	order, toggles, highs, err := simulateScalar(c, o)
	if err != nil {
		return nil, err
	}
	p := &Profile{
		Activities: make(map[string]float64, len(order)),
		StateProbs: make(map[string]float64, len(order)),
	}
	for _, n := range order {
		if n.Type == gate.Output {
			continue // the PO pseudo-node mirrors its driver
		}
		p.Activities[n.Name] = float64(toggles[n]) / float64(o.Vectors)
		p.StateProbs[n.Name] = float64(highs[n]) / float64(o.Vectors)
	}
	return p, nil
}
