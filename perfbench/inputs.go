package main

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/iscas"
	"repro/internal/netlist"
)

// Inputs are derived from the benchmark seed, and the program only
// ever receives their .bench text. The seed renames every net of the
// generated circuit under a seed-derived prefix: the text and the
// content fingerprint change with the seed (so no memo or store entry
// carries over between seeds), while the structure — and with it the
// protocol's work — stays that of the paper's suite and the mixN
// designs. Seeding the generators themselves was tried first and
// rejected: suite wall time ranged 4.4–11.1 s over five seeds, far
// wider than any regression bound could tolerate.

// ratios are the Tc/Tmin constraint points of the suite and service
// workloads.
var ratios = []float64{1.2, 1.5, 2.0}

// Sizes of the generated mixN designs.
const (
	largeGates   = 50000
	largeRatio   = 1.5
	leakageGates = 20000
	leakageRatio = 2.0
)

// serviceCircuits are the suite circuits the service workload sends.
var serviceCircuits = []string{"fpd", "c432", "c499", "c880"}

// splitmix is the SplitMix64 step: a well-mixed 64-bit value from a
// seed and a stream index.
func splitmix(seed int64, k uint64) uint64 {
	z := uint64(seed) + (k+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// tag is the net-name prefix of input k under seed: fixed length, so
// the text size (and parse work) does not depend on the seed.
func tag(seed int64, k int) string {
	return fmt.Sprintf("x%06x_", splitmix(seed, uint64(k))&0xffffff)
}

// benchText serializes c with every net renamed under prefix. The
// circuit name (the "# name" header, the display name of results) is
// kept. A shared prefix keeps the names' lexicographic order, so no
// name-ordered decision in the program changes.
func benchText(c *netlist.Circuit, prefix string) (string, error) {
	for _, n := range c.Nodes {
		if n.Name != "" {
			n.Name = prefix + n.Name
		}
	}
	var b strings.Builder
	if err := netlist.WriteBench(&b, c); err != nil {
		return "", fmt.Errorf("write %s: %w", c.Name, err)
	}
	return b.String(), nil
}

// suiteTexts returns the 11 suite circuits as seeded .bench variants.
func suiteTexts(seed int64) ([]string, error) {
	var out []string
	for k, spec := range iscas.Suite() {
		c, err := iscas.Generate(spec)
		if err != nil {
			return nil, err
		}
		t, err := benchText(c, tag(seed, k))
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// mixText returns the mixN design of the given budget as a seeded
// .bench variant.
func mixText(seed int64, gates int) (string, error) {
	c, err := iscas.MixedLogic(gates)
	if err != nil {
		return "", err
	}
	return benchText(c, tag(seed, gates))
}

// c17Text is the input of the set-up probe: the genuine c17, renamed
// like every other input.
func c17Text(seed int64) (string, error) {
	return benchText(iscas.C17(), tag(seed, 17))
}

// unit is one (netlist, ratio) optimize request of the service
// workload.
type unit struct {
	Bench string
	Ratio float64
}

// serviceVariants is how many seeded variants of each service circuit
// one cycle sends.
const serviceVariants = 3

// serviceUnits returns the distinct units of one service cycle and the
// fixed request order of its two phases: misses (every unit once)
// then repeats (every unit again, in another order). The replay after
// the restart uses a third order.
func serviceUnits(seed int64) (units []unit, misses, repeats, replay []int, err error) {
	for v := 0; v < serviceVariants; v++ {
		for ci, name := range serviceCircuits {
			spec, err := iscas.ByName(name)
			if err != nil {
				return nil, nil, nil, nil, err
			}
			c, err := iscas.Generate(spec)
			if err != nil {
				return nil, nil, nil, nil, err
			}
			t, err := benchText(c, tag(seed, 100+v*len(serviceCircuits)+ci))
			if err != nil {
				return nil, nil, nil, nil, err
			}
			for _, r := range ratios {
				units = append(units, unit{Bench: t, Ratio: r})
			}
		}
	}
	rng := rand.New(rand.NewSource(int64(splitmix(seed, 1<<20))))
	misses, repeats, replay = rng.Perm(len(units)), rng.Perm(len(units)), rng.Perm(len(units))
	return units, misses, repeats, replay, nil
}
