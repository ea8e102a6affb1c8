package graphutil

import (
	"math/rand"
	"testing"
)

func benchGraph(n int, p float64) *Graph {
	r := rand.New(rand.NewSource(11))
	g := New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Float64() < p {
				g.AddEdge(i, j)
			}
		}
	}
	return g
}

// componentCases are the dependency-component shapes of the fill-in and
// clique benchmarks: a typical 40-worker component, and one of 176 workers
// at 30% density — the largest component of the event-spike workload, whose
// bitset rows span three 64-bit words.
var componentCases = []struct {
	name string
	n    int
	p    float64
}{
	{"n40_p15", 40, 0.15},
	{"n176_p30", 176, 0.3},
}

// BenchmarkFillIn measures chordal completion via the elimination game on a
// component-sized dependency graph.
func BenchmarkFillIn(b *testing.B) {
	for _, c := range componentCases {
		g := benchGraph(c.n, c.p)
		vs := make([]int, c.n)
		for i := range vs {
			vs[i] = i
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g.FillIn(vs)
			}
		})
	}
}

// BenchmarkMaximalCliques measures clique extraction from the chordal
// completion.
func BenchmarkMaximalCliques(b *testing.B) {
	for _, c := range componentCases {
		g := benchGraph(c.n, c.p)
		vs := make([]int, c.n)
		for i := range vs {
			vs[i] = i
		}
		h, peo := g.FillIn(vs)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				MaximalCliquesChordal(h, peo)
			}
		})
	}
}

// BenchmarkComponents measures connected-component extraction.
func BenchmarkComponents(b *testing.B) {
	g := benchGraph(200, 0.01)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Components(nil)
	}
}
