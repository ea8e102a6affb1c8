package wds

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// goldenInstances are the randomInstance parameters pinned by
// testdata/rtc_golden.txt, sparse to dense. The last five merge 120-260
// workers into one dependency component, so their fill-in runs on bitsets
// of two to five 64-bit words.
var goldenInstances = []struct {
	seed           int64
	workers, tasks int
	span           float64
}{
	{3, 40, 120, 4},
	{7, 60, 300, 5},
	{19, 60, 300, 3},
	{23, 80, 200, 4},
	{51, 100, 400, 5},
	{64, 120, 300, 3},
	{88, 160, 500, 4},
	{97, 200, 400, 3},
	{131, 260, 700, 4},
	{173, 180, 150, 1.5},
}

// rtcDump renders the RTC forest of one instance (worker ids, one
// parenthesized group per tree node) and, for every top-level dependency
// component of at least three workers, its fill-in edge count and perfect
// elimination ordering in worker ids.
func rtcDump(sep *Separation) string {
	var sb strings.Builder
	var node func(n *TreeNode)
	node = func(n *TreeNode) {
		sb.WriteByte('(')
		for i, w := range n.Workers {
			if i > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprint(&sb, w.ID)
		}
		for _, c := range n.Children {
			sb.WriteByte(' ')
			node(c)
		}
		sb.WriteByte(')')
	}
	for _, root := range sep.Forest {
		sb.WriteString("tree ")
		node(root)
		sb.WriteByte('\n')
	}
	g := sep.Graph
	for _, comp := range g.Components(nil) {
		if len(comp) < 3 {
			continue
		}
		h, peo := g.FillIn(comp)
		degree := 0
		for _, v := range comp {
			degree += g.Degree(v)
		}
		fmt.Fprintf(&sb, "comp %d fill %d peo", len(comp), h.Edges()-degree/2)
		for _, v := range peo {
			fmt.Fprintf(&sb, " %d", sep.Workers[v].ID)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// goldenDump renders every golden instance's separation with rtcDump.
func goldenDump() string {
	var sb strings.Builder
	for _, in := range goldenInstances {
		ws, ts := randomInstance(in.seed, in.workers, in.tasks, in.span)
		fmt.Fprintf(&sb, "instance seed=%d workers=%d tasks=%d span=%g\n", in.seed, in.workers, in.tasks, in.span)
		sb.WriteString(rtcDump(Separate(ws, ts, 0, opts)))
	}
	return sb.String()
}

// TestSeparateGoldenRTC pins the exact RTC forests, fill-in edge counts and
// elimination orderings of the golden instances. Unlike the indexed-versus-
// brute and parallel-versus-serial tests, it compares against a fixed
// record rather than the code itself, so a change to the graph algorithms
// that alters tree shape, and with it the plans, fails here.
func TestSeparateGoldenRTC(t *testing.T) {
	want, err := os.ReadFile("testdata/rtc_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	gotLines := strings.Split(goldenDump(), "\n")
	wantLines := strings.Split(string(want), "\n")
	for i := range max(len(gotLines), len(wantLines)) {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("line %d differs:\n got: %s\nwant: %s", i+1, g, w)
		}
	}
}
