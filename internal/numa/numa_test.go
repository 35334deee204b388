package numa

import (
	"reflect"
	"testing"
)

func TestDiscoverAlwaysUsable(t *testing.T) {
	topo := Discover()
	if topo.NumNodes() < 1 {
		t.Fatalf("NumNodes = %d, want >= 1", topo.NumNodes())
	}
	if n := topo.CurrentNode(); n < 0 || n >= topo.NumNodes() {
		t.Fatalf("CurrentNode = %d outside [0,%d)", n, topo.NumNodes())
	}
	// Binding to node 0 must never fail on whatever real shape we found
	// (single-node short-circuits; a real multi-node box mbinds).
	if err := topo.Bind(make([]byte, 64), 0); err != nil {
		t.Fatalf("Bind(node 0): %v", err)
	}
	if !topo.Physical() {
		t.Error("discovered topology must report Physical")
	}
}

func TestParseCPUList(t *testing.T) {
	cases := []struct {
		in   string
		want []int
		err  bool
	}{
		{"", nil, false},
		{"0", []int{0}, false},
		{"0-3", []int{0, 1, 2, 3}, false},
		{"0-1,4-5", []int{0, 1, 4, 5}, false},
		{"3,1,1-2", []int{1, 2, 3}, false},
		{"2-1", nil, true},
		{"-1", nil, true},
		{"a-b", nil, true},
	}
	for _, c := range cases {
		got, err := ParseCPUList(c.in)
		if c.err != (err != nil) {
			t.Errorf("ParseCPUList(%q) err = %v, want error=%v", c.in, err, c.err)
			continue
		}
		if !c.err && !reflect.DeepEqual(got, c.want) {
			t.Errorf("ParseCPUList(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestFakeCPUPartition checks the contiguous cpu→node blocks for square,
// lopsided, and degenerate shapes, including non-power-of-two CPU counts.
func TestFakeCPUPartition(t *testing.T) {
	cases := []struct {
		nodes, cpus int
		want        []int // cpu -> node
	}{
		{1, 1, []int{0}},
		{1, 4, []int{0, 0, 0, 0}},
		{2, 4, []int{0, 0, 1, 1}},
		{2, 5, []int{0, 0, 0, 1, 1}},
		{4, 6, []int{0, 0, 1, 2, 2, 3}},
		{4, 2, []int{0, 2}}, // more nodes than CPUs: nodes 1 and 3 own none
	}
	for _, c := range cases {
		topo := NewFake(c.nodes, c.cpus)
		got := make([]int, c.cpus)
		for cpu := range got {
			got[cpu] = topo.NodeOfCPU(cpu)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("NewFake(%d,%d) cpu→node = %v, want %v", c.nodes, c.cpus, got, c.want)
		}
	}
}

func TestFakeCurrentNode(t *testing.T) {
	topo := NewFake(2, 4)
	// Round-robin default must visit both nodes.
	seen := map[int]bool{}
	for i := 0; i < 8; i++ {
		n := topo.CurrentNode()
		if n < 0 || n >= 2 {
			t.Fatalf("CurrentNode = %d", n)
		}
		seen[n] = true
	}
	if len(seen) != 2 {
		t.Errorf("round-robin CurrentNode visited %v, want both nodes", seen)
	}
	// Injection pins it.
	topo.SetCurrentCPU(func() int { return 3 })
	for i := 0; i < 4; i++ {
		if n := topo.CurrentNode(); n != 1 {
			t.Fatalf("pinned CurrentNode = %d, want 1", n)
		}
	}
	topo.SetCurrentCPU(nil)
}

func TestFakeBindRecords(t *testing.T) {
	topo := NewFake(2, 2)
	if err := topo.Bind(make([]byte, 100), 1); err != nil {
		t.Fatal(err)
	}
	if err := topo.Bind(make([]byte, 50), 0); err != nil {
		t.Fatal(err)
	}
	if err := topo.Bind(nil, 2); err == nil {
		t.Error("Bind to out-of-range node must error")
	}
	want := []BindRecord{{Node: 1, Bytes: 100}, {Node: 0, Bytes: 50}}
	if got := topo.Binds(); !reflect.DeepEqual(got, want) {
		t.Errorf("Binds = %v, want %v", got, want)
	}
}
