package codegen

import (
	"testing"

	"rtmap/internal/dfg"
	"rtmap/internal/ternary"
)

func TestLivenessChain(t *testing.T) {
	// ((x0+x1)+x2) → node ids: 0,1,2 inputs; 3=add(0,1); 4=add(3,2).
	s := ternary.Slice{Cout: 1, K: 3, M: []int8{1, 1, 1}}
	g := dfg.Build(s, dfg.Options{})
	last := liveness(g)
	if last[3] != 4 {
		t.Errorf("intermediate last use %d, want 4", last[3])
	}
	if last[4] != len(g.Nodes) {
		t.Errorf("output last use %d, want %d (accumulation)", last[4], len(g.Nodes))
	}
}

func TestColumnPoolReuse(t *testing.T) {
	p := newColumnPool([]int{10, 11, 12})
	a, _ := p.get()
	b, _ := p.get()
	if a == b {
		t.Fatal("pool returned duplicate column")
	}
	p.put(a)
	c, _ := p.get()
	if c != a {
		t.Errorf("expected reuse of %d, got %d", a, c)
	}
}

func TestColumnPoolExhaustion(t *testing.T) {
	p := newColumnPool([]int{1})
	if _, err := p.get(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.get(); err == nil {
		t.Error("expected exhaustion error")
	}
}

func TestColumnPoolDoubleFreePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("double free must panic")
		}
	}()
	p := newColumnPool([]int{1})
	c, _ := p.get()
	p.put(c)
	p.put(c)
}
