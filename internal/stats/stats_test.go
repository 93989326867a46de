package stats

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestAddMergesEverything(t *testing.T) {
	a := NewCore()
	a.BusyCycles = 10
	a.FenceStallCycles = 5
	a.Events[EvCommit] = 3
	a.FenceSiteStall[7] = 4
	b := NewCore()
	b.BusyCycles = 1
	b.FenceStallCycles = 2
	b.Events[EvCommit] = 1
	b.Events[EvAbort] = 9
	b.FenceSiteStall[7] = 1
	b.FenceSiteStall[9] = 2
	a.Add(b)
	if a.BusyCycles != 11 || a.FenceStallCycles != 7 {
		t.Fatalf("cycle merge wrong: %+v", a)
	}
	if a.Events[EvCommit] != 4 || a.Events[EvAbort] != 9 {
		t.Fatalf("event merge wrong: %v", a.Events)
	}
	if a.FenceSiteStall[7] != 5 || a.FenceSiteStall[9] != 2 {
		t.Fatalf("site merge wrong: %v", a.FenceSiteStall)
	}
}

func TestTopFenceSitesOrdering(t *testing.T) {
	c := NewCore()
	c.FenceSiteStall[1] = 10
	c.FenceSiteStall[2] = 30
	c.FenceSiteStall[3] = 20
	top := c.TopFenceSites(2)
	if len(top) != 2 || top[0].PC != 2 || top[1].PC != 3 {
		t.Fatalf("top sites: %v", top)
	}
	all := c.TopFenceSites(10)
	if len(all) != 3 {
		t.Fatalf("want all 3 sites, got %d", len(all))
	}

	// Ties rank by ascending PC, so the cut is the same on every call
	// whatever order the map iterates in.
	tied := NewCore()
	for pc := 400; pc < 410; pc++ {
		tied.FenceSiteStall[pc] = 683
	}
	tied.FenceSiteStall[500] = 700
	for i := 0; i < 20; i++ {
		top := tied.TopFenceSites(3)
		if len(top) != 3 || top[0].PC != 500 || top[1].PC != 400 || top[2].PC != 401 {
			t.Fatalf("call %d: tied top sites %v, want PCs 500, 400, 401", i, top)
		}
	}
}

// Property: TopFenceSites is always sorted descending and never invents
// entries.
func TestTopFenceSitesQuick(t *testing.T) {
	f := func(vals []uint16) bool {
		c := NewCore()
		for i, v := range vals {
			c.FenceSiteStall[i] += uint64(v)
		}
		top := c.TopFenceSites(len(vals) + 1)
		for i := 1; i < len(top); i++ {
			if top[i].Cycles > top[i-1].Cycles {
				return false
			}
		}
		return len(top) == len(c.FenceSiteStall)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTotalCyclesExcludesIdle(t *testing.T) {
	c := NewCore()
	c.BusyCycles, c.FenceStallCycles, c.OtherStallCycles, c.IdleCycles = 1, 2, 3, 100
	if c.TotalCycles() != 6 {
		t.Fatalf("total = %d", c.TotalCycles())
	}
}

// TestCountersListEveryCounter: Counters names every uint64 field of
// Core once, in declaration order, so Add, the result digest and the
// store record cannot miss one.
func TestCountersListEveryCounter(t *testing.T) {
	c := NewCore()
	v := reflect.ValueOf(c).Elem()
	var want []*uint64
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Kind() == reflect.Uint64 {
			want = append(want, f.Addr().Interface().(*uint64))
		}
	}
	got := c.Counters()
	if len(got) != len(want) {
		t.Fatalf("Counters lists %d counters, Core has %d", len(got), len(want))
	}
	names := map[string]bool{}
	for i, f := range got {
		if f.Val != want[i] {
			t.Errorf("Counters()[%d] (%s) is not the %d-th uint64 field", i, f.Name, i)
		}
		if f.Name == "" || names[f.Name] {
			t.Errorf("Counters()[%d] name %q is empty or repeated", i, f.Name)
		}
		names[f.Name] = true
	}
	// Add sums every listed counter.
	o := NewCore()
	for i, f := range o.Counters() {
		*f.Val = uint64(i + 1)
	}
	c.Add(o)
	c.Add(o)
	for i, f := range c.Counters() {
		if *f.Val != 2*uint64(i+1) {
			t.Errorf("after two Adds %s = %d, want %d", f.Name, *f.Val, 2*(i+1))
		}
	}
}
