package fault

import (
	"strings"
	"testing"

	"dynprof/internal/des"
)

func TestZeroPlan(t *testing.T) {
	var nilPlan *Plan
	if !nilPlan.IsZero() || !(&Plan{}).IsZero() {
		t.Error("nil and empty plans must be zero")
	}
	if got := nilPlan.Key(); got != "" {
		t.Errorf("zero plan key = %q, want empty", got)
	}
	if nilPlan.SlowdownOn(3) != 1.0 {
		t.Error("zero plan must not slow any node")
	}
	if nilPlan.StallsOn(0) != nil {
		t.Error("zero plan must have no stalls")
	}
	if nilPlan.DelayFactor() != 1 {
		t.Error("zero plan delay factor must be 1")
	}
	if nilPlan.Timeout() != DefaultDetectTimeout {
		t.Error("zero plan must use the default detect timeout")
	}
	if err := nilPlan.Validate(); err != nil {
		t.Errorf("zero plan must validate: %v", err)
	}
	if NewInjector(nilPlan, nil) != nil {
		t.Error("zero plan must yield the nil injector")
	}
}

func TestNilInjectorIsIdentity(t *testing.T) {
	var in *Injector
	if in.DropCtrl() {
		t.Error("nil injector must not drop")
	}
	if d := in.ScaleCtrl(7 * des.Millisecond); d != 7*des.Millisecond {
		t.Errorf("nil injector scaled %v", d)
	}
	in.Record(0, KindCtrlDrop, -1, -1, "ignored")
	if in.Events() != nil {
		t.Error("nil injector must log nothing")
	}
	if in.Plan() != nil {
		t.Error("nil injector plan must be nil")
	}
}

func TestPlanKeyCanonical(t *testing.T) {
	a := &Plan{
		Slowdowns: []Slowdown{{Node: 2, Factor: 1.5}, {Node: 0, Factor: 2}},
		Crashes:   []Crash{{Rank: 3, At: des.Second}},
	}
	b := &Plan{
		Slowdowns: []Slowdown{{Node: 0, Factor: 2}, {Node: 2, Factor: 1.5}},
		Crashes:   []Crash{{Rank: 3, At: des.Second}},
	}
	if a.Key() != b.Key() {
		t.Errorf("order-insensitive plans keyed differently:\n%s\n%s", a.Key(), b.Key())
	}
	c := &Plan{Crashes: []Crash{{Rank: 3, At: 2 * des.Second}}}
	if a.Key() == c.Key() {
		t.Error("different crash times must key differently")
	}
	if !strings.HasPrefix(a.Key(), "faults{") {
		t.Errorf("key %q missing faults{ prefix", a.Key())
	}
}

func TestValidate(t *testing.T) {
	bad := []*Plan{
		{Slowdowns: []Slowdown{{Node: 0, Factor: 0.5}}},
		{Stalls: []Stall{{Node: 0, At: -1, Duration: des.Second}}},
		{Crashes: []Crash{{Rank: -1, At: 0}}},
		{CtrlLossProb: 1.5},
		{CtrlDelayFactor: -1},
		{DetectTimeout: -des.Second},
	}
	for i, pl := range bad {
		if err := pl.Validate(); err == nil {
			t.Errorf("plan %d must fail validation: %+v", i, *pl)
		}
	}
	ok := &Plan{
		Slowdowns:       []Slowdown{{Node: 1, Factor: 3}},
		Stalls:          []Stall{{Node: 1, At: des.Second, Duration: 50 * des.Millisecond}},
		Crashes:         []Crash{{Rank: 2, At: des.Second}},
		CtrlLossProb:    0.1,
		CtrlDelayFactor: 4,
	}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
}

func TestSlowdownAndStalls(t *testing.T) {
	pl := &Plan{
		Slowdowns: []Slowdown{{Node: 1, Factor: 2}, {Node: 1, Factor: 1.5}},
		Stalls: []Stall{
			{Node: 0, At: 3 * des.Second, Duration: des.Second},
			{Node: 0, At: des.Second, Duration: des.Second},
			{Node: 2, At: 0, Duration: des.Second},
		},
	}
	if f := pl.SlowdownOn(1); f != 3.0 {
		t.Errorf("compounded slowdown = %v, want 3", f)
	}
	if f := pl.SlowdownOn(0); f != 1.0 {
		t.Errorf("unaffected node slowed by %v", f)
	}
	st := pl.StallsOn(0)
	if len(st) != 2 || st[0].At != des.Second || st[1].At != 3*des.Second {
		t.Errorf("stalls not filtered/sorted: %+v", st)
	}
	if st[0].End() != 2*des.Second {
		t.Errorf("stall end = %v", st[0].End())
	}
}

func TestInjectorDropDeterminism(t *testing.T) {
	pl := &Plan{CtrlLossProb: 0.5}
	draw := func() []bool {
		in := NewInjector(pl, des.NewRNG(42))
		var out []bool
		for i := 0; i < 64; i++ {
			out = append(out, in.DropCtrl())
		}
		return out
	}
	a, b := draw(), draw()
	drops := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs between identical seeds", i)
		}
		if a[i] {
			drops++
		}
	}
	if drops == 0 || drops == len(a) {
		t.Errorf("p=0.5 produced %d/%d drops", drops, len(a))
	}
	total := NewInjector(&Plan{CtrlLossProb: 1}, des.NewRNG(1))
	if !total.DropCtrl() {
		t.Error("p=1 must always drop")
	}
}

func TestInjectorLog(t *testing.T) {
	in := NewInjector(&Plan{CtrlDelayFactor: 2}, des.NewRNG(1))
	if d := in.ScaleCtrl(des.Millisecond); d != 2*des.Millisecond {
		t.Errorf("delay factor 2 scaled 1ms to %v", d)
	}
	in.Record(2*des.Second, KindCrash, 1, 5, "planned")
	in.Record(des.Second, KindCtrlDrop, -1, -1, "")
	evs := in.Events()
	if len(evs) != 2 || evs[0].Kind != KindCtrlDrop || evs[1].Kind != KindCrash {
		t.Errorf("events not time-sorted: %+v", evs)
	}
	if !strings.Contains(evs[1].String(), "rank=5") {
		t.Errorf("event string %q missing rank", evs[1])
	}
	merged := MergeEvents(evs, []Event{{At: 1500 * des.Millisecond, Kind: KindDegrade, Node: -1, Rank: -1}})
	if len(merged) != 3 || merged[1].Kind != KindDegrade {
		t.Errorf("merge not time-sorted: %+v", merged)
	}
}

// TestPlanKeyPinned pins Key's bytes for one plan per field and one plan
// that sets them all: spec keys and journal records embed these strings.
func TestPlanKeyPinned(t *testing.T) {
	cases := []struct {
		name string
		plan Plan
		want string
	}{
		{"slowdowns", Plan{Slowdowns: []Slowdown{{Node: 3, Factor: 1.5}, {Node: 1, Factor: 2}}}, "faults{slow:1*2;slow:3*1.5;}"},
		{"stalls", Plan{Stalls: []Stall{{Node: 2, At: des.Second, Duration: 50 * des.Millisecond}, {Node: 0, At: 3 * des.Second, Duration: des.Millisecond}}}, "faults{stall:0@3000000000+1000000;stall:2@1000000000+50000000;}"},
		{"crashes", Plan{Crashes: []Crash{{Rank: 5, At: 2 * des.Second}, {Rank: 1, At: des.Second}}}, "faults{crash:1@1000000000;crash:5@2000000000;}"},
		{"daemon-crashes", Plan{DaemonCrashes: []DaemonCrash{{Node: 1, At: des.Second}, {Node: 0, At: 2 * des.Second, Restart: 10 * des.Millisecond}}}, "faults{dcrash:0@2000000000+10000000;dcrash:1@1000000000+40000000;}"},
		{"loss", Plan{CtrlLossProb: 0.25}, "faults{loss:0.25;}"},
		{"delay", Plan{CtrlDelayFactor: 4}, "faults{delay:4;}"},
		{"detect", Plan{DetectTimeout: 100 * des.Millisecond}, "faults{detect:100000000;}"},
		{"all", Plan{
			Slowdowns:       []Slowdown{{Node: 1, Factor: 3}},
			Stalls:          []Stall{{Node: 1, At: des.Second, Duration: 50 * des.Millisecond}},
			Crashes:         []Crash{{Rank: 2, At: des.Second}},
			DaemonCrashes:   []DaemonCrash{{Node: 0, At: 500 * des.Millisecond}},
			CtrlLossProb:    0.1,
			CtrlDelayFactor: 2.5,
			DetectTimeout:   des.Second,
		}, "faults{slow:1*3;stall:1@1000000000+50000000;crash:2@1000000000;dcrash:0@500000000+40000000;loss:0.1;delay:2.5;detect:1000000000;}"},
	}
	for _, c := range cases {
		if got := c.plan.Key(); got != c.want {
			t.Errorf("%s: Key() = %q, want %q", c.name, got, c.want)
		}
	}
}
