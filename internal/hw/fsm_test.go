package hw

import "testing"

func TestFSMLegalSequence(t *testing.T) {
	f := NewFSM()
	seq := []State{
		StateLoadFrame, StateColorConvert,
		StateLoadTile, StateClusterUpdate, StateStoreTile,
		StateLoadTile, StateClusterUpdate, StateStoreTile,
		StateCenterUpdate,
		StateLoadTile, StateClusterUpdate, StateStoreTile,
		StateCenterUpdate, StateDone, StateIdle,
	}
	for i, to := range seq {
		if err := f.Transition(to); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	if f.State() != StateIdle {
		t.Fatalf("final state %v", f.State())
	}
	if f.Visits(StateLoadTile) != 3 || f.Visits(StateCenterUpdate) != 2 {
		t.Fatalf("visit counts wrong: load-tile %d, center %d",
			f.Visits(StateLoadTile), f.Visits(StateCenterUpdate))
	}
}

func TestFSMIllegalTransitions(t *testing.T) {
	cases := []struct {
		path []State
		bad  State
	}{
		{nil, StateColorConvert},                 // idle → convert skips load
		{nil, StateDone},                         // idle → done
		{[]State{StateLoadFrame}, StateLoadTile}, // skip conversion
		{[]State{StateLoadFrame, StateColorConvert, StateLoadTile}, StateStoreTile}, // skip cluster update
	}
	for i, c := range cases {
		f := NewFSM()
		for _, to := range c.path {
			if err := f.Transition(to); err != nil {
				t.Fatalf("case %d setup: %v", i, err)
			}
		}
		if err := f.Transition(c.bad); err == nil {
			t.Errorf("case %d: illegal transition to %v accepted", i, c.bad)
		}
	}
}

func TestFSMStateStrings(t *testing.T) {
	names := map[State]string{
		StateIdle: "idle", StateLoadFrame: "load-frame",
		StateColorConvert: "color-convert", StateLoadTile: "load-tile",
		StateClusterUpdate: "cluster-update", StateStoreTile: "store-tile",
		StateCenterUpdate: "center-update", StateDone: "done",
	}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), want)
		}
	}
	if State(99).String() == "" {
		t.Error("unknown state must render")
	}
}

func TestFuncSimEndsDone(t *testing.T) {
	cfg := funcTestConfig(96, 64, 24)
	fs, err := NewFuncSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	im := funcTestImage(t, 96, 64)
	if _, _, err := fs.Run(im); err != nil {
		t.Fatal(err)
	}
	if fs.FSM().State() != StateDone {
		t.Fatalf("final FSM state %v, want done", fs.FSM().State())
	}
	// One tile sequence per buffer tile per pass (6144 pixels in 1 kB
	// buffers), one center update per pass.
	wantTiles := int64(6 * cfg.Passes)
	if got := fs.FSM().Visits(StateLoadTile); got != wantTiles {
		t.Fatalf("load-tile visits %d, want %d", got, wantTiles)
	}
	if got := fs.FSM().Visits(StateCenterUpdate); got != int64(cfg.Passes) {
		t.Fatalf("center-update visits %d, want %d", got, cfg.Passes)
	}
}

func TestFSMVisitsOutOfRange(t *testing.T) {
	f := NewFSM()
	if f.Visits(State(-1)) != 0 || f.Visits(State(99)) != 0 {
		t.Fatal("out-of-range visits must be 0")
	}
}
