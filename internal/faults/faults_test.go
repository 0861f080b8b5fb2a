package faults

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func TestFireDisabledIsNil(t *testing.T) {
	Disable()
	if err := Fire(PointDecode); err != nil {
		t.Fatalf("disabled Fire returned %v", err)
	}
}

func TestEveryScheduleIsDeterministic(t *testing.T) {
	in := New(1)
	in.Set(PointSubsetPass, PointConfig{Every: 3, ErrMsg: "boom"})
	var fires []int
	for i := 1; i <= 9; i++ {
		if err := in.Fire(PointSubsetPass); err != nil {
			fires = append(fires, i)
			if !IsTransient(err) {
				t.Fatalf("injected error not transient: %v", err)
			}
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("injected error does not wrap ErrInjected: %v", err)
			}
		}
	}
	want := []int{3, 6, 9}
	if len(fires) != len(want) {
		t.Fatalf("fired at %v, want %v", fires, want)
	}
	for i := range want {
		if fires[i] != want[i] {
			t.Fatalf("fired at %v, want %v", fires, want)
		}
	}
}

func TestProbabilityScheduleReplaysPerSeed(t *testing.T) {
	run := func(seed int64) []bool {
		in := New(seed)
		in.Set(PointPoolRun, PointConfig{Probability: 0.5, ErrMsg: "x"})
		out := make([]bool, 100)
		for i := range out {
			out[i] = in.Fire(PointPoolRun) != nil
		}
		return out
	}
	a, b, c := run(7), run(7), run(8)
	same, diff := true, false
	for i := range a {
		same = same && a[i] == b[i]
		diff = diff || a[i] != c[i]
	}
	if !same {
		t.Fatal("same seed produced different schedules")
	}
	if !diff {
		t.Fatal("different seeds produced identical 100-call schedules (suspicious)")
	}
	fires := 0
	for _, f := range a {
		if f {
			fires++
		}
	}
	if fires < 20 || fires > 80 {
		t.Fatalf("p=0.5 fired %d/100 times", fires)
	}
}

func TestMaxFiresBoundsTheSchedule(t *testing.T) {
	in := New(1)
	in.Set(PointDecode, PointConfig{Every: 1, MaxFires: 2, ErrMsg: "x"})
	fired := 0
	for i := 0; i < 10; i++ {
		if in.Fire(PointDecode) != nil {
			fired++
		}
	}
	if fired != 2 {
		t.Fatalf("fired %d times, want 2 (MaxFires)", fired)
	}
	if st := in.Stats()[PointDecode]; st.Calls != 10 || st.Fires != 2 {
		t.Fatalf("stats = %+v, want Calls=10 Fires=2", st)
	}
}

func TestPanicAction(t *testing.T) {
	in := New(1)
	in.Set(PointPoolRun, PointConfig{Every: 1, Panic: true})
	defer func() {
		if recover() == nil {
			t.Fatal("panic action did not panic")
		}
	}()
	in.Fire(PointPoolRun)
}

func TestLatencyAction(t *testing.T) {
	in := New(1)
	in.Set(PointDecode, PointConfig{Every: 1, Latency: 20 * time.Millisecond})
	t0 := time.Now()
	if err := in.Fire(PointDecode); err != nil {
		t.Fatalf("latency-only point returned error %v", err)
	}
	if d := time.Since(t0); d < 20*time.Millisecond {
		t.Fatalf("latency action slept %v, want >= 20ms", d)
	}
}

func TestConcurrentFireIsSafe(t *testing.T) {
	in := New(3)
	in.Set(PointPoolSubmit, PointConfig{Probability: 0.3, ErrMsg: "x"})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				in.Fire(PointPoolSubmit)
			}
		}()
	}
	wg.Wait()
	if st := in.Stats()[PointPoolSubmit]; st.Calls != 4000 {
		t.Fatalf("calls = %d, want 4000", st.Calls)
	}
}

func TestParseSpec(t *testing.T) {
	cfgs, err := Parse("sslic.pass:error=boom,prob=0.2; pool.submit:latency=50ms,every=10,max=3")
	if err != nil {
		t.Fatal(err)
	}
	p := cfgs[PointSubsetPass]
	if p.Probability != 0.2 || p.ErrMsg != "boom" {
		t.Fatalf("sslic.pass cfg = %+v", p)
	}
	q := cfgs[PointPoolSubmit]
	if q.Every != 10 || q.Latency != 50*time.Millisecond || q.MaxFires != 3 {
		t.Fatalf("pool.submit cfg = %+v", q)
	}

	bad := []string{
		"",                           // empty
		"nosuch.point:error,every=1", // unknown point
		"sslic.pass:error",           // no schedule
		"sslic.pass:every=2",         // no action
		"sslic.pass:prob=1.5,error",  // probability out of range
		"sslic.pass:every=0,error",   // every < 1
		"sslic.pass:frobnicate=1",    // unknown action
	}
	for _, spec := range bad {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted a bad spec", spec)
		}
	}
}

func TestNewFromSpecEnableDisable(t *testing.T) {
	in, err := NewFromSpec(42, "imgio.decode:error=decode down,every=2")
	if err != nil {
		t.Fatal(err)
	}
	Enable(in)
	defer Disable()
	if Active() != in {
		t.Fatal("Active() did not return the enabled injector")
	}
	if err := Fire(PointDecode); err != nil {
		t.Fatalf("call 1 fired: %v", err)
	}
	if err := Fire(PointDecode); err == nil {
		t.Fatal("call 2 did not fire")
	}
	Disable()
	if err := Fire(PointDecode); err != nil {
		t.Fatalf("disabled injector fired: %v", err)
	}
}
