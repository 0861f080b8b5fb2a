package fixed

import (
	"testing"
	"testing/quick"
)

func TestIsqrtExact(t *testing.T) {
	cases := map[int64]int64{
		0: 0, 1: 1, 2: 1, 3: 1, 4: 2, 8: 2, 9: 3, 15: 3, 16: 4,
		1 << 40: 1 << 20, (1 << 30) - 1: 32767,
	}
	for v, want := range cases {
		if got, _ := Isqrt(v); got != want {
			t.Errorf("Isqrt(%d) = %d, want %d", v, got, want)
		}
	}
	if got, _ := Isqrt(-9); got != 0 {
		t.Error("negative input must yield 0")
	}
}

func TestIsqrtFloorProperty(t *testing.T) {
	prop := func(raw uint32) bool {
		v := int64(raw)
		r, _ := Isqrt(v)
		return r*r <= v && (r+1)*(r+1) > v
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestIsqrtMonotone(t *testing.T) {
	prop := func(a, b uint32) bool {
		x, y := int64(a), int64(b)
		if x > y {
			x, y = y, x
		}
		rx, _ := Isqrt(x)
		ry, _ := Isqrt(y)
		return rx <= ry
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestIsqrtCyclesConstant(t *testing.T) {
	_, c1 := Isqrt(1)
	_, c2 := Isqrt(1 << 40)
	if c1 != c2 || c1 <= 0 {
		t.Fatalf("serial sqrt cycles must be data-independent: %d vs %d", c1, c2)
	}
}
