// Package fixed models the integer square root of the accelerator's
// distance calculator (§4.3), which returns a distance, not its square:
// the coded datapath of internal/sslic turns every squared Equation 5
// distance into a distance code through it.
package fixed

// Isqrt returns the floor integer square root of v (0 for negative
// inputs) and the cycle count of a bit-serial implementation (one
// result bit per two cycles over half the operand width).
func Isqrt(v int64) (root int64, cycles int) {
	const width = 32 // the distance datapath operands fit in 32 bits
	cycles = width/2*2 + 1
	if v <= 0 {
		return 0, cycles
	}
	// Digit-by-digit (binary restoring) method — the same structure a
	// serial hardware unit uses, and exact for all int64 inputs.
	var res int64
	bit := int64(1) << 62
	for bit > v {
		bit >>= 2
	}
	x := v
	for bit != 0 {
		if x >= res+bit {
			x -= res + bit
			res = res>>1 + bit
		} else {
			res >>= 1
		}
		bit >>= 2
	}
	return res, cycles
}
