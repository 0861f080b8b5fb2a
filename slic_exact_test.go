package sslic

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"sslic/internal/dataset"
)

// TestSLICExact pins the reference SLIC method bit for bit through the
// public API: the label map, the per-iteration residuals, the segment
// and iteration counts and the distance calcs, on corpus scenes at the
// paper's size and on a ragged 97×61 frame, with and without SLICO.
// Any change to SLIC's arithmetic or operation order shows here.
func TestSLICExact(t *testing.T) {
	cases := []struct {
		name      string
		w, h      int
		seed      int64
		k, iters  int
		m         float64
		slico     bool
		labels    string // SHA-256 of the labels as little-endian int32
		segments  int
		itersRun  int
		calcs     int64
		residuals string // SHA-256 of the residuals as little-endian float64 bits
	}{
		{"bsds", 481, 321, 1, 900, 10, 10, false,
			"45bd7e1f52f4bf5eac9735e1924457e82c596f23c37cf817ff9a9e484b91013d", 918, 10, 6642778,
			"3f06db04e58e0ce7343dd669851e621a6a07f858d5b5c9b9f3e911967e2314db"},
		{"slico", 481, 321, 2, 900, 10, 10, true,
			"8fb9a1ee48f7381f2950efb8cccaf015ec7129f6711a059de162135303229b62", 941, 10, 6645772,
			"14dd52a1da5e70e81db6b1654b2843ace9a7f6db328a9cb031a4b30801ea5067"},
		{"iters1", 481, 321, 3, 900, 1, 10, false,
			"3241702809bb58b3d0c807e0b0d9cf81ac3fbda9092bdf0c8f625903aee73e31", 915, 1, 699704,
			"2ac124ed8dfd0fad4a282e748dd388ee882d47119913cf76afe35146b4da54fa"},
		{"m40", 481, 321, 4, 400, 6, 40, false,
			"bdca292fd57306e897c716e5909816b6cf4567d9dfae02210335ec16710b8aa6", 380, 6, 3550769,
			"837a1a0d0c8158afd6bdb66db052c8421e4200cc26a1c8d4cac8d0e2934e18e6"},
		{"ragged", 97, 61, 5, 13, 10, 10, false,
			"2e6a3129bcf33235dc5b4891c267d07a66eb53d2b02ed68d0994e5e4d6b58923", 13, 10, 208023,
			"568632d76db4598c1ad10f0f4afdce4fc05aa4977093ffeb1e6e5ef794b176c0"},
		{"k1", 97, 61, 6, 1, 5, 10, false,
			"bae01bc38a36aca3454790b90cd5bf5c179d2e49f4baa2baf83edc72b51d8913", 1, 5, 29585,
			"dfa15abd36e7b5ba1997acbae4d98d2b99e543644a2170cd711144508d03e772"},
		{"ragged-slico", 97, 61, 7, 13, 10, 10, true,
			"8abc54b853ea6a4fad3ebe45ece7b244393c700319cf7348826272e2b86daa36", 15, 10, 210978,
			"d24d47b846369668d710295dd62b274128821499783f724bad3489c2ff5dd248"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := dataset.DefaultConfig()
			cfg.W, cfg.H = c.w, c.h
			if c.w == 97 {
				cfg.Regions = 6
			}
			s, err := dataset.Generate(cfg, c.seed)
			if err != nil {
				t.Fatal(err)
			}
			opt := DefaultOptions(c.k)
			opt.Method = SLIC
			opt.Iterations = c.iters
			opt.Compactness = c.m
			opt.AdaptiveCompactness = c.slico
			seg, err := Segment(s.Image.ToGoImage(), opt)
			if err != nil {
				t.Fatal(err)
			}
			lh := sha256.New()
			for _, v := range seg.Labels {
				binary.Write(lh, binary.LittleEndian, v)
			}
			rh := sha256.New()
			for _, v := range seg.Residuals {
				binary.Write(rh, binary.LittleEndian, math.Float64bits(v))
			}
			labels, residuals := hex.EncodeToString(lh.Sum(nil)), hex.EncodeToString(rh.Sum(nil))
			if labels != c.labels {
				t.Errorf("labels hash %s, want %s", labels, c.labels)
			}
			if seg.NumSegments != c.segments || seg.Iterations != c.itersRun || seg.DistanceCalcs != c.calcs {
				t.Errorf("segments, iterations, calcs = %d, %d, %d; want %d, %d, %d",
					seg.NumSegments, seg.Iterations, seg.DistanceCalcs, c.segments, c.itersRun, c.calcs)
			}
			if residuals != c.residuals {
				t.Errorf("residuals hash %s, want %s", residuals, c.residuals)
			}
		})
	}
}
